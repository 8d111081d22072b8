"""Sharing conflict detection (Section 4, Definition 6).

Two sharing candidates ``(pA, QA)`` and ``(pB, QB)`` are *in conflict* when a
query ``q`` shared by both would receive "contradictory instructions": the
occurrences of ``pA`` and ``pB`` inside ``q``'s pattern occupy overlapping
positions, so the executor — which stores aggregates for a shared pattern as
a whole — cannot decompose ``q`` around both.

The check works positionally over the containing query's pattern, which is
equivalent to the paper's suffix-equals-prefix formulation under the
one-occurrence-per-type assumption, and remains correct when that assumption
is relaxed (Section 7.3): a conflict exists in ``q`` only if *no* pair of
non-overlapping placements of the two patterns exists.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..queries.pattern import Pattern
from ..queries.query import Query
from ..queries.workload import Workload
from .candidates import SharingCandidate

__all__ = ["ConflictDetector", "SharingConflict"]


@dataclass(frozen=True)
class SharingConflict:
    """A detected conflict together with the queries causing it."""

    first: SharingCandidate
    second: SharingCandidate
    causing_queries: tuple[str, ...]

    def other(self, candidate: SharingCandidate) -> SharingCandidate:
        if candidate == self.first:
            return self.second
        if candidate == self.second:
            return self.first
        raise ValueError(f"{candidate!r} is not part of this conflict")


class ConflictDetector:
    """Detects sharing conflicts between candidates of one workload."""

    def __init__(self, workload: Workload) -> None:
        self.workload = workload
        self._placement_cache: dict[tuple[str, Pattern], tuple[tuple[int, int], ...]] = {}

    # -- low-level placement geometry --------------------------------------------
    def placements(self, query: Query, pattern: Pattern) -> tuple[tuple[int, int], ...]:
        """Half-open position ranges ``[start, end)`` of ``pattern`` inside ``query``."""
        cache_key = (query.name, pattern)
        cached = self._placement_cache.get(cache_key)
        if cached is not None:
            return cached
        ranges = tuple(
            (start, start + len(pattern)) for start in query.pattern.occurrences(pattern)
        )
        self._placement_cache[cache_key] = ranges
        return ranges

    @staticmethod
    def _ranges_overlap(a: tuple[int, int], b: tuple[int, int]) -> bool:
        return a[0] < b[1] and b[0] < a[1]

    def patterns_conflict_in(self, query: Query, first: Pattern, second: Pattern) -> bool:
        """Whether ``first`` and ``second`` cannot both be shared by ``query``.

        True when every placement of ``first`` overlaps every placement of
        ``second`` — i.e. there is no way to carve both patterns out of the
        query's pattern without overlap.
        """
        first_placements = self.placements(query, first)
        second_placements = self.placements(query, second)
        if not first_placements or not second_placements:
            return False
        for a in first_placements:
            for b in second_placements:
                if not self._ranges_overlap(a, b):
                    return False
        return True

    # -- candidate-level API --------------------------------------------------------
    def causing_queries(
        self, first: SharingCandidate, second: SharingCandidate
    ) -> tuple[str, ...]:
        """Names of the queries that cause a conflict between two candidates.

        Empty when the candidates are not in conflict.  Needed by the
        conflict-resolution expansion (Section 7.1, Algorithm 5), which drops
        exactly these queries from a candidate's query set.
        """
        if first.pattern == second.pattern:
            # Same pattern: the same aggregate state cannot serve two distinct
            # sharing groups for a query; any common query is a cause.
            return first.common_queries(second)
        causes = []
        for name in first.common_queries(second):
            query = self.workload[name]
            if self.patterns_conflict_in(query, first.pattern, second.pattern):
                causes.append(name)
        return tuple(causes)

    def in_conflict(self, first: SharingCandidate, second: SharingCandidate) -> bool:
        """Definition 6: whether two candidates are in sharing conflict."""
        if first == second:
            return False
        return bool(self.causing_queries(first, second))

    def conflict(
        self, first: SharingCandidate, second: SharingCandidate
    ) -> SharingConflict | None:
        """A populated :class:`SharingConflict`, or ``None`` if compatible."""
        causes = self.causing_queries(first, second)
        if not causes:
            return None
        return SharingConflict(first, second, causes)
