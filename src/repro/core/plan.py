"""Sharing plans (Definitions 7–9) and their executor-facing decomposition.

A sharing plan is a set of sharing candidates.  It is *valid* if no two of
its candidates are in conflict, and its *score* is the sum of the benefit
values of its candidates.  The optimal plan is a valid plan of maximal score,
which Lemma 1 identifies with a maximum weight independent set of the Sharon
graph.

Besides the optimizer-facing notions, this module derives what the runtime
executor needs from a plan: for every query, the decomposition of its pattern
into *shared segments* (computed once per sharing group) and *private
segments* (computed only for that query), in stream order.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping

from ..queries.pattern import Pattern
from ..queries.query import Query
from ..queries.workload import Workload
from .candidates import SharingCandidate
from .conflicts import ConflictDetector

__all__ = ["SharingPlan", "QueryDecomposition", "PlanSegment"]


@dataclass(frozen=True)
class PlanSegment:
    """One segment of a query's pattern under a sharing plan.

    Attributes
    ----------
    pattern:
        The contiguous sub-pattern covered by this segment.
    start:
        Start position of the segment inside the query's pattern.
    shared_with:
        Names of the queries sharing this segment's aggregates (including the
        owning query); empty for private segments.
    """

    pattern: Pattern
    start: int
    shared_with: tuple[str, ...] = ()

    @property
    def is_shared(self) -> bool:
        return bool(self.shared_with)

    @property
    def end(self) -> int:
        return self.start + len(self.pattern)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        marker = f" shared by {set(self.shared_with)}" if self.is_shared else ""
        return f"Segment[{self.start}:{self.end}]{self.pattern!r}{marker}"


@dataclass(frozen=True)
class QueryDecomposition:
    """A query's pattern split into plan segments, in stream order."""

    query_name: str
    segments: tuple[PlanSegment, ...]

    @property
    def shared_segments(self) -> tuple[PlanSegment, ...]:
        return tuple(s for s in self.segments if s.is_shared)


class SharingPlan:
    """An immutable set of sharing candidates (Definition 7)."""

    def __init__(self, candidates: Iterable[SharingCandidate] = ()) -> None:
        ordered = sorted(set(candidates), key=SharingCandidate.key)
        self._candidates: tuple[SharingCandidate, ...] = tuple(ordered)

    # -- container protocol ---------------------------------------------------------
    def __iter__(self) -> Iterator[SharingCandidate]:
        return iter(self._candidates)

    def __len__(self) -> int:
        return len(self._candidates)

    def __contains__(self, candidate: SharingCandidate) -> bool:
        return candidate in self._candidates

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SharingPlan):
            return NotImplemented
        return set(self._candidates) == set(other._candidates)

    def __hash__(self) -> int:
        return hash(frozenset(self._candidates))

    @property
    def candidates(self) -> tuple[SharingCandidate, ...]:
        return self._candidates

    @property
    def is_empty(self) -> bool:
        return not self._candidates

    # -- scoring and validity ----------------------------------------------------------
    @property
    def score(self) -> float:
        """Sum of candidate benefits (Definition 8)."""
        return float(sum(c.benefit for c in self._candidates))

    def is_valid(self, detector: ConflictDetector) -> bool:
        """Whether no two candidates of this plan are in conflict (Definition 7)."""
        candidates = self._candidates
        for i, first in enumerate(candidates):
            for second in candidates[i + 1 :]:
                if detector.in_conflict(first, second):
                    return False
        return True

    def union(self, other: "SharingPlan | Iterable[SharingCandidate]") -> "SharingPlan":
        extra = other.candidates if isinstance(other, SharingPlan) else tuple(other)
        return SharingPlan(self._candidates + tuple(extra))

    def add(self, candidate: SharingCandidate) -> "SharingPlan":
        return SharingPlan(self._candidates + (candidate,))

    # -- executor-facing view -------------------------------------------------------------
    def candidates_for_query(self, query_name: str) -> tuple[SharingCandidate, ...]:
        """Candidates of this plan that include ``query_name``."""
        return tuple(c for c in self._candidates if query_name in c.query_set)

    def decompose(self, workload: Workload) -> Mapping[str, QueryDecomposition]:
        """Decompose every workload query into shared and private segments.

        Raises
        ------
        ValueError
            If the plan assigns overlapping shared segments to a query, i.e.
            the plan is invalid for this workload.
        """
        decompositions: dict[str, QueryDecomposition] = {}
        for query in workload:
            decompositions[query.name] = self._decompose_query(query)
        return decompositions

    def _decompose_query(self, query: Query) -> QueryDecomposition:
        placements: list[PlanSegment] = []
        for candidate in self.candidates_for_query(query.name):
            start = query.pattern.find(candidate.pattern)
            if start < 0:
                raise ValueError(
                    f"plan candidate {candidate!r} does not occur in query {query.name!r}"
                )
            placements.append(
                PlanSegment(candidate.pattern, start, shared_with=candidate.query_names)
            )
        placements.sort(key=lambda seg: seg.start)
        for left, right in zip(placements, placements[1:]):
            if right.start < left.end:
                raise ValueError(
                    f"invalid plan: shared segments {left!r} and {right!r} overlap "
                    f"in query {query.name!r}"
                )

        segments: list[PlanSegment] = []
        cursor = 0
        for placement in placements:
            if placement.start > cursor:
                segments.append(
                    PlanSegment(query.pattern.subpattern(cursor, placement.start), cursor)
                )
            segments.append(placement)
            cursor = placement.end
        if cursor < len(query.pattern):
            segments.append(
                PlanSegment(query.pattern.subpattern(cursor, len(query.pattern)), cursor)
            )
        if not segments:
            segments.append(PlanSegment(query.pattern, 0))
        return QueryDecomposition(query.name, tuple(segments))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        inner = "; ".join(repr(c) for c in self._candidates)
        return f"SharingPlan{{{inner}}} score={self.score:g}"
