"""Sharing candidates and sharable-pattern detection.

A *sharable pattern* is a contiguous sub-pattern of length > 1 appearing in
more than one query of the workload; together with the set of queries that
contain it, it forms a *sharing candidate* ``(p, Qp)`` (Definition 3).

Detection follows the modified CCSpan algorithm of Appendix A (Algorithm 7):
instead of mining only closed frequent sequences, every contiguous
sub-pattern of every query pattern is enumerated (shorter patterns can be
shared by more queries), and those occurring in at least two queries are
retained.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Mapping

from ..queries.pattern import Pattern
from ..queries.workload import Workload

__all__ = ["SharingCandidate", "detect_sharable_patterns", "build_candidates"]


@dataclass(frozen=True)
class SharingCandidate:
    """A sharable pattern together with the queries that would share it.

    Two candidates are equal when they agree on the pattern and on the set of
    query names; the benefit value is informational and excluded from
    equality so a candidate keeps its identity when rates change.

    Attributes
    ----------
    pattern:
        The shared pattern ``p``.
    query_names:
        Names of the queries in ``Qp``, in workload order.
    benefit:
        ``BValue(p, Qp)`` under the benefit model used to build the candidate
        (Equation 8); also the vertex weight in the Sharon graph.
    """

    pattern: Pattern
    query_names: tuple[str, ...]
    benefit: float = field(default=0.0, compare=False)

    def __post_init__(self) -> None:
        if len(self.pattern) < 2:
            raise ValueError(f"a sharable pattern has length > 1, got {self.pattern!r}")
        if len(self.query_names) < 2:
            raise ValueError(
                f"a sharing candidate needs at least two queries, got {self.query_names!r}"
            )
        if len(set(self.query_names)) != len(self.query_names):
            raise ValueError(f"duplicate query names in candidate: {self.query_names!r}")

    @property
    def query_set(self) -> frozenset[str]:
        return frozenset(self.query_names)

    def common_queries(self, other: "SharingCandidate") -> tuple[str, ...]:
        """Names of queries shared with ``other``, in this candidate's order."""
        common = self.query_set & other.query_set
        return tuple(name for name in self.query_names if name in common)

    def restricted_to(self, query_names: Iterable[str], benefit: float = 0.0) -> "SharingCandidate":
        """A candidate *option* sharing the same pattern among fewer queries.

        Used by sharing-conflict resolution (Section 7.1).  The relative order
        of query names is preserved.
        """
        keep = set(query_names)
        names = tuple(name for name in self.query_names if name in keep)
        return SharingCandidate(self.pattern, names, benefit)

    def with_benefit(self, benefit: float) -> "SharingCandidate":
        return SharingCandidate(self.pattern, self.query_names, benefit)

    def key(self) -> tuple:
        """Stable sort key: pattern types then query names."""
        return (self.pattern.event_types, self.query_names)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"({self.pattern!r}, {{{', '.join(self.query_names)}}}, benefit={self.benefit:g})"


def detect_sharable_patterns(workload: Workload) -> dict[Pattern, tuple[str, ...]]:
    """Modified CCSpan detection (Algorithm 7).

    Returns a mapping from each sharable pattern ``p`` (contiguous
    sub-pattern, length > 1, appearing in more than one query) to the names of
    the queries ``Qp`` that contain it, in workload order.

    Complexity is ``O(n * l^2)`` over ``n`` queries with patterns of maximal
    length ``l`` — linear in the workload size for bounded pattern lengths,
    as analysed in Appendix A.
    """
    occurrences: dict[Pattern, list[str]] = {}
    for query in workload:
        seen_in_query: set[Pattern] = set()
        for subpattern in query.pattern.contiguous_subpatterns(min_length=2):
            if subpattern in seen_in_query:
                continue  # count a query once even if the sub-pattern repeats
            seen_in_query.add(subpattern)
            occurrences.setdefault(subpattern, []).append(query.name)
    return {
        pattern: tuple(names)
        for pattern, names in occurrences.items()
        if len(names) > 1
    }


def build_candidates(
    workload: Workload,
    sharable: Mapping[Pattern, tuple[str, ...]] | None = None,
) -> list[SharingCandidate]:
    """Materialise :class:`SharingCandidate` objects for a workload.

    ``sharable`` may be passed to reuse a previous detection; benefits are
    left at zero — the graph builder assigns them from the benefit model.
    Candidates are returned in a deterministic order (sorted by pattern then
    query names).
    """
    if sharable is None:
        sharable = detect_sharable_patterns(workload)
    candidates = [
        SharingCandidate(pattern, names) for pattern, names in sharable.items()
    ]
    candidates.sort(key=SharingCandidate.key)
    return candidates
