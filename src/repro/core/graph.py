"""The Sharon graph (Definition 10, Algorithm 1).

Vertices are beneficial sharing candidates weighted by their benefit values;
undirected edges connect candidates that are in sharing conflict.  The graph
is stored as an adjacency list, exactly as the paper prescribes, so that the
neighbours of a candidate — its conflicts — can be retrieved efficiently
during reduction and planning.
"""

from __future__ import annotations

from typing import Callable, Iterable, Iterator, Mapping

from ..queries.pattern import Pattern
from ..queries.workload import Workload
from ..utils.rates import RateCatalog
from .benefit import BenefitModel
from .candidates import SharingCandidate, build_candidates, detect_sharable_patterns
from .conflicts import ConflictDetector

__all__ = ["SharonGraph", "build_sharon_graph"]


class SharonGraph:
    """A weighted undirected graph over sharing candidates."""

    def __init__(self, vertices: Iterable[SharingCandidate] = ()) -> None:
        self._adjacency: dict[SharingCandidate, set[SharingCandidate]] = {}
        for vertex in vertices:
            self.add_vertex(vertex)

    # -- construction -----------------------------------------------------------
    def add_vertex(self, vertex: SharingCandidate) -> None:
        if vertex in self._adjacency:
            raise ValueError(f"vertex {vertex!r} already present in the Sharon graph")
        self._adjacency[vertex] = set()

    def add_edge(self, first: SharingCandidate, second: SharingCandidate) -> None:
        if first == second:
            raise ValueError("a sharing candidate cannot conflict with itself")
        if first not in self._adjacency or second not in self._adjacency:
            raise KeyError("both endpoints must be vertices of the graph")
        self._adjacency[first].add(second)
        self._adjacency[second].add(first)

    def remove_vertex(self, vertex: SharingCandidate) -> None:
        """Remove a vertex and all its conflict edges."""
        neighbours = self._adjacency.pop(vertex)
        for neighbour in neighbours:
            self._adjacency[neighbour].discard(vertex)

    def copy(self) -> "SharonGraph":
        clone = SharonGraph()
        clone._adjacency = {v: set(ns) for v, ns in self._adjacency.items()}
        return clone

    # -- queries -------------------------------------------------------------------
    @property
    def vertices(self) -> tuple[SharingCandidate, ...]:
        return tuple(sorted(self._adjacency, key=SharingCandidate.key))

    def __iter__(self) -> Iterator[SharingCandidate]:
        return iter(self.vertices)

    def __len__(self) -> int:
        return len(self._adjacency)

    def __contains__(self, vertex: SharingCandidate) -> bool:
        return vertex in self._adjacency

    @property
    def edges(self) -> tuple[tuple[SharingCandidate, SharingCandidate], ...]:
        """Each conflict edge reported once, endpoints in sort order."""
        seen = set()
        result = []
        for vertex, neighbours in self._adjacency.items():
            for neighbour in neighbours:
                key = frozenset((vertex, neighbour))
                if key in seen:
                    continue
                seen.add(key)
                pair = tuple(sorted((vertex, neighbour), key=SharingCandidate.key))
                result.append((pair[0], pair[1]))
        result.sort(key=lambda pair: (pair[0].key(), pair[1].key()))
        return tuple(result)

    @property
    def edge_count(self) -> int:
        return sum(len(ns) for ns in self._adjacency.values()) // 2

    def neighbours(self, vertex: SharingCandidate) -> tuple[SharingCandidate, ...]:
        """The candidates in conflict with ``vertex`` (``N(v)``)."""
        return tuple(sorted(self._adjacency[vertex], key=SharingCandidate.key))

    def degree(self, vertex: SharingCandidate) -> int:
        return len(self._adjacency[vertex])

    def has_edge(self, first: SharingCandidate, second: SharingCandidate) -> bool:
        return second in self._adjacency.get(first, ())

    # -- MWIS-related quantities -------------------------------------------------------
    def gwmin_guaranteed_weight(self) -> float:
        """The GWMIN lower bound ``Σ_v weight(v) / (degree(v)+1)`` (Equation 10)."""
        return float(
            sum(vertex.benefit / (self.degree(vertex) + 1) for vertex in self._adjacency)
        )

    def max_score_with(self, vertex: SharingCandidate) -> float:
        """``Scoremax(v)`` (Definition 12): total benefit of ``V \\ N(v)``.

        The best any plan containing ``v`` can do is include every candidate
        not in conflict with ``v`` (including ``v`` itself).
        """
        excluded = self._adjacency[vertex]
        return float(
            sum(candidate.benefit for candidate in self._adjacency if candidate not in excluded)
        )

    def is_independent_set(self, vertices: Iterable[SharingCandidate]) -> bool:
        chosen = list(vertices)
        for i, first in enumerate(chosen):
            for second in chosen[i + 1 :]:
                if self.has_edge(first, second):
                    return False
        return True

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"SharonGraph({len(self)} candidates, {self.edge_count} conflicts)"


def build_sharon_graph(
    workload: Workload,
    rates: "RateCatalog | BenefitModel",
    sharable: Mapping[Pattern, tuple[str, ...]] | None = None,
    benefit_override: Callable[[SharingCandidate], float] | None = None,
) -> SharonGraph:
    """Sharon graph construction (Algorithm 1).

    Parameters
    ----------
    workload:
        The query workload ``Q``.
    rates:
        A rate catalog (a default :class:`BenefitModel` is built from it) or
        an explicit benefit model.
    sharable:
        Optional pre-computed sharable-pattern table (Algorithm 7 output); it
        is detected from the workload when omitted.
    benefit_override:
        Optional callable replacing the model's benefit values — used by unit
        tests that pin the exact vertex weights of the paper's running
        example.  Candidates whose override is not strictly positive are
        pruned, mirroring non-beneficial pruning.

    Returns
    -------
    SharonGraph
        Vertices are beneficial candidates, edges are sharing conflicts.
    """
    model = rates if isinstance(rates, BenefitModel) else BenefitModel(rates)
    if sharable is None:
        sharable = detect_sharable_patterns(workload)
    raw_candidates = build_candidates(workload, sharable)

    if benefit_override is not None:
        weighted = []
        for candidate in raw_candidates:
            value = benefit_override(candidate)
            if value > 0:
                weighted.append(candidate.with_benefit(value))
    else:
        weighted = model.evaluate_candidates(workload, raw_candidates)

    graph = SharonGraph(weighted)
    detector = ConflictDetector(workload)
    vertices = graph.vertices
    for i, first in enumerate(vertices):
        for second in vertices[i + 1 :]:
            if detector.in_conflict(first, second):
                graph.add_edge(first, second)
    return graph
