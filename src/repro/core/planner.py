"""The sharing plan finder (Section 6, Algorithms 3 and 4).

The search space of sharing plans over ``n`` candidates is the lattice of all
``2^n`` subsets (Equation 13).  The finder traverses only the *valid* portion
of that lattice breadth-first: level ``s`` holds all valid plans of size
``s`` and level ``s+1`` is generated Apriori-style by joining two parents
that agree on their first ``s-1`` candidates and whose last candidates are
not in conflict (Lemma 6).  Invalid branches are therefore cut at their roots
(Lemma 4), and every valid plan is still generated (Lemma 7), so the plan of
maximal score found during the traversal is optimal for the input graph.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .candidates import SharingCandidate
from .graph import SharonGraph
from .plan import SharingPlan

__all__ = [
    "PlanSearchStatistics",
    "conflict_sets",
    "generate_next_level",
    "find_optimal_plan",
]


@dataclass
class PlanSearchStatistics:
    """Counters describing one run of the plan finder.

    ``plans_considered`` counts every valid plan whose score was evaluated;
    ``levels`` is the size of the largest valid plan found; ``peak_level_width``
    is the maximum number of plans held at any level, which bounds the
    finder's memory (it keeps only one level at a time).
    """

    plans_considered: int = 0
    levels: int = 0
    peak_level_width: int = 0
    candidates: int = 0

    def observe_level(self, width: int) -> None:
        self.levels += 1
        self.peak_level_width = max(self.peak_level_width, width)


#: Internal plan representation during the search: a tuple of vertex indices
#: (positions in the graph's sorted vertex order) in increasing order, so that
#: two plans share a prefix exactly when they agree on their first elements.
_PlanTuple = tuple[int, ...]


def conflict_sets(
    graph: SharonGraph,
) -> tuple[tuple[SharingCandidate, ...], list[frozenset[int]]]:
    """Number the graph's sorted vertices and index their conflicts once.

    Returns the vertices in canonical order and, per vertex index, the set of
    indices it is in conflict with — the only graph access the level-wise
    join needs, as plain integers instead of candidate hashes.
    """
    vertices = graph.vertices
    index = {vertex: position for position, vertex in enumerate(vertices)}
    conflicts = [
        frozenset(index[other] for other in graph.neighbours(vertex)) for vertex in vertices
    ]
    return vertices, conflicts


def generate_next_level(
    conflicts: "list[frozenset[int]]", parents: list[_PlanTuple]
) -> list[_PlanTuple]:
    """Algorithm 3: generate all valid plans of size ``s+1`` from level ``s``.

    Parents must be valid plans of equal size, as increasing vertex-index
    tuples in lexicographic order; ``conflicts[i]`` holds the indices vertex
    ``i`` conflicts with (:func:`conflict_sets`).  In the base case (size-1
    parents) the children are all non-adjacent vertex pairs; in the inductive
    case two parents sharing their first ``s-1`` vertices are joined if their
    distinct last vertices are not in conflict (Lemma 6 guarantees the join
    is valid).  Children come out in lexicographic order again.
    """
    children: list[_PlanTuple] = []
    append = children.append
    count = len(parents)
    start = 0
    while start < count:
        # Parents are sorted lexicographically, so the plans sharing a prefix
        # form one contiguous run; only pairs inside a run can be joined.
        prefix = parents[start][:-1]
        end = start + 1
        while end < count and parents[end][:-1] == prefix:
            end += 1
        lasts = [parent[-1] for parent in parents[start:end]]
        for offset in range(len(lasts) - 1):
            left = parents[start + offset]
            blocked = conflicts[lasts[offset]]
            for last in lasts[offset + 1 :]:
                if last not in blocked:
                    append(left + (last,))
        start = end
    return children


def _valid_levels(conflicts: "list[frozenset[int]]"):
    """Yield every level of the valid plan space, smallest plans first."""
    # Level 1: single candidates (always valid, Definition 7).
    level: list[_PlanTuple] = [(index,) for index in range(len(conflicts))]
    while level:
        yield level
        level = generate_next_level(conflicts, level)


def find_optimal_plan(
    graph: SharonGraph,
    conflict_free: "list[SharingCandidate] | tuple[SharingCandidate, ...]" = (),
    statistics: PlanSearchStatistics | None = None,
) -> SharingPlan:
    """Algorithm 4: breadth-first traversal of the valid plan space.

    Parameters
    ----------
    graph:
        The (reduced) Sharon graph to search.
    conflict_free:
        Candidates already committed by the reduction step; they are united
        with the best plan found (they conflict with nothing, so the union
        stays valid).
    statistics:
        Optional mutable statistics collector.

    Returns
    -------
    SharingPlan
        A valid plan of maximal score over the graph's candidates, united
        with ``conflict_free``.
    """
    stats = statistics if statistics is not None else PlanSearchStatistics()
    vertices, conflicts = conflict_sets(graph)
    stats.candidates = len(vertices)
    benefits = [vertex.benefit for vertex in vertices]

    best: _PlanTuple = ()
    best_score = 0.0
    for level in _valid_levels(conflicts):
        stats.observe_level(len(level))
        stats.plans_considered += len(level)
        for plan in level:
            score = sum(benefits[index] for index in plan)
            if score > best_score:
                best = plan
                best_score = score

    chosen = SharingPlan(tuple(vertices[index] for index in best))
    return chosen.union(SharingPlan(tuple(conflict_free)))
