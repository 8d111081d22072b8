"""Sharon graph reduction (Section 5, Algorithm 2).

Two classes of candidates are removed from the graph before the plan search:

* **Conflict-free candidates** (Definition 14) have no conflicts; they belong
  to *every* optimal plan, so they are committed immediately and removed.
* **Conflict-ridden candidates** (Definition 13) cannot belong to any optimal
  plan because even the best plan containing them (``Scoremax``,
  Definition 12) scores below the weight guaranteed by GWMIN (Equation 10).

Removing a vertex changes degrees and ``Scoremax`` values of the remaining
vertices, so the procedure iterates until a fixpoint, as in Algorithm 2.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .candidates import SharingCandidate
from .graph import SharonGraph
from .gwmin import gwmin_independent_set

__all__ = ["ReductionResult", "reduce_sharon_graph"]


@dataclass
class ReductionResult:
    """Outcome of the graph reduction step."""

    reduced_graph: SharonGraph
    conflict_free: list[SharingCandidate] = field(default_factory=list)
    conflict_ridden: list[SharingCandidate] = field(default_factory=list)
    guaranteed_weight: float = 0.0


def reduce_sharon_graph(
    graph: SharonGraph,
    guaranteed_weight: float | None = None,
) -> ReductionResult:
    """Algorithm 2: prune conflict-free and conflict-ridden candidates.

    Parameters
    ----------
    graph:
        The (possibly expanded) Sharon graph.  The input is not modified.
    guaranteed_weight:
        The GWMIN guarantee used as the pruning threshold.  Computed from the
        input graph (Equation 10) when omitted.

    Returns
    -------
    ReductionResult
        The reduced graph, the committed conflict-free candidates, the pruned
        conflict-ridden candidates, and the threshold used.

    Notes
    -----
    Conflict-free candidates are part of every optimal plan (they exclude no
    other candidate and have positive benefit); conflict-ridden candidates are
    part of none, because the GWMIN guarantee already exceeds the best plan
    that could contain them (Lemma 2).  Hence the reduction preserves the
    optimal plan of the original graph: it equals the optimal plan of the
    reduced graph united with the conflict-free set.
    """
    working = graph.copy()
    if guaranteed_weight is None:
        guaranteed_weight = working.gwmin_guaranteed_weight()

    conflict_free: list[SharingCandidate] = []
    conflict_ridden: list[SharingCandidate] = []

    changed = True
    while changed:
        changed = False
        for vertex in working.vertices:
            if working.degree(vertex) == 0:
                conflict_free.append(vertex)
                working.remove_vertex(vertex)
                changed = True
            elif working.max_score_with(vertex) + sum(c.benefit for c in conflict_free) < guaranteed_weight:
                conflict_ridden.append(vertex)
                working.remove_vertex(vertex)
                changed = True

    return ReductionResult(
        reduced_graph=working,
        conflict_free=conflict_free,
        conflict_ridden=conflict_ridden,
        guaranteed_weight=guaranteed_weight,
    )


def reduction_search_space_savings(
    original_vertex_count: int, reduced_vertex_count: int
) -> float:
    """Fraction of the plan search space removed by the reduction.

    The search space over ``n`` candidates has ``2^n`` plans (Equation 13);
    pruning down to ``m`` candidates removes ``2^n - 2^m`` of them.  Following
    the paper's accounting in Example 9 (96 of 127 plans, i.e. 75.59 % for the
    running example's 7 -> 5 reduction), the empty plan is excluded from the
    denominator.
    """
    if original_vertex_count < reduced_vertex_count:
        raise ValueError("the reduced graph cannot have more vertices than the original")
    total = 2 ** original_vertex_count - 1
    if total <= 0:
        return 0.0
    removed = 2 ** original_vertex_count - 2 ** reduced_vertex_count
    return removed / total
