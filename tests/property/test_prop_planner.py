"""Property-based tests for the optimizer's combinatorial core (hypothesis).

Random weighted conflict graphs are generated and the following invariants of
Sections 5 and 6 are checked:

* the plan finder's result equals the brute-force maximum weight independent
  set (optimality, Lemma 7);
* the GWMIN independent set respects its guaranteed weight (Equation 10);
* graph reduction never changes the optimum (conflict-free candidates are in
  every optimal plan, conflict-ridden ones in none);
* all plans generated level-wise are valid and unique (Lemmas 4-6).
"""

from __future__ import annotations

import itertools

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    SharingCandidate,
    SharonGraph,
    conflict_sets,
    find_optimal_plan,
    generate_next_level,
    gwmin_independent_set,
    reduce_sharon_graph,
)
from repro.queries import Pattern


@st.composite
def conflict_graphs(draw, max_vertices: int = 8):
    """Random weighted graphs over synthetic sharing candidates."""
    size = draw(st.integers(min_value=1, max_value=max_vertices))
    weights = draw(
        st.lists(
            st.floats(min_value=0.5, max_value=50.0, allow_nan=False),
            min_size=size,
            max_size=size,
        )
    )
    vertices = [
        SharingCandidate(Pattern([f"A{i}", f"B{i}"]), ("q1", "q2"), round(w, 2))
        for i, w in enumerate(weights)
    ]
    graph = SharonGraph(vertices)
    for i in range(size):
        for j in range(i + 1, size):
            if draw(st.booleans()):
                graph.add_edge(vertices[i], vertices[j])
    return graph


def brute_force_optimum(graph: SharonGraph) -> float:
    best = 0.0
    vertices = graph.vertices
    for size in range(len(vertices) + 1):
        for subset in itertools.combinations(vertices, size):
            if graph.is_independent_set(subset):
                best = max(best, sum(v.benefit for v in subset))
    return best


@settings(max_examples=60, deadline=None)
@given(conflict_graphs())
def test_plan_finder_is_optimal(graph):
    plan = find_optimal_plan(graph)
    assert graph.is_independent_set(plan.candidates)
    assert abs(plan.score - brute_force_optimum(graph)) < 1e-6


@settings(max_examples=60, deadline=None)
@given(conflict_graphs())
def test_gwmin_guarantee_and_independence(graph):
    selected = gwmin_independent_set(graph)
    assert graph.is_independent_set(selected)
    total = sum(v.benefit for v in selected)
    assert total >= graph.gwmin_guaranteed_weight() - 1e-9
    assert total <= brute_force_optimum(graph) + 1e-9


@settings(max_examples=60, deadline=None)
@given(conflict_graphs())
def test_reduction_preserves_optimum(graph):
    reduction = reduce_sharon_graph(graph)
    reduced_plan = find_optimal_plan(reduction.reduced_graph, reduction.conflict_free)
    assert abs(reduced_plan.score - brute_force_optimum(graph)) < 1e-6
    # Conflict-free candidates are disjoint from conflict-ridden ones.
    assert not (set(reduction.conflict_free) & set(reduction.conflict_ridden))


@settings(max_examples=40, deadline=None)
@given(conflict_graphs(max_vertices=7))
def test_level_generation_produces_exactly_the_valid_plans(graph):
    # Collect plans produced level-wise.
    produced = set()
    vertices, conflicts = conflict_sets(graph)
    level = [(index,) for index in range(len(vertices))]
    while level:
        for plan in level:
            key = frozenset(vertices[index] for index in plan)
            assert graph.is_independent_set(key)
            assert key not in produced, "level generation must not duplicate plans"
            produced.add(key)
        level = generate_next_level(conflicts, level)

    # Compare against brute-force enumeration of non-empty independent sets.
    expected = set()
    for size in range(1, len(vertices) + 1):
        for subset in itertools.combinations(vertices, size):
            if graph.is_independent_set(subset):
                expected.add(frozenset(subset))
    assert produced == expected
