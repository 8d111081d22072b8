"""Unit tests for Sharon graph reduction (Algorithm 2)."""

from __future__ import annotations

import pytest

from repro.core import (
    SharingCandidate,
    SharonGraph,
    find_optimal_plan,
    reduce_sharon_graph,
    reduction_search_space_savings,
)
from repro.queries import Pattern


def candidate(index, benefit, queries=("q1", "q2")):
    return SharingCandidate(Pattern([f"A{index}", f"B{index}"]), tuple(queries), benefit)


def build_graph(weights, edges):
    vertices = [candidate(i, w) for i, w in enumerate(weights)]
    graph = SharonGraph(vertices)
    for i, j in edges:
        graph.add_edge(vertices[i], vertices[j])
    return graph, vertices


class TestReductionMechanics:
    def test_conflict_free_candidates_committed(self):
        graph, vertices = build_graph([5.0, 3.0, 2.0], [(1, 2)])
        result = reduce_sharon_graph(graph)
        assert vertices[0] in result.conflict_free
        assert vertices[0] not in result.reduced_graph
        assert result.guaranteed_weight == pytest.approx(graph.gwmin_guaranteed_weight())

    def test_input_graph_not_modified(self):
        graph, _ = build_graph([5.0, 3.0, 2.0], [(1, 2)])
        reduce_sharon_graph(graph)
        assert len(graph) == 3

    def test_conflict_ridden_candidate_pruned(self):
        # Vertex 0 is huge and conflict-free-ish (no conflicts); vertex 1 and 2
        # conflict with each other and are tiny, so any plan containing them
        # cannot reach the GWMIN guarantee driven by vertex 0 ... but since
        # they do not conflict with vertex 0, their Scoremax includes it.
        # Make them conflict with vertex 0 instead so Scoremax drops.
        graph, vertices = build_graph([100.0, 1.0, 1.0], [(0, 1), (0, 2)])
        result = reduce_sharon_graph(graph)
        # Guarantee ~ 100/3 + 1/2 + 1/2 = 34.33; Scoremax(v1) = 1 + 1 = 2 < 34.33.
        assert vertices[1] in result.conflict_ridden
        assert vertices[2] in result.conflict_ridden
        # After pruning both, vertex 0 becomes conflict-free and is committed.
        assert vertices[0] in result.conflict_free
        assert len(result.reduced_graph) == 0

    def test_cascading_reduction(self):
        # Pruning a conflict-ridden vertex can make another vertex conflict-free.
        graph, vertices = build_graph([50.0, 1.0, 40.0], [(0, 1), (1, 2)])
        result = reduce_sharon_graph(graph)
        # Guarantee = 50/2 + 1/3 + 40/2 = 45.33; Scoremax(v1) = 1 < 45.33 -> pruned;
        # then v0 and v2 become conflict-free.
        assert vertices[1] in result.conflict_ridden
        assert set(result.conflict_free) == {vertices[0], vertices[2]}

    def test_reduction_preserves_optimal_plan(self):
        # The optimal plan over the original graph equals the optimal plan over
        # the reduced graph united with the conflict-free set.
        graph, vertices = build_graph(
            [7.0, 6.0, 5.0, 12.0, 1.0],
            [(0, 1), (1, 2), (0, 2), (0, 4)],
        )
        result = reduce_sharon_graph(graph)
        optimal_reduced = find_optimal_plan(result.reduced_graph, result.conflict_free)

        # Brute-force optimum over the original graph.
        import itertools

        best = 0.0
        for size in range(len(vertices) + 1):
            for subset in itertools.combinations(vertices, size):
                if graph.is_independent_set(subset):
                    best = max(best, sum(v.benefit for v in subset))
        assert optimal_reduced.score == pytest.approx(best)


class TestReductionOnPaperExample:
    def test_example_7_and_8(self, paper_graph):
        """p3 is conflict-ridden (Scoremax 38 < 38.57); p7 is conflict-free."""
        result = reduce_sharon_graph(paper_graph)
        ridden = {v.pattern.event_types for v in result.conflict_ridden}
        free = {v.pattern.event_types for v in result.conflict_free}
        assert ("ParkAve", "OakSt", "MainSt") in ridden
        assert ("ElmSt", "ParkAve") in free
        # The remaining reduced graph holds the other five candidates at most.
        assert len(result.reduced_graph) <= 5

    def test_example_9_search_space_savings(self, paper_graph):
        """Example 9: pruning 7 -> 5 candidates removes 75.59% of the space."""
        result = reduce_sharon_graph(paper_graph)
        remaining = len(result.reduced_graph)
        savings = reduction_search_space_savings(len(paper_graph), remaining)
        assert remaining == 5
        assert savings == pytest.approx(0.7559, abs=1e-3)


class TestSavingsHelper:
    def test_zero_when_nothing_pruned(self):
        assert reduction_search_space_savings(5, 5) == 0.0

    def test_full_when_everything_pruned(self):
        assert reduction_search_space_savings(5, 0) == pytest.approx(1.0)

    def test_rejects_growth(self):
        with pytest.raises(ValueError):
            reduction_search_space_savings(3, 4)
