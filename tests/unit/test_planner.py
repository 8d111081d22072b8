"""Unit tests for the sharing plan finder (Algorithms 3 and 4)."""

from __future__ import annotations

import itertools
import random

import pytest

from repro.core import (
    PlanSearchStatistics,
    SharingCandidate,
    SharonGraph,
    conflict_sets,
    find_optimal_plan,
    generate_next_level,
)
from repro.queries import Pattern

from ..reference import enumerate_valid_plans


def candidate(index, benefit, queries=("q1", "q2")):
    return SharingCandidate(Pattern([f"A{index}", f"B{index}"]), tuple(queries), benefit)


def build_graph(weights, edges):
    vertices = [candidate(i, w) for i, w in enumerate(weights)]
    graph = SharonGraph(vertices)
    for i, j in edges:
        graph.add_edge(vertices[i], vertices[j])
    return graph, vertices


def levels(graph: SharonGraph, count: int):
    """The first ``count`` levels of the valid plan space, as candidate tuples."""
    vertices, conflicts = conflict_sets(graph)
    level = [(index,) for index in range(len(vertices))]
    found = []
    for _ in range(count):
        found.append([tuple(vertices[index] for index in plan) for plan in level])
        level = generate_next_level(conflicts, level)
    return found


class TestLevelGeneration:
    def test_base_case_pairs_of_non_adjacent_vertices(self):
        graph, vertices = build_graph([1.0, 2.0, 3.0], [(0, 1)])
        _level_one, level_two = levels(graph, 2)
        pairs = {frozenset(plan) for plan in level_two}
        expected_allowed = {
            frozenset((vertices[0], vertices[2])),
            frozenset((vertices[1], vertices[2])),
        }
        assert pairs == expected_allowed

    def test_inductive_case_requires_shared_prefix(self):
        graph, vertices = build_graph([1.0, 2.0, 3.0, 4.0], [])
        level_three = levels(graph, 3)[-1]
        assert {frozenset(p) for p in level_three} == {
            frozenset(c) for c in itertools.combinations(vertices, 3)
        }

    def test_lemma_6_join_rejects_conflicting_last_candidates(self):
        graph, vertices = build_graph([1.0, 2.0, 3.0], [(1, 2)])
        level_three = levels(graph, 3)[-1]
        assert level_three == []  # {v0, v1, v2} would need the conflicting pair (v1, v2)

    def test_every_generated_plan_is_valid(self):
        rng = random.Random(1)
        weights = [float(i + 1) for i in range(7)]
        edges = [(i, j) for i in range(7) for j in range(i + 1, 7) if rng.random() < 0.3]
        graph, _ = build_graph(weights, edges)
        vertices, conflicts = conflict_sets(graph)
        level = [(index,) for index in range(len(vertices))]
        while level:
            assert level == sorted(level), "children must stay in lexicographic order"
            for plan in level:
                assert graph.is_independent_set(vertices[index] for index in plan)
            level = generate_next_level(conflicts, level)

    @pytest.mark.parametrize("seed", range(8))
    def test_index_join_matches_the_candidate_join(self, seed):
        """Same plans in the same order at every level: the order decides the finder's ties."""

        def candidate_join(graph, parents):
            """Algorithm 3 over candidate tuples, one ``has_edge`` per pair (the reference)."""
            children = []
            for i, left in enumerate(parents):
                for right in parents[i + 1 :]:
                    if left[:-1] != right[:-1]:
                        break
                    if not graph.has_edge(left[-1], right[-1]):
                        children.append(left + (right[-1],))
            return children

        rng = random.Random(seed)
        size = rng.randint(5, 9)
        density = rng.choice((0.1, 0.3, 0.5))
        weights = [float(rng.randint(1, 4)) for _ in range(size)]  # ties on purpose
        edges = [
            (i, j) for i in range(size) for j in range(i + 1, size) if rng.random() < density
        ]
        graph, _ = build_graph(weights, edges)
        expected = [(vertex,) for vertex in graph.vertices]
        for level in levels(graph, size + 1):
            assert level == expected
            expected = candidate_join(graph, expected)
        assert expected == []

    def test_conflict_sets_number_the_sorted_vertices(self):
        graph, vertices = build_graph([1.0, 2.0, 3.0], [(0, 2)])
        ordered, conflicts = conflict_sets(graph)
        assert ordered == graph.vertices
        position = {vertex: index for index, vertex in enumerate(ordered)}
        first, last = position[vertices[0]], position[vertices[2]]
        assert conflicts[first] == {last} and conflicts[last] == {first}
        assert conflicts[position[vertices[1]]] == frozenset()


class TestFindOptimalPlan:
    def test_empty_graph_returns_conflict_free_only(self):
        free = [candidate(99, 7.0)]
        plan = find_optimal_plan(SharonGraph(), free)
        assert plan.score == 7.0
        assert len(plan) == 1

    def test_matches_brute_force_on_small_graphs(self):
        rng = random.Random(7)
        for trial in range(12):
            size = rng.randint(2, 7)
            weights = [round(rng.uniform(1, 20), 1) for _ in range(size)]
            edges = [
                (i, j)
                for i in range(size)
                for j in range(i + 1, size)
                if rng.random() < 0.4
            ]
            graph, _ = build_graph(weights, edges)
            plan = find_optimal_plan(graph)
            best = max(valid.score for valid in enumerate_valid_plans(graph))
            assert plan.score == pytest.approx(best), (
                f"trial {trial}: weights={weights} edges={edges}"
            )

    @pytest.mark.parametrize("seed", range(8))
    def test_scores_exactly_the_valid_plans(self, seed):
        """Lemmas 4 and 7: every valid plan is scored once, and no invalid one."""
        rng = random.Random(seed)
        size = rng.randint(3, 8)
        weights = [float(rng.randint(1, 9)) for _ in range(size)]
        edges = [(i, j) for i in range(size) for j in range(i + 1, size) if rng.random() < 0.4]
        graph, _ = build_graph(weights, edges)
        stats = PlanSearchStatistics()
        plan = find_optimal_plan(graph, statistics=stats)
        valid = enumerate_valid_plans(graph)
        assert stats.plans_considered == len(valid) - 1  # all but the empty plan
        assert stats.levels == max(len(candidate) for candidate in valid)
        assert plan.score == max(candidate.score for candidate in valid)

    def test_statistics_populated(self):
        graph, _ = build_graph([1.0, 2.0, 3.0], [(0, 1)])
        stats = PlanSearchStatistics()
        find_optimal_plan(graph, statistics=stats)
        assert stats.candidates == 3
        assert stats.plans_considered >= 3
        assert stats.levels >= 1
        assert stats.peak_level_width >= 2

    def test_conflict_free_candidates_added_to_result(self):
        graph, vertices = build_graph([5.0, 4.0], [(0, 1)])
        free = [candidate(50, 9.0, queries=("q8", "q9"))]
        plan = find_optimal_plan(graph, free)
        assert plan.score == pytest.approx(14.0)
        assert free[0] in plan

    def test_paper_example_optimal_plan(self, paper_graph):
        """Example 10/12: the optimal plan is {p2, p4, p6, p7} with score 50."""
        from repro.core import reduce_sharon_graph

        reduction = reduce_sharon_graph(paper_graph)
        plan = find_optimal_plan(reduction.reduced_graph, reduction.conflict_free)
        chosen = {c.pattern.event_types for c in plan}
        assert chosen == {
            ("ParkAve", "OakSt"),
            ("MainSt", "WestSt"),
            ("MainSt", "StateSt"),
            ("ElmSt", "ParkAve"),
        }
        assert plan.score == pytest.approx(50.0)


class TestEnumerateValidPlans:
    def test_counts_on_paper_example(self, paper_graph):
        """Example 10: the valid space of the running example has 10 non-empty plans
        over the reduced graph (plus the empty plan)."""
        from repro.core import reduce_sharon_graph

        reduction = reduce_sharon_graph(paper_graph)
        plans = enumerate_valid_plans(reduction.reduced_graph)
        non_empty = [p for p in plans if len(p) > 0]
        assert len(non_empty) == 10

    def test_all_enumerated_plans_are_valid_and_unique(self):
        graph, _ = build_graph([1.0, 2.0, 3.0, 4.0], [(0, 1), (2, 3)])
        plans = enumerate_valid_plans(graph)
        assert len({frozenset(p.candidates) for p in plans}) == len(plans)
        for plan in plans:
            assert graph.is_independent_set(plan.candidates)
