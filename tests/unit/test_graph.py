"""Unit tests for the Sharon graph (Definition 10, Algorithm 1)."""

from __future__ import annotations

import pytest

from repro.core import SharingCandidate, SharonGraph, build_sharon_graph
from repro.queries import Pattern
from repro.utils import RateCatalog

from ..conftest import PAPER_BENEFITS, paper_benefit


def candidate(types, queries, benefit=1.0):
    return SharingCandidate(Pattern(types), tuple(queries), benefit)


class TestSharonGraphBasics:
    def test_add_vertices_and_edges(self):
        a = candidate(["A", "B"], ["q1", "q2"], 5.0)
        b = candidate(["B", "C"], ["q1", "q2"], 3.0)
        graph = SharonGraph([a, b])
        graph.add_edge(a, b)
        assert len(graph) == 2
        assert graph.edge_count == 1
        assert graph.has_edge(a, b) and graph.has_edge(b, a)
        assert graph.neighbours(a) == (b,)
        assert graph.degree(a) == 1

    def test_duplicate_vertex_rejected(self):
        a = candidate(["A", "B"], ["q1", "q2"])
        graph = SharonGraph([a])
        with pytest.raises(ValueError, match="already present"):
            graph.add_vertex(a)

    def test_self_edge_rejected(self):
        a = candidate(["A", "B"], ["q1", "q2"])
        graph = SharonGraph([a])
        with pytest.raises(ValueError, match="itself"):
            graph.add_edge(a, a)

    def test_edge_requires_known_vertices(self):
        a = candidate(["A", "B"], ["q1", "q2"])
        b = candidate(["B", "C"], ["q1", "q2"])
        graph = SharonGraph([a])
        with pytest.raises(KeyError):
            graph.add_edge(a, b)

    def test_remove_vertex_removes_its_edges(self):
        a = candidate(["A", "B"], ["q1", "q2"], 5.0)
        b = candidate(["B", "C"], ["q1", "q2"], 3.0)
        graph = SharonGraph([a, b])
        graph.add_edge(a, b)
        graph.remove_vertex(a)
        assert len(graph) == 1
        assert graph.degree(b) == 0
        assert graph.edge_count == 0

    def test_copy_is_independent(self):
        a = candidate(["A", "B"], ["q1", "q2"], 5.0)
        b = candidate(["B", "C"], ["q1", "q2"], 3.0)
        graph = SharonGraph([a, b])
        graph.add_edge(a, b)
        clone = graph.copy()
        clone.remove_vertex(a)
        assert len(graph) == 2 and len(clone) == 1
        assert graph.degree(b) == 1

    def test_edges_reported_once_in_canonical_order(self):
        a = candidate(["A", "B"], ["q1", "q2"], 5.0)
        b = candidate(["B", "C"], ["q1", "q2"], 3.0)
        c = candidate(["C", "D"], ["q1", "q2"], 2.0)
        graph = SharonGraph([a, b, c])
        graph.add_edge(b, a)
        graph.add_edge(c, b)
        assert graph.edges == ((a, b), (b, c))


class TestGraphScores:
    def test_gwmin_guarantee(self):
        a = candidate(["A", "B"], ["q1", "q2"], 6.0)
        b = candidate(["B", "C"], ["q1", "q2"], 4.0)
        c = candidate(["X", "Y"], ["q3", "q4"], 10.0)
        graph = SharonGraph([a, b, c])
        graph.add_edge(a, b)
        # Equation 10: 6/2 + 4/2 + 10/1.
        assert graph.gwmin_guaranteed_weight() == pytest.approx(15.0)

    def test_max_score_with_excludes_neighbours(self):
        a = candidate(["A", "B"], ["q1", "q2"], 6.0)
        b = candidate(["B", "C"], ["q1", "q2"], 4.0)
        c = candidate(["X", "Y"], ["q3", "q4"], 10.0)
        graph = SharonGraph([a, b, c])
        graph.add_edge(a, b)
        assert graph.max_score_with(a) == 16.0  # a itself + c
        assert graph.max_score_with(c) == 20.0

    def test_is_independent_set(self):
        a = candidate(["A", "B"], ["q1", "q2"], 6.0)
        b = candidate(["B", "C"], ["q1", "q2"], 4.0)
        c = candidate(["X", "Y"], ["q3", "q4"], 10.0)
        graph = SharonGraph([a, b, c])
        graph.add_edge(a, b)
        assert graph.is_independent_set([a, c])
        assert not graph.is_independent_set([a, b])
        assert graph.is_independent_set([])


class TestBuildSharonGraph:
    def test_paper_graph_structure(self, paper_graph):
        """The graph of Figure 4: weights and degrees from the running example."""
        assert len(paper_graph) == 7
        assert paper_graph.edge_count == 10
        degrees = {}
        for vertex in paper_graph.vertices:
            assert vertex.benefit == PAPER_BENEFITS[vertex.pattern.event_types]
            degrees[vertex.pattern.event_types] = paper_graph.degree(vertex)
        assert degrees == {
            ("OakSt", "MainSt"): 5,
            ("ParkAve", "OakSt"): 3,
            ("ParkAve", "OakSt", "MainSt"): 4,
            ("MainSt", "WestSt"): 3,
            ("OakSt", "MainSt", "WestSt"): 4,
            ("MainSt", "StateSt"): 1,
            ("ElmSt", "ParkAve"): 0,
        }

    def test_paper_graph_guaranteed_weight(self, paper_graph):
        """Example 7: the GWMIN guarantee is about 38.57."""
        assert paper_graph.gwmin_guaranteed_weight() == pytest.approx(38.57, abs=0.01)

    def test_non_beneficial_candidates_excluded(self, traffic):
        # An override marking every candidate non-beneficial yields an empty graph.
        graph = build_sharon_graph(
            traffic, RateCatalog(default_rate=1.0), benefit_override=lambda c: 0.0
        )
        assert len(graph) == 0

    def test_benefit_model_weights_used_without_override(self, traffic):
        graph = build_sharon_graph(traffic, RateCatalog.uniform(traffic.event_types(), 1.0))
        assert all(vertex.benefit > 0 for vertex in graph.vertices)

    def test_override_prunes_selectively(self, traffic):
        keep = {("OakSt", "MainSt"), ("ElmSt", "ParkAve")}
        graph = build_sharon_graph(
            traffic,
            RateCatalog(default_rate=1.0),
            benefit_override=lambda c: 5.0 if c.pattern.event_types in keep else 0.0,
        )
        assert {v.pattern.event_types for v in graph.vertices} == keep
