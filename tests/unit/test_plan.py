"""Unit tests for sharing plans and their executor-facing decomposition."""

from __future__ import annotations

import pytest

from repro.core import ConflictDetector, SharingCandidate, SharingPlan
from repro.events import SlidingWindow
from repro.queries import Pattern, Query, Workload


def candidate(types, queries, benefit=1.0):
    return SharingCandidate(Pattern(types), tuple(queries), benefit)


def make_workload():
    window = SlidingWindow(size=10, slide=5)
    patterns = {
        "q1": ("A", "B", "C", "D"),
        "q2": ("B", "C", "E"),
        "q3": ("X", "B", "C"),
    }
    return Workload(
        [Query(pattern=Pattern(p), window=window, name=n) for n, p in patterns.items()]
    )


class TestSharingPlanBasics:
    def test_deduplicates_and_sorts(self):
        a = candidate(["A", "B"], ["q1", "q2"], 2.0)
        plan = SharingPlan([a, a])
        assert len(plan) == 1
        assert a in plan

    def test_score_is_sum_of_benefits(self):
        plan = SharingPlan(
            [candidate(["A", "B"], ["q1", "q2"], 2.0), candidate(["C", "D"], ["q3", "q4"], 5.0)]
        )
        assert plan.score == 7.0
        assert SharingPlan().score == 0.0
        assert SharingPlan().is_empty

    def test_equality_and_hash_are_structural(self):
        a = candidate(["A", "B"], ["q1", "q2"], 2.0)
        b = candidate(["C", "D"], ["q3", "q4"], 5.0)
        assert SharingPlan([a, b]) == SharingPlan([b, a])
        assert hash(SharingPlan([a, b])) == hash(SharingPlan([b, a]))

    def test_union_and_add(self):
        a = candidate(["A", "B"], ["q1", "q2"], 2.0)
        b = candidate(["C", "D"], ["q3", "q4"], 5.0)
        assert len(SharingPlan([a]).union(SharingPlan([b]))) == 2
        assert len(SharingPlan([a]).add(b)) == 2

    def test_candidates_for_query(self):
        a = candidate(["A", "B"], ["q1", "q2"], 2.0)
        b = candidate(["C", "D"], ["q3", "q4"], 5.0)
        plan = SharingPlan([a, b])
        assert plan.candidates_for_query("q1") == (a,)
        assert plan.candidates_for_query("q9") == ()


class TestPlanValidity:
    def test_validity_via_detector(self):
        workload = make_workload()
        detector = ConflictDetector(workload)
        bc = candidate(["B", "C"], ["q1", "q2", "q3"], 3.0)
        cd = candidate(["C", "D"], ["q1", "q2"], 2.0)  # overlaps (B, C) in q1
        ab = candidate(["A", "B"], ["q1", "q3"], 2.0)
        assert SharingPlan([bc]).is_valid(detector)
        assert not SharingPlan([bc, cd]).is_valid(detector)
        assert not SharingPlan([bc, ab]).is_valid(detector)
        assert SharingPlan([cd]).is_valid(detector)

    def test_example_5_plan_scores(self, paper_graph):
        """Example 5: {p2, p4} is valid with score 24; {p1} scores 25."""
        by_pattern = {v.pattern.event_types: v for v in paper_graph.vertices}
        p2_p4 = SharingPlan(
            [by_pattern[("ParkAve", "OakSt")], by_pattern[("MainSt", "WestSt")]]
        )
        p1 = SharingPlan([by_pattern[("OakSt", "MainSt")]])
        assert p2_p4.score == pytest.approx(24.0)
        assert p1.score == pytest.approx(25.0)


class TestDecomposition:
    def test_decompose_splits_into_segments(self):
        workload = make_workload()
        bc = candidate(["B", "C"], ["q1", "q2", "q3"], 3.0)
        plan = SharingPlan([bc])
        decompositions = plan.decompose(workload)

        q1 = decompositions["q1"]
        assert [seg.pattern.event_types for seg in q1.segments] == [("A",), ("B", "C"), ("D",)]
        assert [seg.is_shared for seg in q1.segments] == [False, True, False]
        assert q1.shared_segments[0].shared_with == ("q1", "q2", "q3")

        q2 = decompositions["q2"]
        assert [seg.pattern.event_types for seg in q2.segments] == [("B", "C"), ("E",)]

        q3 = decompositions["q3"]
        assert [seg.pattern.event_types for seg in q3.segments] == [("X",), ("B", "C")]

    def test_empty_plan_keeps_whole_pattern(self):
        workload = make_workload()
        decompositions = SharingPlan().decompose(workload)
        for query in workload:
            decomposition = decompositions[query.name]
            assert len(decomposition.segments) == 1
            assert decomposition.segments[0].pattern == query.pattern
            assert not decomposition.shared_segments

    def test_multiple_shared_segments_in_one_query(self):
        window = SlidingWindow(size=10, slide=5)
        workload = Workload(
            [
                Query(pattern=Pattern(["A", "B", "C", "D"]), window=window, name="q1"),
                Query(pattern=Pattern(["A", "B", "X"]), window=window, name="q2"),
                Query(pattern=Pattern(["Y", "C", "D"]), window=window, name="q3"),
            ]
        )
        plan = SharingPlan(
            [candidate(["A", "B"], ["q1", "q2"], 1.0), candidate(["C", "D"], ["q1", "q3"], 1.0)]
        )
        decomposition = plan.decompose(workload)["q1"]
        assert [seg.pattern.event_types for seg in decomposition.segments] == [
            ("A", "B"),
            ("C", "D"),
        ]
        assert all(seg.is_shared for seg in decomposition.segments)

    def test_overlapping_shared_segments_rejected(self):
        workload = make_workload()
        plan = SharingPlan(
            [
                candidate(["B", "C"], ["q1", "q2"], 1.0),
                candidate(["C", "D"], ["q1", "q2"], 1.0),
            ]
        )
        with pytest.raises(ValueError, match="overlap"):
            plan.decompose(workload)

    def test_candidate_absent_from_query_rejected(self):
        workload = make_workload()
        plan = SharingPlan([candidate(["Z", "W"], ["q1", "q2"], 1.0)])
        with pytest.raises(ValueError, match="does not occur"):
            plan.decompose(workload)
