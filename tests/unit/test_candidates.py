"""Unit tests for sharing candidates and sharable-pattern detection."""

from __future__ import annotations

import pytest

from repro.core import SharingCandidate, build_candidates, detect_sharable_patterns
from repro.events import SlidingWindow
from repro.queries import Pattern, Query, Workload


class TestSharingCandidate:
    def test_construction_constraints(self):
        SharingCandidate(Pattern(["A", "B"]), ("q1", "q2"))
        with pytest.raises(ValueError, match="length > 1"):
            SharingCandidate(Pattern(["A"]), ("q1", "q2"))
        with pytest.raises(ValueError, match="two queries"):
            SharingCandidate(Pattern(["A", "B"]), ("q1",))
        with pytest.raises(ValueError, match="duplicate"):
            SharingCandidate(Pattern(["A", "B"]), ("q1", "q1"))

    def test_benefit_excluded_from_equality(self):
        a = SharingCandidate(Pattern(["A", "B"]), ("q1", "q2"), benefit=5.0)
        b = SharingCandidate(Pattern(["A", "B"]), ("q1", "q2"), benefit=9.0)
        assert a == b
        assert hash(a) == hash(b)
        assert a.with_benefit(2.0).benefit == 2.0

    def test_query_set_operations(self):
        a = SharingCandidate(Pattern(["A", "B"]), ("q1", "q2", "q3"))
        b = SharingCandidate(Pattern(["B", "C"]), ("q3", "q4"))
        c = SharingCandidate(Pattern(["C", "D"]), ("q5", "q6"))
        assert a.common_queries(b) == ("q3",)

    def test_restricted_to_preserves_order(self):
        candidate = SharingCandidate(Pattern(["A", "B"]), ("q1", "q2", "q3"))
        option = candidate.restricted_to(["q3", "q1"], benefit=4.0)
        assert option.query_names == ("q1", "q3")
        assert option.benefit == 4.0
        assert option.pattern == candidate.pattern


def _workload(patterns: dict[str, tuple[str, ...]]) -> Workload:
    window = SlidingWindow(size=10, slide=5)
    return Workload(
        [Query(pattern=Pattern(types), window=window, name=name) for name, types in patterns.items()]
    )


class TestDetection:
    def test_detects_shared_subpatterns(self):
        workload = _workload({"q1": ("A", "B", "C"), "q2": ("B", "C", "D"), "q3": ("X", "Y")})
        sharable = detect_sharable_patterns(workload)
        assert sharable == {Pattern(["B", "C"]): ("q1", "q2")}

    def test_no_sharing_in_disjoint_workload(self):
        workload = _workload({"q1": ("A", "B"), "q2": ("C", "D")})
        assert detect_sharable_patterns(workload) == {}

    def test_length_one_patterns_never_sharable(self):
        workload = _workload({"q1": ("A", "B"), "q2": ("B", "C")})
        sharable = detect_sharable_patterns(workload)
        assert Pattern(["B"]) not in sharable
        assert sharable == {}

    def test_repeated_subpattern_in_one_query_counted_once(self):
        workload = _workload({"q1": ("A", "B", "A", "B"), "q2": ("A", "B", "C")})
        sharable = detect_sharable_patterns(workload)
        assert sharable[Pattern(["A", "B"])] == ("q1", "q2")

    def test_traffic_workload_reproduces_table_1(self, traffic):
        sharable = detect_sharable_patterns(traffic)
        expected = {
            Pattern(["OakSt", "MainSt"]): ("q1", "q2", "q3", "q4"),
            Pattern(["ParkAve", "OakSt"]): ("q3", "q4"),
            Pattern(["ParkAve", "OakSt", "MainSt"]): ("q3", "q4"),
            Pattern(["MainSt", "WestSt"]): ("q2", "q4"),
            Pattern(["OakSt", "MainSt", "WestSt"]): ("q2", "q4"),
            Pattern(["MainSt", "StateSt"]): ("q1", "q5"),
            Pattern(["ElmSt", "ParkAve"]): ("q6", "q7"),
        }
        assert sharable == expected

    def test_build_candidates_sorted_and_reusable(self, traffic):
        candidates = build_candidates(traffic)
        assert len(candidates) == 7
        assert candidates == sorted(candidates, key=SharingCandidate.key)
        # Passing a precomputed detection gives the same candidates.
        assert build_candidates(traffic, detect_sharable_patterns(traffic)) == candidates
