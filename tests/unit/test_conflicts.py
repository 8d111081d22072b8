"""Unit tests for sharing conflict detection (Definition 6)."""

from __future__ import annotations

import pytest

from repro.core import ConflictDetector, SharingCandidate
from repro.events import SlidingWindow
from repro.queries import Pattern, Query, Workload


def make_workload(patterns: dict[str, tuple[str, ...]]) -> Workload:
    window = SlidingWindow(size=10, slide=5)
    return Workload(
        [Query(pattern=Pattern(types), window=window, name=name) for name, types in patterns.items()]
    )


class TestPatternConflictGeometry:
    def test_overlapping_placements_conflict(self):
        workload = make_workload({"q": ("ParkAve", "OakSt", "MainSt")})
        detector = ConflictDetector(workload)
        query = workload["q"]
        assert detector.patterns_conflict_in(
            query, Pattern(["ParkAve", "OakSt"]), Pattern(["OakSt", "MainSt"])
        )

    def test_disjoint_placements_do_not_conflict(self):
        workload = make_workload({"q": ("A", "B", "C", "D")})
        detector = ConflictDetector(workload)
        query = workload["q"]
        assert not detector.patterns_conflict_in(query, Pattern(["A", "B"]), Pattern(["C", "D"]))

    def test_pattern_absent_from_query_never_conflicts(self):
        workload = make_workload({"q": ("A", "B", "C")})
        detector = ConflictDetector(workload)
        query = workload["q"]
        assert not detector.patterns_conflict_in(query, Pattern(["A", "B"]), Pattern(["X", "Y"]))

    def test_repeated_occurrences_allow_coexistence(self):
        # (A, B) occurs twice; (B, C) overlaps only the first occurrence, so
        # both patterns can be carved out of the query without overlap.
        workload = make_workload({"q": ("A", "B", "C", "A", "B")})
        detector = ConflictDetector(workload)
        query = workload["q"]
        assert not detector.patterns_conflict_in(query, Pattern(["A", "B"]), Pattern(["B", "C"]))


class TestCandidateConflicts:
    def test_example_4_conflict(self):
        # p1 = (OakSt, MainSt) and p2 = (ParkAve, OakSt) conflict through q3, q4.
        workload = make_workload(
            {
                "q3": ("ParkAve", "OakSt", "MainSt"),
                "q4": ("ParkAve", "OakSt", "MainSt", "WestSt"),
            }
        )
        detector = ConflictDetector(workload)
        p1 = SharingCandidate(Pattern(["OakSt", "MainSt"]), ("q3", "q4"))
        p2 = SharingCandidate(Pattern(["ParkAve", "OakSt"]), ("q3", "q4"))
        assert detector.in_conflict(p1, p2)
        assert detector.causing_queries(p1, p2) == ("q3", "q4")
        conflict = detector.conflict(p1, p2)
        assert conflict is not None and conflict.other(p1) == p2

    def test_no_conflict_without_common_query(self):
        workload = make_workload(
            {
                "q1": ("A", "B", "C"),
                "q2": ("B", "C", "D"),
                "q3": ("C", "D", "E"),
            }
        )
        detector = ConflictDetector(workload)
        # (A, B) and (B, C) overlap, but the candidates below share no query,
        # so Definition 6 does not apply.
        first = SharingCandidate(Pattern(["A", "B"]), ("q1", "q2"))
        second = SharingCandidate(Pattern(["C", "D"]), ("q2", "q3"))
        conflicting = SharingCandidate(Pattern(["B", "C"]), ("q1", "q2"))
        assert not detector.in_conflict(first, second)
        assert detector.in_conflict(first, conflicting)
        # The conflict is caused only by q1, where both patterns actually
        # occur and overlap; q2 does not contain (A, B) at all.
        assert detector.causing_queries(first, conflicting) == ("q1",)

    def test_same_pattern_options_conflict_only_on_common_queries(self):
        workload = make_workload(
            {
                "q1": ("A", "B", "C"),
                "q2": ("A", "B", "D"),
                "q3": ("A", "B", "E"),
                "q4": ("A", "B", "F"),
            }
        )
        detector = ConflictDetector(workload)
        first = SharingCandidate(Pattern(["A", "B"]), ("q1", "q2"))
        second = SharingCandidate(Pattern(["A", "B"]), ("q3", "q4"))
        overlapping = SharingCandidate(Pattern(["A", "B"]), ("q2", "q3"))
        assert not detector.in_conflict(first, second)
        assert detector.in_conflict(first, overlapping)
        assert detector.causing_queries(first, overlapping) == ("q2",)

    def test_candidate_not_in_conflict_with_itself(self):
        workload = make_workload({"q1": ("A", "B", "C"), "q2": ("A", "B", "D")})
        detector = ConflictDetector(workload)
        candidate = SharingCandidate(Pattern(["A", "B"]), ("q1", "q2"))
        assert not detector.in_conflict(candidate, candidate)
