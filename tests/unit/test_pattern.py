"""Unit tests for event sequence patterns (repro.queries.pattern)."""

from __future__ import annotations

import pytest

from repro.queries import Pattern


class TestPatternConstruction:
    def test_basic_properties(self):
        pattern = Pattern(["OakSt", "MainSt", "WestSt"])
        assert len(pattern) == 3
        assert pattern.length == 3
        assert pattern.start_type == "OakSt"
        assert pattern.end_type == "WestSt"
        assert list(pattern) == ["OakSt", "MainSt", "WestSt"]

    def test_rejects_empty_pattern(self):
        with pytest.raises(ValueError):
            Pattern([])

    def test_rejects_non_string_types(self):
        with pytest.raises(ValueError):
            Pattern(["A", 3])

    def test_equality_and_hash(self):
        assert Pattern(["A", "B"]) == Pattern(["A", "B"])
        assert Pattern(["A", "B"]) != Pattern(["B", "A"])
        assert hash(Pattern(["A", "B"])) == hash(Pattern(["A", "B"]))
        assert Pattern(["A", "B"]) == ("A", "B")

    def test_empty_placeholder(self):
        empty = Pattern.empty()
        assert len(empty) == 0

    def test_repeated_types_detection(self):
        assert Pattern(["A", "B", "A"]).positions_of("A") == (0, 2)


class TestSubpatterns:
    def test_subpattern_bounds(self):
        pattern = Pattern(["A", "B", "C", "D"])
        assert pattern.subpattern(1, 3) == Pattern(["B", "C"])
        with pytest.raises(IndexError):
            pattern.subpattern(2, 2)
        with pytest.raises(IndexError):
            pattern.subpattern(0, 5)

    def test_contiguous_subpatterns_enumeration(self):
        pattern = Pattern(["A", "B", "C"])
        subpatterns = set(pattern.contiguous_subpatterns(min_length=2))
        assert subpatterns == {Pattern(["A", "B"]), Pattern(["B", "C"]), Pattern(["A", "B", "C"])}

    def test_contiguous_subpattern_count(self):
        # A pattern of length l has l*(l-1)/2 contiguous sub-patterns of length >= 2.
        pattern = Pattern([f"T{i}" for i in range(6)])
        assert len(list(pattern.contiguous_subpatterns())) == 6 * 5 // 2

    def test_contains_and_find(self):
        pattern = Pattern(["ParkAve", "OakSt", "MainSt", "WestSt"])
        assert pattern.contains(Pattern(["OakSt", "MainSt"]))
        assert pattern.find(Pattern(["OakSt", "MainSt"])) == 1
        assert pattern.find(Pattern(["MainSt", "OakSt"])) == -1
        assert not pattern.contains(Pattern(["ParkAve", "MainSt"]))

    def test_occurrences_with_repetition(self):
        pattern = Pattern(["A", "B", "A", "B"])
        assert pattern.occurrences(Pattern(["A", "B"])) == (0, 2)


class TestSplitAround:
    def test_split_with_prefix_and_suffix(self):
        pattern = Pattern(["ParkAve", "OakSt", "MainSt", "WestSt"])
        split = pattern.split_around(Pattern(["OakSt", "MainSt"]))
        assert split.prefix == Pattern(["ParkAve"])
        assert split.shared == Pattern(["OakSt", "MainSt"])
        assert split.suffix == Pattern(["WestSt"])
        assert len(split.segments) == 3

    def test_split_without_prefix(self):
        pattern = Pattern(["OakSt", "MainSt", "StateSt"])
        split = pattern.split_around(Pattern(["OakSt", "MainSt"]))
        assert len(split.prefix) == 0
        assert split.suffix == Pattern(["StateSt"])
        assert len(split.segments) == 2

    def test_split_whole_pattern(self):
        pattern = Pattern(["A", "B"])
        split = pattern.split_around(Pattern(["A", "B"]))
        assert len(split.prefix) == 0
        assert len(split.suffix) == 0
        assert split.segments == (Pattern(["A", "B"]),)

    def test_split_missing_pattern_raises(self):
        with pytest.raises(ValueError, match="does not occur"):
            Pattern(["A", "B"]).split_around(Pattern(["C"]))


class TestOverlap:
    def test_suffix_prefix_overlap(self):
        # p2 = (ParkAve, OakSt) overlaps p1 = (OakSt, MainSt): Example 4.
        assert Pattern(["ParkAve", "OakSt"]).overlaps(Pattern(["OakSt", "MainSt"]))
        assert Pattern(["OakSt", "MainSt"]).overlaps(Pattern(["ParkAve", "OakSt"]))

    def test_containment_overlap(self):
        assert Pattern(["A", "B", "C"]).overlaps(Pattern(["B", "C"]))
        assert Pattern(["B", "C"]).overlaps(Pattern(["A", "B", "C"]))
        # Strict middle containment.
        assert Pattern(["A", "B", "C", "D"]).overlaps(Pattern(["B", "C"]))

    def test_disjoint_patterns_do_not_overlap(self):
        assert not Pattern(["ParkAve", "OakSt"]).overlaps(Pattern(["MainSt", "WestSt"]))

    def test_concat(self):
        assert Pattern(["A"]).concat(Pattern(["B", "C"])) == Pattern(["A", "B", "C"])
        assert Pattern(["A"]).concat(Pattern.empty()) == Pattern(["A"])
        assert Pattern.empty().concat(Pattern(["A"])) == Pattern(["A"])
