"""Unit tests for explicit sequence construction (two-step substrate)."""

from __future__ import annotations

from repro.executor import enumerate_pattern_matches, join_sequences
from repro.queries import Pattern

from ..conftest import make_events
from ..reference import count_pattern_matches


class TestEnumeratePatternMatches:
    def test_simple_enumeration(self):
        events = make_events([("A", 1), ("B", 2), ("A", 3), ("B", 4)])
        matches = enumerate_pattern_matches(Pattern(["A", "B"]), events)
        timestamps = {(m[0].timestamp, m[1].timestamp) for m in matches}
        assert timestamps == {(1, 2), (1, 4), (3, 4)}

    def test_strictly_increasing_timestamps(self):
        events = make_events([("A", 1), ("B", 1)])
        assert enumerate_pattern_matches(Pattern(["A", "B"]), events) == []

    def test_no_matches_without_start(self):
        events = make_events([("B", 1), ("B", 2)])
        assert enumerate_pattern_matches(Pattern(["A", "B"]), events) == []

    def test_three_step_pattern(self):
        events = make_events([("A", 1), ("B", 2), ("C", 3), ("B", 4), ("C", 5)])
        matches = enumerate_pattern_matches(Pattern(["A", "B", "C"]), events)
        assert len(matches) == 3  # (1,2,3), (1,2,5), (1,4,5)

    def test_repeated_type_pattern(self):
        events = make_events([("A", 1), ("A", 2), ("A", 3)])
        matches = enumerate_pattern_matches(Pattern(["A", "A"]), events)
        assert len(matches) == 3

    def test_count_matches_agrees_with_enumeration(self):
        events = make_events(
            [("A", 1), ("B", 2), ("A", 2), ("C", 3), ("B", 4), ("C", 4), ("C", 6)]
        )
        for pattern in (Pattern(["A", "B"]), Pattern(["A", "B", "C"]), Pattern(["B", "C"])):
            assert count_pattern_matches(pattern, events) == len(
                enumerate_pattern_matches(pattern, events)
            )


class TestJoinSequences:
    def test_temporal_join_requires_strict_order(self):
        left = enumerate_pattern_matches(
            Pattern(["A", "B"]), make_events([("A", 1), ("B", 2), ("B", 5)])
        )
        right = enumerate_pattern_matches(
            Pattern(["C", "D"]), make_events([("C", 3), ("D", 4)])
        )
        joined = join_sequences(left, right)
        # Only the (a1, b2) prefix ends before c3.
        assert len(joined) == 1
        assert [e.event_type for e in joined[0]] == ["A", "B", "C", "D"]

    def test_join_with_empty_side(self):
        some_sequence = tuple(make_events([("A", 1)]))
        assert join_sequences([], [some_sequence]) == []
        assert join_sequences([some_sequence], []) == []

    def test_join_equals_direct_enumeration(self):
        events = make_events(
            [("A", 1), ("B", 2), ("C", 3), ("D", 4), ("A", 5), ("B", 6), ("C", 7), ("D", 8)]
        )
        direct = enumerate_pattern_matches(Pattern(["A", "B", "C", "D"]), events)
        joined = join_sequences(
            enumerate_pattern_matches(Pattern(["A", "B"]), events),
            enumerate_pattern_matches(Pattern(["C", "D"]), events),
        )
        assert {tuple(e.timestamp for e in m) for m in joined} == {
            tuple(e.timestamp for e in m) for m in direct
        }

