"""Property-based tests for pattern geometry and window semantics."""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.events import SlidingWindow
from repro.executor import enumerate_pattern_matches
from repro.queries import Pattern

from ..conftest import make_events
from ..reference import count_pattern_matches

TYPES = ["A", "B", "C", "D", "E"]


def patterns(min_length=1, max_length=4, unique=False):
    return st.lists(
        st.sampled_from(TYPES), min_size=min_length, max_size=max_length, unique=unique
    ).map(Pattern)


class TestPatternProperties:
    @given(patterns(min_length=2, max_length=5))
    def test_subpatterns_are_contained(self, pattern):
        for subpattern in pattern.contiguous_subpatterns(min_length=2):
            assert pattern.contains(subpattern)
            start = pattern.find(subpattern)
            assert pattern.subpattern(start, start + len(subpattern)) == subpattern

    @given(patterns(min_length=2, max_length=5))
    def test_split_around_reassembles(self, pattern):
        for subpattern in pattern.contiguous_subpatterns(min_length=2):
            split = pattern.split_around(subpattern)
            reassembled = split.prefix.concat(split.shared).concat(split.suffix)
            assert reassembled == pattern

    @given(patterns(min_length=1, max_length=4), patterns(min_length=1, max_length=4))
    def test_overlap_is_symmetric(self, first, second):
        assert first.overlaps(second) == second.overlaps(first)

    @given(patterns(min_length=2, max_length=4))
    def test_pattern_overlaps_itself(self, pattern):
        assert pattern.overlaps(pattern)


class TestWindowProperties:
    @given(
        st.integers(min_value=1, max_value=30),
        st.integers(min_value=1, max_value=30),
        st.integers(min_value=0, max_value=500),
    )
    def test_instances_containing_cover_timestamp(self, size, slide, timestamp):
        if slide > size:
            slide = size
        window = SlidingWindow(size=size, slide=slide)
        instances = window.instances_containing(timestamp)
        assert instances, "every timestamp belongs to at least one window"
        for instance in instances:
            assert instance.contains(timestamp)
            assert instance.start % slide == 0
            assert instance.size == size
        assert len(instances) <= window.max_overlap
        assert len(instances) == len(set(instances))


class TestCountingAgainstEnumeration:
    @settings(max_examples=60, deadline=None)
    @given(
        patterns(min_length=2, max_length=3),
        st.lists(
            st.tuples(st.sampled_from(TYPES), st.integers(min_value=0, max_value=15)),
            min_size=0,
            max_size=25,
        ),
    )
    def test_count_matches_equals_enumeration(self, pattern, rows):
        events = make_events(rows)
        events.sort(key=lambda e: e.timestamp)
        assert count_pattern_matches(pattern, events) == len(
            enumerate_pattern_matches(pattern, events)
        )
