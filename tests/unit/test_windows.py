"""Unit tests for sliding windows (repro.events.windows)."""

from __future__ import annotations

import doctest

import pytest

import repro.events.windows as windows_module
from repro.events import SlidingWindow, WindowCursor, WindowInstance

#: Window shapes covering the pane regimes: slide | size, slide ∤ size,
#: gcd = 1 (unit panes), and tumbling.
PANE_SHAPES = [(12, 4), (10, 4), (9, 6), (7, 3), (6, 6), (12, 2), (8, 5)]


class TestWindowInstance:
    def test_contains_is_half_open(self):
        window = WindowInstance(10, 20)
        assert window.contains(10)
        assert window.contains(19)
        assert not window.contains(20)
        assert not window.contains(9)
        assert window.size == 10

    def test_ordering(self):
        assert WindowInstance(0, 10) < WindowInstance(5, 15)


class TestSlidingWindowValidation:
    def test_rejects_non_positive_size(self):
        with pytest.raises(ValueError):
            SlidingWindow(size=0, slide=1)

    def test_rejects_non_positive_slide(self):
        with pytest.raises(ValueError):
            SlidingWindow(size=5, slide=0)

    def test_rejects_slide_larger_than_size(self):
        with pytest.raises(ValueError, match="drop events"):
            SlidingWindow(size=5, slide=6)


class TestInstanceEnumeration:
    def test_instances_containing_example_from_paper(self):
        # Window of length 4 sliding by 1 (Example 2).
        window = SlidingWindow(size=4, slide=1)
        instances = window.instances_containing(2)
        assert instances == [WindowInstance(0, 4), WindowInstance(1, 5), WindowInstance(2, 6)]

    def test_instances_containing_never_negative_start(self):
        window = SlidingWindow(size=10, slide=2)
        instances = window.instances_containing(1)
        assert all(w.start >= 0 for w in instances)
        assert WindowInstance(0, 10) in instances

    def test_max_overlap(self):
        assert SlidingWindow(size=10, slide=2).max_overlap == 5
        assert SlidingWindow(size=10, slide=3).max_overlap == 4
        assert SlidingWindow(size=10, slide=10).max_overlap == 1

    def test_number_of_instances_bounded_by_max_overlap(self):
        window = SlidingWindow(size=10, slide=3)
        counts = [len(window.instances_containing(t)) for t in range(30, 60)]
        # Every timestamp is covered by at most max_overlap instances, and the
        # bound is tight for suitably aligned timestamps.
        assert max(counts) == window.max_overlap
        assert all(count <= window.max_overlap for count in counts)

    def test_instance_starting_at_validates_alignment(self):
        window = SlidingWindow(size=10, slide=5)
        assert window.instance_starting_at(15) == WindowInstance(15, 25)
        with pytest.raises(ValueError):
            window.instance_starting_at(7)

    def test_instances_between(self):
        window = SlidingWindow(size=4, slide=2)
        instances = list(window.instances_between(3, 7))
        assert instances == [
            WindowInstance(0, 4),
            WindowInstance(2, 6),
            WindowInstance(4, 8),
            WindowInstance(6, 10),
        ]

    def test_every_timestamp_in_claimed_instances(self):
        window = SlidingWindow(size=7, slide=3)
        for timestamp in range(0, 40):
            for instance in window.instances_containing(timestamp):
                assert instance.contains(timestamp)


class TestWindowEdgeSemantics:
    """Pin the boundary behaviour the pane refactor relies on (half-open ends)."""

    def test_doctests_pass(self):
        """The examples in the module docstrings are executable and true."""
        failures, tests = doctest.testmod(windows_module)
        assert tests > 0
        assert failures == 0

    def test_end_boundary_timestamp_excluded_from_ending_instance(self):
        window = SlidingWindow(size=6, slide=2)
        for timestamp in range(0, 30):
            instances = window.instances_containing(timestamp)
            assert all(instance.start <= timestamp < instance.end for instance in instances)
            # The instance ending exactly at `timestamp` is never included.
            assert WindowInstance(timestamp - 6, timestamp) not in instances

    def test_instances_containing_equals_brute_force(self):
        """instances_containing == the definitionally-enumerated instance set."""
        for size, slide in PANE_SHAPES:
            window = SlidingWindow(size=size, slide=slide)
            for timestamp in range(0, 3 * size):
                expected = [
                    WindowInstance(start, start + size)
                    for start in range(0, timestamp + 1, slide)
                    if start <= timestamp < start + size
                ]
                assert window.instances_containing(timestamp) == expected, (size, slide, timestamp)

    def test_instances_between_endpoints_inclusive(self):
        window = SlidingWindow(size=6, slide=2)
        instances = list(window.instances_between(6, 6))
        # Every instance containing t=6, nothing more.
        assert instances == window.instances_containing(6)
        assert list(window.instances_between(7, 6)) == []

    def test_instances_between_equals_union_of_containing(self):
        for size, slide in PANE_SHAPES:
            window = SlidingWindow(size=size, slide=slide)
            start_time, end_time = 3, 2 * size + 1
            expected = []
            for timestamp in range(start_time, end_time + 1):
                for instance in window.instances_containing(timestamp):
                    if instance not in expected:
                        expected.append(instance)
            assert sorted(window.instances_between(start_time, end_time)) == sorted(expected)


class TestPaneGeometry:
    def test_pane_width_is_gcd(self):
        assert SlidingWindow(size=12, slide=4).pane_width == 4
        assert SlidingWindow(size=10, slide=4).pane_width == 2
        assert SlidingWindow(size=9, slide=6).pane_width == 3
        assert SlidingWindow(size=7, slide=3).pane_width == 1
        assert SlidingWindow(size=6, slide=6).pane_width == 6

    def test_panes_tile_the_timeline(self):
        """Every timestamp belongs to exactly one pane; spans are contiguous."""
        for size, slide in PANE_SHAPES:
            window = SlidingWindow(size=size, slide=slide)
            previous_end = 0
            for pane_index in range(0, 20):
                start, end = window.pane_span(pane_index)
                assert start == previous_end
                assert end - start == window.pane_width
                previous_end = end
                for timestamp in range(start, end):
                    assert window.pane_index_of(timestamp) == pane_index

    def test_windows_are_exact_pane_unions(self):
        for size, slide in PANE_SHAPES:
            window = SlidingWindow(size=size, slide=slide)
            for instance in window.instances_between(0, 3 * size):
                panes = list(window.panes_covering(instance))
                assert len(panes) == window.size // window.pane_width
                covered = [
                    timestamp
                    for pane_index in panes
                    for timestamp in range(*window.pane_span(pane_index))
                ]
                assert covered == list(range(instance.start, instance.end))

    def test_panes_covering_instances_containing_consistency(self):
        """pane_index_of(t) ∈ panes_covering(w) for every w containing t, and
        instances_covering_pane is exactly the preimage of panes_covering."""
        for size, slide in PANE_SHAPES:
            window = SlidingWindow(size=size, slide=slide)
            for timestamp in range(0, 3 * size):
                pane_index = window.pane_index_of(timestamp)
                for instance in window.instances_containing(timestamp):
                    assert pane_index in window.panes_covering(instance)
            for pane_index in range(0, 2 * size // window.pane_width):
                covering = window.instances_covering_pane(pane_index)
                expected = [
                    instance
                    for instance in window.instances_between(0, 4 * size)
                    if pane_index in window.panes_covering(instance)
                ]
                assert covering == expected, (size, slide, pane_index)

    def test_instances_covering_pane_matches_per_timestamp_instances(self):
        """Panes never straddle window boundaries: every timestamp of a pane
        belongs to exactly the instances covering the pane."""
        for size, slide in PANE_SHAPES:
            window = SlidingWindow(size=size, slide=slide)
            for pane_index in range(0, 2 * size // window.pane_width):
                covering = set(window.instances_covering_pane(pane_index))
                for timestamp in range(*window.pane_span(pane_index)):
                    assert set(window.instances_containing(timestamp)) == covering

    def test_gcd_one_degenerate(self):
        window = SlidingWindow(size=7, slide=3)
        assert window.pane_width == 1
        assert window.pane_span(5) == (5, 6)
        assert list(window.panes_covering(WindowInstance(3, 10))) == list(range(3, 10))

    def test_panes_covering_rejects_misaligned_instance(self):
        window = SlidingWindow(size=12, slide=4)
        with pytest.raises(ValueError, match="aligned"):
            window.panes_covering(WindowInstance(1, 13))

    def test_pane_index_of_rejects_negative(self):
        with pytest.raises(ValueError):
            SlidingWindow(size=4, slide=2).pane_index_of(-1)
        with pytest.raises(ValueError):
            SlidingWindow(size=4, slide=2).instances_covering_pane(-1)


class TestWindowCursor:
    """The incremental scope index must equal per-timestamp re-derivation."""

    def test_matches_instances_containing_on_dense_timeline(self):
        for size, slide in PANE_SHAPES:
            window = SlidingWindow(size=size, slide=slide)
            cursor = WindowCursor(window)
            for timestamp in range(0, 3 * size):
                assert list(cursor.advance(timestamp)) == window.instances_containing(
                    timestamp
                ), (size, slide, timestamp)

    def test_matches_instances_containing_with_gaps(self):
        import random

        rng = random.Random(3)
        for size, slide in PANE_SHAPES:
            window = SlidingWindow(size=size, slide=slide)
            cursor = WindowCursor(window)
            timestamp = 0
            for _ in range(60):
                # Mix of repeats, small steps, and jumps far past the window.
                timestamp += rng.choice((0, 1, 1, 2, slide, size + rng.randint(0, 9)))
                assert list(cursor.advance(timestamp)) == window.instances_containing(
                    timestamp
                ), (size, slide, timestamp)

    def test_rejects_time_travel(self):
        cursor = WindowCursor(SlidingWindow(size=4, slide=2))
        cursor.advance(5)
        with pytest.raises(ValueError, match="monotone"):
            cursor.advance(4)
