"""Unit tests for event streams (repro.events.stream)."""

from __future__ import annotations

import pytest

from repro.events import Event, EventStream, merge_streams


def make_stream():
    return EventStream(
        [
            Event("B", 5, event_id=1),
            Event("A", 1, event_id=0),
            Event("A", 9, event_id=2),
            Event("C", 5, event_id=3),
        ],
        name="s",
    )


class TestEventStreamBasics:
    def test_events_sorted_by_timestamp(self):
        stream = make_stream()
        assert [e.timestamp for e in stream] == [1, 5, 5, 9]

    def test_unordered_input_is_sorted_with_ties_broken_by_id(self):
        events = [
            Event("A", 2, event_id=0),
            Event("B", 1, event_id=5),
            Event("C", 2, event_id=4),
            Event("D", 1, event_id=3),
            Event("E", 2, event_id=1),
        ]
        for source in (events, iter(events)):
            assert [e.event_type for e in EventStream(source)] == ["D", "B", "A", "E", "C"]

    def test_ordered_input_keeps_its_order(self):
        # Equal (timestamp, event_id) keys included: the default id is -1 for all.
        events = [
            Event("B", 1),
            Event("A", 1),
            Event("C", 2, event_id=0),
            Event("A", 2, event_id=7),
        ]
        for source in (events, iter(events)):
            stream = EventStream(source)
            assert list(stream) == events

    def test_len_and_indexing(self):
        stream = make_stream()
        assert len(stream) == 4
        assert stream[0].event_type == "A"
        assert bool(stream)
        assert not bool(EventStream())

    def test_from_tuples(self):
        stream = EventStream.from_tuples([("A", 1, 7), ("B", 2, 8)], ["vehicle"])
        assert stream[0].attributes == {"vehicle": 7}
        assert stream[1].event_type == "B"


class TestEventStreamViews:
    def test_between_is_half_open(self):
        stream = make_stream()
        subset = stream.between(1, 5)
        assert [e.timestamp for e in subset] == [1]

    def test_of_types(self):
        stream = make_stream()
        subset = stream.of_types(["A"])
        assert all(e.event_type == "A" for e in subset)
        assert len(subset) == 2

    def test_sample_fraction_bounds(self):
        stream = make_stream()
        with pytest.raises(ValueError):
            stream.sample(0.0)
        assert len(stream.sample(1.0)) == 4

    def test_event_types_sorted(self):
        assert make_stream().event_types() == ("A", "B", "C")


class TestStreamStatistics:
    def test_duration_and_rates(self):
        stream = make_stream()
        stats = stream.statistics()
        assert stats.total_events == 4
        assert stats.duration == 9  # timestamps 1..9 inclusive
        assert stats.counts_per_type == {"A": 2, "B": 1, "C": 1}
        assert stats.rate_of("A") == pytest.approx(2 / 9)
        assert stats.overall_rate == pytest.approx(4 / 9)

    def test_empty_stream_statistics(self):
        stats = EventStream().statistics()
        assert stats.total_events == 0
        assert stats.duration == 0
        assert stats.overall_rate == 0.0


class TestStreamHelpers:
    def test_merge_streams(self):
        left = EventStream([Event("A", 1)])
        right = EventStream([Event("B", 0)])
        merged = merge_streams(left, right)
        assert [e.event_type for e in merged] == ["B", "A"]
