"""Unit tests for bounded-lateness disorder tolerance (events/disorder.py).

Covers the reorder buffer's watermark protocol, the feed's accounting
invariant and late policies, the legality of ``bounded_shuffle`` arrival
orders, the engine sessions' regressed-timestamp guard, and buffer
checkpointing.  The buffer holds rows and releases column ``Rows``; the
tests push events as rows (``event_row``) and read batches back as events
(``rows_to_events``).
"""

from __future__ import annotations

from itertools import zip_longest

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datasets import random_run
from repro.events import (
    ColumnarBatch,
    DisorderError,
    EventLogReader,
    EventStream,
    ReorderBuffer,
    ReorderFeed,
    SlidingWindow,
    bounded_shuffle,
    event_row,
    validate_late_policy,
    write_event_log,
)
from repro.events.log import rows_to_events
from repro.executor import StreamingEngine
from repro.queries import Pattern, PredicateSet, Query, Workload

from ..conftest import arrival_lateness, make_events


def make_workload(window=None):
    window = window or SlidingWindow(size=10, slide=5)
    queries = [
        Query(pattern=Pattern(["A", "B"]), window=window, predicates=PredicateSet(), name="q1"),
        Query(pattern=Pattern(["A", "B", "C"]), window=window, predicates=PredicateSet(), name="q2"),
    ]
    return Workload(queries)


def events_of(batch) -> list:
    """A released ``(timestamp, [Rows...])`` batch's events, in batch order."""
    return list(rows_to_events(*batch))


def push(buffer: ReorderBuffer, event) -> bool:
    return buffer.push(event_row(event))


def routed(engine, timestamp, rows):
    """``(timestamp, batch, groups)`` of ``rows`` as one batch, as the engine routes it."""
    batch = ColumnarBatch.from_events(timestamp, make_events(rows), engine.compiled.layout)
    return timestamp, batch, engine.compiled.route_columnar(batch)[1]


class TestLatePolicyValidation:
    def test_accepts_raise_drop_and_callables(self):
        validate_late_policy("raise")
        validate_late_policy("drop")
        validate_late_policy(lambda event: None)

    @pytest.mark.parametrize("bad", ["ignore", None, 3, ["drop"]])
    def test_rejects_everything_else(self, bad):
        with pytest.raises(ValueError, match="late_policy"):
            validate_late_policy(bad)


class TestReorderBuffer:
    def test_rejects_negative_lateness(self):
        with pytest.raises(ValueError, match="max_lateness"):
            ReorderBuffer(-1)

    def test_watermark_undefined_before_first_event(self):
        buffer = ReorderBuffer(5)
        assert buffer.watermark is None
        assert buffer.max_seen == -1

    def test_watermark_tracks_max_seen(self):
        buffer = ReorderBuffer(3)
        (event,) = make_events([("A", 10)])
        assert push(buffer, event)
        assert buffer.watermark == 7
        # max_seen never moves backwards.
        (older,) = make_events([("A", 8)])
        assert push(buffer, older)
        assert buffer.watermark == 7

    def test_event_at_watermark_is_admissible_but_below_is_late(self):
        buffer = ReorderBuffer(3)
        push(buffer, make_events([("A", 10)])[0])
        assert push(buffer, make_events([("A", 7)])[0])
        assert not push(buffer, make_events([("A", 6)])[0])
        assert len(buffer) == 2  # the late event was not buffered

    def test_pop_ready_releases_only_passed_batches(self):
        buffer = ReorderBuffer(2)
        for event in make_events([("A", 5), ("A", 3), ("A", 4)]):
            assert push(buffer, event)
        # Watermark is 3: only timestamp < 3 would release; nothing yet.
        assert buffer.pop_ready() is None
        push(buffer, make_events([("A", 8)])[0])
        # Watermark is 6 now: 3, 4, 5 release in timestamp order.
        assert [buffer.pop_ready()[0] for _ in range(3)] == [3, 4, 5]
        assert buffer.pop_ready() is None
        assert len(buffer) == 1

    def test_pop_drain_flushes_everything_in_order(self):
        buffer = ReorderBuffer(10)
        for event in make_events([("A", 4), ("A", 1), ("A", 4), ("A", 2)]):
            push(buffer, event)
        drained = []
        while (batch := buffer.pop_drain()) is not None:
            drained.append(batch)
        assert [timestamp for timestamp, _ in drained] == [1, 2, 4]
        assert len(events_of(drained[2])) == 2
        assert len(buffer) == 0

    def test_within_timestamp_events_kept_in_event_id_order(self):
        buffer = ReorderBuffer(5)
        a, b, c = make_events([("A", 3), ("B", 3), ("C", 3)])
        for event in (c, a, b):  # arrival order scrambles the ids
            push(buffer, event)
        push(buffer, make_events([("A", 20)])[0])
        released = buffer.pop_ready()
        assert released[0] == 3
        assert [event.event_id for event in events_of(released)] == [0, 1, 2]

    def test_export_restore_round_trip(self):
        buffer = ReorderBuffer(5)
        for event in make_events([("A", 4), ("B", 2), ("A", 6)]):
            push(buffer, event)
        state = buffer.export_state()
        restored = ReorderBuffer(5)
        restored.restore_state(state)
        assert restored.watermark == buffer.watermark
        assert len(restored) == len(buffer)
        assert restored.export_state() == state
        while True:
            original, copy = buffer.pop_drain(), restored.pop_drain()
            assert original == copy
            if original is None:
                break

    def test_restore_rejects_mismatched_lateness(self):
        buffer = ReorderBuffer(5)
        state = buffer.export_state()
        other = ReorderBuffer(3)
        with pytest.raises(ValueError, match="max_lateness"):
            other.restore_state(state)


class TestReorderFeed:
    def feed(self, rows, max_lateness, **kwargs):
        events = make_events(rows)
        return ReorderFeed(iter(events), ReorderBuffer(max_lateness), **kwargs)

    def test_releases_sorted_batches(self):
        feed = self.feed([("A", 3), ("A", 1), ("A", 2), ("A", 6), ("A", 5)], 3)
        assert [timestamp for timestamp, _ in feed] == [1, 2, 3, 5, 6]
        assert feed.source_consumed == 5

    def test_accounting_invariant_at_every_batch_boundary(self):
        feed = self.feed([("A", 3), ("A", 1), ("A", 7), ("A", 3), ("A", 6)], 4)
        processed = 0
        for batch in feed:
            processed += len(events_of(batch))
            assert processed + len(feed.buffer) == feed.source_consumed
        assert processed == 5

    def test_raise_policy_names_the_contract(self):
        feed = self.feed([("A", 10), ("A", 2)], 3)
        with pytest.raises(DisorderError, match="behind watermark 7"):
            list(feed)

    def test_drop_policy_counts_late_and_dropped(self):
        feed = self.feed([("A", 10), ("A", 2), ("A", 11)], 3, late_policy="drop")
        released = [event for batch in feed for event in events_of(batch)]
        assert [event.timestamp for event in released] == [10, 11]
        assert feed.metrics.events_late == 1
        assert feed.metrics.events_dropped == 1
        assert feed.source_consumed == 3

    def test_callback_policy_hands_over_the_event(self):
        side_channel = []
        feed = self.feed(
            [("A", 10), ("A", 2)], 3, late_policy=side_channel.append
        )
        list(feed)
        assert [event.timestamp for event in side_channel] == [2]
        assert feed.metrics.events_late == 1
        assert feed.metrics.events_dropped == 0

    def test_metrics_sink_is_duck_typed(self):
        class Sink:
            events_late = 0
            events_dropped = 0

        sink = Sink()
        feed = self.feed([("A", 10), ("A", 2)], 3, late_policy="drop", metrics=sink)
        list(feed)
        assert sink.events_late == 1
        assert sink.events_dropped == 1


def write_log(path, events, fsync_every: int = 0):
    write_event_log(events, path, fsync_every=fsync_every)
    return EventLogReader(path)


class TestReorderFeedOverALog:
    """The feed takes a log's rows as they are zipped from its lines, one event at a time."""

    #: One frame spanning timestamps 10..3 (row 0 holds 10), then a frame at 12.
    ARRIVALS = [("A", 10), ("B", 9), ("A", 3), ("C", 8), ("B", 10), ("A", 12), ("B", 12)]

    def log(self, tmp_path):
        events = make_events([(etype, t, {"n": i}) for i, (etype, t) in enumerate(self.ARRIVALS)])
        reader = write_log(tmp_path / "events.jsonl", events)
        assert reader.count_lines() == 2  # the first five rows are one frame
        return events, reader

    def test_a_late_row_inside_a_frame_raises_by_default(self, tmp_path):
        _, reader = self.log(tmp_path)
        feed = ReorderFeed(reader, ReorderBuffer(2))
        with pytest.raises(DisorderError, match="event 2 at timestamp 3 arrived behind watermark 8"):
            next(feed)
        assert feed.metrics.events_late == 0

    def test_a_late_row_inside_a_frame_is_dropped_and_counted(self, tmp_path):
        events, reader = self.log(tmp_path)
        feed = ReorderFeed(reader, ReorderBuffer(2), late_policy="drop")
        released = [event for batch in feed for event in events_of(batch)]
        assert released == sorted(
            (e for e in events if e.timestamp != 3), key=lambda e: (e.timestamp, e.event_id)
        )
        assert (feed.metrics.events_late, feed.metrics.events_dropped) == (1, 1)
        assert feed.source_consumed == len(events)

    def test_a_late_row_inside_a_frame_reaches_the_callback_as_its_event(self, tmp_path):
        events, reader = self.log(tmp_path)
        side_channel = []
        feed = ReorderFeed(reader, ReorderBuffer(2), late_policy=side_channel.append)
        assert sum(len(events_of(batch)) for batch in feed) == len(events) - 1
        assert side_channel == [events[2]]
        assert (feed.metrics.events_late, feed.metrics.events_dropped) == (1, 0)

    def test_the_row_that_releases_a_batch_leaves_the_rest_of_its_frame_unread(self, tmp_path):
        events, reader = self.log(tmp_path)
        feed = ReorderFeed(reader, ReorderBuffer(2), late_policy="drop")
        # Row 0 of the second frame (t=12) moves the watermark to 10: 8 and 9
        # release, one per step, before the frame's second row is read.
        assert [event.event_id for event in events_of(next(feed))] == [3]
        assert (feed.source_consumed, len(feed.buffer)) == (6, 4)
        assert [event.event_id for event in events_of(next(feed))] == [1]
        assert (feed.source_consumed, len(feed.buffer)) == (6, 3)


arrivals = st.lists(
    st.tuples(
        st.sampled_from("ABC"),
        st.integers(min_value=0, max_value=12),
        st.sampled_from([{}, {"n": 1}, {"n": 2, "m": "x"}]),
    ),
    max_size=30,
)


@settings(max_examples=80, deadline=None)
@given(
    rows=arrivals,
    max_lateness=st.integers(min_value=0, max_value=4),
    fsync_every=st.sampled_from([0, 2, 5]),
)
def test_a_log_feeds_the_buffer_as_its_events_would(rows, max_lateness, fsync_every, tmp_path_factory):
    """Batches, ``source_consumed``, buffer snapshots and late events equal, at every batch boundary."""
    events = make_events(rows)
    reader = write_log(tmp_path_factory.mktemp("feed") / "events.jsonl", events, fsync_every)
    late_from_log, late_from_events = [], []
    from_log = ReorderFeed(reader, ReorderBuffer(max_lateness), late_policy=late_from_log.append)
    from_events = ReorderFeed(iter(events), ReorderBuffer(max_lateness), late_policy=late_from_events.append)
    for ours, theirs in zip_longest(from_log, from_events):
        assert ours[0] == theirs[0] and events_of(ours) == events_of(theirs)
        assert from_log.source_consumed == from_events.source_consumed
        assert from_log.buffer.export_state() == from_events.buffer.export_state()
        assert late_from_log == late_from_events
    assert late_from_log == late_from_events
    assert from_log.source_consumed == len(events)


class TestBoundedShuffle:
    def test_rejects_negative_lateness(self):
        with pytest.raises(ValueError, match="max_lateness"):
            bounded_shuffle([], -1, seed=0)

    def test_zero_lateness_is_the_identity_on_sorted_input(self):
        events = make_events([("A", t) for t in range(10)])
        assert bounded_shuffle(events, 0, seed=7) == events

    @pytest.mark.parametrize("seed", range(8))
    @pytest.mark.parametrize("max_lateness", [1, 3, 10])
    def test_arrival_orders_are_never_late(self, seed, max_lateness):
        events = make_events([("A", t % 17) for t in range(60)])
        events.sort(key=lambda event: (event.timestamp, event.event_id))
        shuffled = bounded_shuffle(events, max_lateness, seed=seed)
        assert sorted(shuffled, key=lambda e: (e.timestamp, e.event_id)) == sorted(
            events, key=lambda e: (e.timestamp, e.event_id)
        )
        buffer = ReorderBuffer(max_lateness)
        assert all(push(buffer, event) for event in shuffled)

    def test_is_deterministic_per_seed(self):
        events = make_events([("A", t % 5) for t in range(30)])
        assert bounded_shuffle(events, 4, seed=1) == bounded_shuffle(events, 4, seed=1)
        assert bounded_shuffle(events, 4, seed=1) != bounded_shuffle(events, 4, seed=2)

    @pytest.mark.parametrize("max_lateness", range(1, 7))
    def test_never_delivers_an_event_exactly_at_the_watermark(self, max_lateness):
        """Equal arrival keys go lower timestamp first, so no arrival is exactly L late."""
        for seed in range(100):
            shuffled = bounded_shuffle(random_run(seed).stream, max_lateness, seed=seed)
            assert max(arrival_lateness(shuffled)) < max_lateness, seed


class TestSessionDisorderGuard:
    """Satellite: regressed timestamps raise a clear engine-level error."""

    def test_instances_step_raises_disorder_error(self):
        engine = StreamingEngine(make_workload())
        session = engine.new_session()
        session.step(*routed(engine, 5, []))
        with pytest.raises(DisorderError, match="timestamp 3 arrived after batch at timestamp 5"):
            session.step(*routed(engine, 3, [("A", 3)]))

    def test_regression_after_empty_batch_is_caught(self):
        # The historical bug: an all-irrelevant batch did not advance the
        # cursor, so a later regressed batch silently seeded scopes for
        # windows that finalization had already flushed.
        engine = StreamingEngine(make_workload())
        session = engine.new_session()
        session.step(*routed(engine, 12, [("Z", 12)]))  # irrelevant batch — but time has moved
        with pytest.raises(DisorderError, match="non-decreasing"):
            session.step(*routed(engine, 4, [("A", 4)]))

    def test_pane_step_raises_disorder_error(self):
        engine = StreamingEngine(make_workload(), panes=True)
        session = engine.new_session()
        assert session.mode == "panes"
        session.step(*routed(engine, 9, [("A", 9)]))
        with pytest.raises(DisorderError, match="timestamp 2 arrived after batch at timestamp 9"):
            session.step(*routed(engine, 2, [("B", 2)]))

    def test_run_without_buffer_rejects_disordered_iterable(self):
        engine = StreamingEngine(make_workload())
        events = make_events([("A", 8), ("B", 9), ("A", 1), ("B", 2)])
        with pytest.raises(DisorderError):
            engine.run(iter(events))


class TestEngineDisorderConfig:
    def test_engine_validates_lateness_and_policy(self):
        with pytest.raises(ValueError, match="max_lateness"):
            StreamingEngine(make_workload(), max_lateness=-2)
        with pytest.raises(ValueError, match="late_policy"):
            StreamingEngine(make_workload(), max_lateness=3, late_policy="retry")

    def test_shuffled_run_matches_sorted_run(self):
        events = make_events(
            [("A", t % 13) for t in range(40)] + [("B", (t * 3) % 13) for t in range(40)]
        )
        sorted_report = StreamingEngine(make_workload()).run(EventStream(events))
        shuffled = bounded_shuffle(
            sorted(events, key=lambda e: (e.timestamp, e.event_id)), 4, seed=9
        )
        engine = StreamingEngine(make_workload(), max_lateness=4)
        report = engine.run(iter(shuffled))
        assert {r.key: r.value for r in report.results} == {r.key: r.value for r in sorted_report.results}
        assert report.metrics.events_late == 0
        assert report.metrics.events_dropped == 0

    def test_drop_policy_excludes_late_events_from_results(self):
        window = SlidingWindow(size=10, slide=10)
        events = make_events([("A", 1), ("B", 25), ("A", 2)])  # A@2 arrives behind
        engine = StreamingEngine(make_workload(window), max_lateness=3, late_policy="drop")
        report = engine.run(iter(events))
        oracle = StreamingEngine(make_workload(window)).run(EventStream(events[:2]))
        assert {r.key: r.value for r in report.results} == {r.key: r.value for r in oracle.results}
        assert report.metrics.events_late == 1
        assert report.metrics.events_dropped == 1

    def test_session_export_includes_reorder_only_when_configured(self):
        plain = StreamingEngine(make_workload()).new_session()
        assert "reorder" not in plain.export_state()
        session = StreamingEngine(make_workload(), max_lateness=5).new_session()
        assert "reorder" in session.export_state()

    def test_restore_rejects_reorder_presence_mismatch(self):
        disordered = StreamingEngine(make_workload(), max_lateness=5).new_session()
        state = disordered.export_state()
        plain = StreamingEngine(make_workload()).new_session()
        with pytest.raises(ValueError, match="max_lateness configuration"):
            plain.restore_state(state)
