"""Property: an ``EventStream`` kept as columns behaves like a sorted list of events.

:class:`~repro.events.stream.EventStream` stores one run of log rows per
timestamp and builds events on demand.  Whatever it is fed — ties on
``(timestamp, event_id)`` (the default ``-1`` ids included), unsorted input,
events of one timestamp with different attribute names, empty attributes,
str/int/float/bool/``None`` values — it must agree with
:class:`~tests.reference.ReferenceStream` on iteration, ``len``, indexing,
every view, the statistics, merging and reading a recorded log back; and
:meth:`ColumnarBatch.from_rows` over its stored runs must equal, field for
field, :meth:`ColumnarBatch.from_events` over the reference's timestamp
batches (the engine builds a stream's batches with the first, an event
list's with the second).
"""

from __future__ import annotations

import tempfile
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.events import (
    ColumnarBatch,
    ColumnLayout,
    Event,
    EventLogReader,
    EventStream,
    merge_streams,
    timestamp_batches,
    write_event_log,
)

from repro.events import stream as stream_module

from ..reference import ReferenceStream

TYPES = ("A", "B", "C")
NAMES = ("x", "y", "z")

values = st.one_of(
    st.integers(-3, 300),
    st.floats(allow_nan=False, allow_infinity=False, width=32),
    st.text(max_size=3),
    st.booleans(),
    st.none(),
)
events = st.builds(
    Event,
    st.sampled_from(TYPES),
    st.integers(0, 6),
    st.dictionaries(st.sampled_from(NAMES), values, max_size=3),
    st.one_of(st.just(-1), st.integers(0, 5)),
)
event_lists = st.lists(events, max_size=40)
#: Events a build converts at a time: small chunks split timestamps across chunks.
chunk_sizes = st.sampled_from([1, 2, 5, stream_module._CHUNK_EVENTS])
layouts = st.builds(
    ColumnLayout,
    st.lists(st.sampled_from(TYPES), unique=True),
    st.lists(st.sampled_from(NAMES), unique=True),
    st.lists(st.sampled_from(NAMES), unique=True, max_size=2),
)


def strict(event: Event) -> tuple:
    """An event's fields with each value's type (``1 == True == 1.0`` would hide a swap)."""
    cells = [(name, type(value), value) for name, value in sorted(event.attributes.items())]
    return event.event_type, event.timestamp, event.event_id, cells


def assert_same(stream, reference_events) -> None:
    assert [strict(e) for e in stream] == [strict(e) for e in reference_events]
    if isinstance(stream, EventStream):
        # A timestamp whose events share their attribute names is one run of rows.
        for _, rows in stream.runs():
            assert len(rows) == 1 or len({frozenset(columns) for _, _, columns in rows}) > 1


@settings(max_examples=80, deadline=None)
@given(event_lists, chunk_sizes)
def test_iteration_len_and_indexing(given_events, chunk):
    with mock.patch.object(stream_module, "_CHUNK_EVENTS", chunk):
        stream = EventStream(given_events)
    reference = ReferenceStream(given_events)
    assert_same(stream, reference.events)
    assert_same(stream.events(), reference.events)
    assert len(stream) == len(reference.events)
    assert bool(stream) == bool(reference.events)
    size = len(reference.events)
    for index in range(-size, size):
        assert strict(stream[index]) == strict(reference.events[index])
    for index in (size, -size - 1):
        with pytest.raises(IndexError):
            stream[index]


@settings(max_examples=80, deadline=None)
@given(
    event_lists,
    st.integers(0, 7),
    st.integers(0, 7),
    st.lists(st.sampled_from(TYPES)),
    st.floats(0.05, 1.0),
    st.integers(0, 3),
)
# ``of_types`` drops the rows between two of equal names: they must be joined.
@example([Event("B", 0), Event("A", 0, {"x": None}), Event("B", 0)], 0, 1, ["B"], 1.0, 0)
def test_views_and_statistics(given_events, start, end, types, fraction, seed):
    stream, reference = EventStream(given_events), ReferenceStream(given_events)
    assert_same(stream.between(start, end), reference.between(start, end))
    assert_same(stream.of_types(types), reference.of_types(types))
    assert_same(stream.sample(fraction, seed), reference.sample(fraction, seed))
    assert stream.event_types() == reference.event_types()
    stats = stream.statistics()
    assert (stats.total_events, stats.duration, stats.counts_per_type) == reference.statistics()
    assert stream.duration == stats.duration
    if reference.events:
        assert stream.start_time == reference.events[0].timestamp
        assert stream.end_time == reference.events[-1].timestamp


@settings(max_examples=80, deadline=None)
@given(event_lists, event_lists)
def test_merge(first, second):
    streams = EventStream(first), EventStream(second)
    assert_same(merge_streams(*streams), ReferenceStream([*first, *second]).events)
    for stream, given_events in zip(streams, (first, second)):  # merging copies, never mutates
        assert_same(stream, ReferenceStream(given_events).events)


@settings(max_examples=80, deadline=None)
@given(event_lists, layouts, chunk_sizes)
def test_columnar_batches_match_the_event_batches(given_events, layout, chunk):
    with mock.patch.object(stream_module, "_CHUNK_EVENTS", chunk):
        stream = EventStream(given_events)
    reference = ReferenceStream(given_events)
    expected = [
        ColumnarBatch.from_events(timestamp, batch, layout, {})
        for timestamp, batch in timestamp_batches(reference.events)
    ]
    built = [ColumnarBatch.from_rows(timestamp, rows, layout, {}) for timestamp, rows in stream.runs()]
    assert len(built) == len(expected)
    for batch, oracle in zip(built, expected):
        assert batch.timestamp == oracle.timestamp
        assert batch.type_ids == oracle.type_ids
        assert batch.relevant == oracle.relevant
        assert batch.columns == oracle.columns
        assert batch.group_keys == oracle.group_keys
        assert_same(batch, list(oracle))
    assert_same(stream, reference.events)  # building batches leaves the stored runs alone


@settings(max_examples=40, deadline=None)
@given(event_lists)
def test_a_recorded_log_reads_back_as_the_same_stream(given_events):
    with tempfile.TemporaryDirectory() as directory:
        path = Path(directory) / "events.jsonl"
        write_event_log(given_events, path, fsync_every=0)  # arrival order: unsorted
        assert_same(EventLogReader(path).read_stream(), ReferenceStream(given_events).events)
