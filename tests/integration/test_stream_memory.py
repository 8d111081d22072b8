"""Memory pin: an in-memory ``EventStream`` holds its events as columns.

A stream stores one run of log rows per timestamp — interned type names, an
id column and one value column per attribute — so an event costs a few list
slots and its id, not an ``Event`` plus an attribute dict (about 340 bytes
each in order and 390 shuffled when the stream kept the objects; 102 and 103
as columns, on the log below).  Building one from 20 000 events of a
recorded v2 log, in order or in bounded-disorder arrival order, must:

* retain fewer than :data:`RETAINED_BYTES_PER_EVENT` bytes per event;
* peak at no more than 1.5 times what it retains: events are converted a
  chunk at a time and dropped, never listed in full;

and :meth:`EventLogReader.read_stream` builds no ``Event`` at all.
"""

from __future__ import annotations

import gc
import random
import tracemalloc
from itertools import islice

import pytest

from repro.events import Event, EventLogReader, EventLogWriter, EventStream, bounded_shuffle

EVENTS = 20_000
#: Between the per-event cost of columns (102 in order, 103 shuffled) and of
#: kept ``Event`` objects (342 in order, 394 shuffled).
RETAINED_BYTES_PER_EVENT = 200
PEAK_OVER_RETAINED = 1.5


def generated_events(seed: int = 20260925) -> list[Event]:
    """A chain walk like the benchmark's: 20 events per time unit, two int attributes."""
    rng = random.Random(seed)
    return [
        Event(f"T{rng.randrange(10)}", index // 20, {"entity": rng.randrange(20), "value": rng.randrange(100)}, index)
        for index in range(EVENTS)
    ]


@pytest.fixture(scope="module", params=["in order", "bounded shuffle"])
def log(request, tmp_path_factory):
    events = generated_events()
    if request.param == "bounded shuffle":
        events = bounded_shuffle(events, max_lateness=8, seed=7)
    path = tmp_path_factory.mktemp("stream-memory") / "events.jsonl"
    with EventLogWriter(path, stream_name=request.param) as writer:
        writer.extend(events)
    return path


def traced(build):
    """``(stream, retained bytes, peak bytes)`` of ``build()`` under ``tracemalloc``."""
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        stream = build()
        after, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return stream, after - before, peak - before


@pytest.fixture(scope="module")
def in_stream_order() -> list[Event]:
    return sorted(generated_events(), key=lambda event: (event.timestamp, event.event_id))


def test_a_stream_of_log_events_keeps_columns_not_events(log, in_stream_order):
    stream, retained, peak = traced(lambda: EventStream(islice(EventLogReader(log), EVENTS)))
    assert len(stream) == EVENTS
    assert retained / EVENTS < RETAINED_BYTES_PER_EVENT
    assert peak <= PEAK_OVER_RETAINED * retained
    assert list(stream) == in_stream_order


def test_read_stream_builds_no_event(log, in_stream_order, monkeypatch):
    built = [0]
    check = Event.__post_init__

    def counting(event):
        built[0] += 1
        check(event)

    monkeypatch.setattr(Event, "__post_init__", counting)
    stream, retained, peak = traced(EventLogReader(log).read_stream)
    assert built[0] == 0
    assert retained / EVENTS < RETAINED_BYTES_PER_EVENT
    assert peak <= PEAK_OVER_RETAINED * retained
    monkeypatch.undo()
    assert list(stream) == in_stream_order
