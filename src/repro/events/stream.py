"""Event stream abstractions.

An :class:`EventStream` is an ordered, replayable sequence of
:class:`~repro.events.event.Event` objects.  Executors consume streams event
by event; dataset generators and tests build them from lists, generator
functions, or by merging several per-type sub-streams.

The class intentionally stores events in memory: the paper's evaluation
replays bounded windows of real/synthetic data (hundreds of thousands of
events), which comfortably fits the benchmark scales used here.
"""

from __future__ import annotations

import bisect
import itertools
import random
from collections import Counter
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, Iterator, Sequence

from .event import Event, EventType

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (columnar)
    from .columnar import ColumnLayout, ColumnarBatch

__all__ = [
    "EventStream",
    "StreamStatistics",
    "merge_streams",
    "timestamp_batches",
]

#: Distinct column layouts cached per stream (LRU-evicted beyond this);
#: bounds resident memory when one long-lived stream serves many workloads.
_COLUMNAR_CACHE_LIMIT = 4


def timestamp_batches(
    events: "EventStream | Iterable[Event]",
) -> Iterator[tuple[int, list[Event]]]:
    """Group a timestamp-ordered event iterable into same-timestamp batches.

    Yields ``(timestamp, [events...])`` pairs without materialising the
    stream: only the current batch (plus the one event of lookahead that
    terminates it) is held in memory, so the executors can consume unbounded
    iterables and generators as well as in-memory :class:`EventStream`\\ s.
    """
    for timestamp, group in itertools.groupby(events, key=lambda event: event.timestamp):
        yield timestamp, list(group)


def _in_stream_order(events: list[Event]) -> bool:
    """Whether ``events`` is already sorted by ``(timestamp, event_id)``."""
    for earlier, later in zip(events, itertools.islice(events, 1, None)):
        if later.timestamp < earlier.timestamp or (
            later.timestamp == earlier.timestamp and later.event_id < earlier.event_id
        ):
            return False
    return True


@dataclass(frozen=True)
class StreamStatistics:
    """Summary statistics of a stream used by the cost model and reports."""

    total_events: int
    duration: int
    counts_per_type: dict[EventType, int]

    @property
    def overall_rate(self) -> float:
        """Average number of events per time unit across all types."""
        if self.duration <= 0:
            return float(self.total_events)
        return self.total_events / self.duration

    def rate_of(self, event_type: EventType) -> float:
        """Average number of events of ``event_type`` per time unit."""
        if self.duration <= 0:
            return float(self.counts_per_type.get(event_type, 0))
        return self.counts_per_type.get(event_type, 0) / self.duration


class EventStream:
    """An in-memory, timestamp-ordered stream of events.

    Parameters
    ----------
    events:
        Any iterable of events.  They are sorted by ``(timestamp, event_id)``
        so that replay order is deterministic (input already in that order,
        the common case, is kept as it is without building sort keys).
    name:
        Optional label used in reports and benchmark output.
    """

    def __init__(self, events: Iterable[Event] = (), name: str = "stream") -> None:
        self._events: list[Event] = list(events)
        if not _in_stream_order(self._events):
            self._events.sort(key=lambda e: (e.timestamp, e.event_id))
        self.name = name
        #: Per-layout cache of columnar batches (built lazily, invalidated on
        #: mutation); replaying an in-memory stream pays column extraction once.
        self._columnar_cache: dict["ColumnLayout", list["ColumnarBatch"]] = {}

    # -- container protocol -------------------------------------------------
    def __iter__(self) -> Iterator[Event]:
        return iter(self._events)

    def __len__(self) -> int:
        return len(self._events)

    def __getitem__(self, index: int) -> Event:
        return self._events[index]

    def __bool__(self) -> bool:
        return bool(self._events)

    # -- construction helpers ----------------------------------------------
    @classmethod
    def from_tuples(
        cls,
        rows: Iterable[tuple],
        attribute_names: Sequence[str] = (),
        name: str = "stream",
    ) -> "EventStream":
        """Build a stream from ``(type, timestamp, attr1, attr2, ...)`` tuples.

        Examples
        --------
        >>> s = EventStream.from_tuples([("A", 1, 7), ("B", 2, 7)], ["vehicle"])
        >>> len(s)
        2
        """
        events = []
        for event_id, row in enumerate(rows):
            event_type, timestamp, *values = row
            attributes = dict(zip(attribute_names, values))
            events.append(Event(event_type, timestamp, attributes, event_id))
        return cls(events, name=name)

    def append(self, event: Event) -> None:
        """Insert an event keeping ``(timestamp, event_id)`` order.

        Uses the same sort key as the constructor and :meth:`extend`, so a
        stream grown event by event is indistinguishable from one built in a
        single pass — a precondition for deterministic replay when timestamps
        tie.
        """
        position = bisect.bisect_right(
            self._events,
            (event.timestamp, event.event_id),
            key=lambda e: (e.timestamp, e.event_id),
        )
        self._events.insert(position, event)
        self._columnar_cache.clear()

    def extend(self, events: Iterable[Event]) -> None:
        """Add many events, re-sorting and invalidating the columnar cache."""
        self._events = sorted(
            list(self._events) + list(events), key=lambda e: (e.timestamp, e.event_id)
        )
        self._columnar_cache.clear()

    # -- columnar view --------------------------------------------------------
    def columnar_batches(self, layout: "ColumnLayout") -> list["ColumnarBatch"]:
        """The stream as columnar timestamp batches for ``layout``.

        Built on first use and cached per layout (layouts are value objects),
        so repeated engine runs — and every workload compiled to the same
        layout — share one column extraction.  The cache holds the last few
        distinct layouts (LRU: a hit refreshes the entry, so a hot layout
        survives any number of cold ones; bounded so one stream serving many
        workloads cannot retain unbounded column copies) and is invalidated
        by :meth:`append`/:meth:`extend`.
        """
        cached = self._columnar_cache.get(layout)
        if cached is not None:
            # Move-to-end: dicts preserve insertion order, so re-inserting
            # marks the layout most-recently-used for the eviction scan below.
            self._columnar_cache[layout] = self._columnar_cache.pop(layout)
        else:
            from .columnar import ColumnarBatch

            interner: dict[tuple, tuple] = {}
            cached = [
                ColumnarBatch.from_events(timestamp, batch, layout, interner)
                for timestamp, batch in timestamp_batches(self._events)
            ]
            while len(self._columnar_cache) >= _COLUMNAR_CACHE_LIMIT:
                self._columnar_cache.pop(next(iter(self._columnar_cache)))
            self._columnar_cache[layout] = cached
        return cached

    # -- views ---------------------------------------------------------------
    def events(self) -> tuple[Event, ...]:
        """Return the events as an immutable tuple."""
        return tuple(self._events)

    def between(self, start: int, end: int) -> "EventStream":
        """Return the sub-stream with ``start <= timestamp < end``."""
        subset = [e for e in self._events if start <= e.timestamp < end]
        return EventStream(subset, name=f"{self.name}[{start}:{end}]")

    def of_types(self, event_types: Iterable[EventType]) -> "EventStream":
        """Return the sub-stream restricted to the given event types."""
        wanted = set(event_types)
        subset = [e for e in self._events if e.event_type in wanted]
        return EventStream(subset, name=f"{self.name}|{'+'.join(sorted(wanted))}")

    def sample(self, fraction: float, seed: int = 0) -> "EventStream":
        """Return a random sub-stream containing roughly ``fraction`` of events."""
        if not 0.0 < fraction <= 1.0:
            raise ValueError("fraction must be in (0, 1]")
        rng = random.Random(seed)
        subset = [e for e in self._events if rng.random() < fraction]
        return EventStream(subset, name=f"{self.name}~{fraction}")

    def event_types(self) -> tuple[EventType, ...]:
        """The distinct event types occurring in the stream, sorted."""
        return tuple(sorted({e.event_type for e in self._events}))

    # -- statistics ----------------------------------------------------------
    @property
    def start_time(self) -> int:
        """Timestamp of the earliest event (0 for an empty stream)."""
        return self._events[0].timestamp if self._events else 0

    @property
    def end_time(self) -> int:
        """Timestamp of the latest event (0 for an empty stream)."""
        return self._events[-1].timestamp if self._events else 0

    @property
    def duration(self) -> int:
        """Span of the stream in time units (at least 1 for non-empty streams)."""
        if not self._events:
            return 0
        return max(1, self.end_time - self.start_time + 1)

    def statistics(self) -> StreamStatistics:
        """Event totals and per-type counts (the cost model's rate inputs)."""
        counts = Counter(e.event_type for e in self._events)
        return StreamStatistics(
            total_events=len(self._events),
            duration=self.duration,
            counts_per_type=dict(counts),
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"EventStream({self.name!r}, {len(self._events)} events)"


def merge_streams(*streams: EventStream, name: str = "merged") -> EventStream:
    """Merge several streams into one timestamp-ordered stream."""
    events: list[Event] = []
    for stream in streams:
        events.extend(stream.events())
    return EventStream(events, name=name)
