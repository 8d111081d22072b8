"""Event stream abstractions.

An :class:`EventStream` is an ordered, replayable sequence of
:class:`~repro.events.event.Event` objects.  Dataset generators and tests
build them from lists, generator functions, recorded logs
(:meth:`~repro.events.log.EventLogReader.read_stream`), or by merging several
per-type sub-streams; once built, a stream does not change.

A stream holds its events in memory, but not as objects: it stores them in
the event log's own column shape, one timestamp run of
:data:`~repro.events.log.Rows` per timestamp, and builds an :class:`Event`
only when one is asked for (iteration, indexing).  The engine reads those
runs (:meth:`EventStream.runs`) as it reads a recorded log's, batch by batch
through :meth:`ColumnarBatch.from_rows
<repro.events.columnar.ColumnarBatch.from_rows>`.  The paper's evaluation
replays bounded windows of real/synthetic data (hundreds of thousands of
events), which comfortably fits the benchmark scales used here.
"""

from __future__ import annotations

import bisect
import random
import sys
from collections import Counter
from dataclasses import dataclass
from itertools import accumulate, chain, compress, groupby, islice, starmap
from operator import attrgetter, itemgetter, le, ne, or_
from typing import Callable, Iterable, Iterator, Sequence

from .event import Event, EventType
from .log import Rows, rows_to_events

__all__ = [
    "EventStream",
    "StreamStatistics",
    "merge_streams",
    "timestamp_batches",
]

#: One stored timestamp run: ``(timestamp, [Rows...])``, the shape
#: :meth:`EventLogReader.batches_from <repro.events.log.EventLogReader.batches_from>` yields.
Run = tuple[int, list[Rows]]

_run_time = itemgetter(0)


def timestamp_batches(
    events: "EventStream | Iterable[Event]",
) -> Iterator[tuple[int, list[Event]]]:
    """Group a timestamp-ordered event iterable into same-timestamp batches.

    Yields ``(timestamp, [events...])`` pairs without materialising the
    stream: only the current batch (plus the one event of lookahead that
    terminates it) is held in memory, so the executors can consume unbounded
    iterables and generators as well as in-memory :class:`EventStream`\\ s.
    """
    for timestamp, group in groupby(events, key=lambda event: event.timestamp):
        yield timestamp, list(group)


#: Events converted at a time: bounds the events a stream's build holds at once.
_CHUNK_EVENTS = 512

_timestamp = attrgetter("timestamp")
_event_id = attrgetter("event_id")
_event_type = attrgetter("event_type")
_attributes = attrgetter("attributes")


def _join(rows: list[Rows], run: Rows) -> None:
    """Add ``run`` (owned) at the end of a timestamp's ``rows``.

    The run is copied into the last of ``rows`` when their attribute names
    agree, so a timestamp gets a further ``Rows`` only where names change.
    """
    if rows and rows[-1][2].keys() == run[2].keys():
        types, ids, columns = rows[-1]
        types += run[0]
        ids += run[1]
        for name, column in columns.items():
            column += run[2][name]
    else:
        rows.append(run)


def _collect(events: Iterable[Event]) -> list[Run]:
    """The runs of ``events`` in ``(timestamp, event_id)`` order; no event outlives its chunk.

    A chunk out of that order is first sorted (two stable sorts, so equal
    keys keep their arrival order).  Its events then join their timestamp's
    rows a stretch of one timestamp and one attribute-name order at a time;
    a timestamp whose ids drop from one chunk to a later one is put in
    ``event_id`` order at the end.
    """
    by_time: dict[int, list[Rows]] = {}
    unsorted: set[int] = set()
    source = iter(events)
    while chunk := list(islice(source, _CHUNK_EVENTS)):
        times = list(map(_timestamp, chunk))
        ids = list(map(_event_id, chunk))
        if times != sorted(times) or ids != sorted(ids):
            order = sorted(range(len(chunk)), key=ids.__getitem__)
            order.sort(key=times.__getitem__)
            chunk = list(map(chunk.__getitem__, order))
            times = list(map(times.__getitem__, order))
            ids = list(map(ids.__getitem__, order))
        types = list(map(sys.intern, map(_event_type, chunk)))
        attributes = list(map(_attributes, chunk))
        # A stretch ends where the timestamp or the attribute names change;
        # names are compared only when not every event has the first one's.
        changes = map(ne, times, islice(times, 1, None))
        first = attributes[0].keys()
        if sum(map(len, attributes)) != len(first) * len(chunk) or not first >= set().union(*attributes):
            names = list(map(tuple, attributes))
            changes = map(or_, changes, map(ne, names, islice(names, 1, None)))
        ends = [*compress(range(1, len(chunk)), changes), len(chunk)]
        for start, end in zip([0, *ends], ends):
            rows = by_time.setdefault(times[start], [])
            if rows and rows[-1][1][-1] > ids[start]:
                unsorted.add(times[start])
            stretch = attributes[start:end]
            columns = {name: list(map(itemgetter(name), stretch)) for name in stretch[0]}
            _join(rows, (types[start:end], ids[start:end], columns))
    return _ordered(by_time, unsorted)


def _id_sorted(rows: list[Rows]) -> list[Rows]:
    """One timestamp's rows in ``event_id`` order (stable: equal ids keep their order).

    Several rows are always rebuilt, so rows of equal attribute names that
    end up next to each other (merged streams, a filter that drops the rows
    between them) are joined.
    """
    if len(rows) == 1 and all(map(le, rows[0][1], islice(rows[0][1], 1, None))):
        return rows
    ids = [i for run in rows for i in run[1]]
    # Each event's run and its offset in that run; sorted events taken a
    # stretch from one run at a time, runs of equal names merged.
    owner = [r for r, run in enumerate(rows) for _ in run[0]]
    offset = [k for run in rows for k in range(len(run[0]))]
    sorted_rows: list[Rows] = []
    for r, stretch in groupby(sorted(range(len(ids)), key=ids.__getitem__), owner.__getitem__):
        picks = list(map(offset.__getitem__, stretch))
        types, run_ids, columns = rows[r]
        _join(
            sorted_rows,
            (
                list(map(types.__getitem__, picks)),
                list(map(run_ids.__getitem__, picks)),
                {name: list(map(column.__getitem__, picks)) for name, column in columns.items()},
            ),
        )
    return sorted_rows


def _ordered(by_time: dict[int, list[Rows]], unsorted: "set[int] | None" = None) -> list[Run]:
    """Empty ``by_time`` into runs in timestamp order.

    The rows of the ``unsorted`` timestamps (all when ``None``) are put in
    ``event_id`` order; each entry is dropped as its run is made, so a
    re-sort holds one timestamp's old rows at a time.
    """
    runs: list[Run] = []
    for timestamp in sorted(by_time):
        rows = by_time.pop(timestamp)
        if unsorted is None or timestamp in unsorted:
            rows = _id_sorted(rows)
        runs.append((timestamp, rows))
    return runs


def _type_columns(runs: list[Run]) -> Iterator[list[str]]:
    """The ``types`` column of every stored ``Rows``, in stream order."""
    return map(itemgetter(0), chain.from_iterable(map(itemgetter(1), runs)))


@dataclass(frozen=True)
class StreamStatistics:
    """Summary statistics of a stream used by the cost model and reports."""

    total_events: int
    duration: int
    counts_per_type: dict[EventType, int]

    @classmethod
    def from_runs(cls, runs: Iterable[Run]) -> "StreamStatistics":
        """Count ``(timestamp, [Rows...])`` runs in one pass, in any timestamp order.

        The duration spans the lowest to the highest timestamp, at least 1
        when there is an event.  Only one count per type is held, so a log's
        :meth:`~repro.events.log.EventLogReader.batches_from` is measured
        without loading it.
        """
        counts: Counter = Counter()
        low = high = None
        for timestamp, rows in runs:
            if low is None:
                low = high = timestamp
            elif timestamp < low:
                low = timestamp
            elif timestamp > high:
                high = timestamp
            for types, _ids, _columns in rows:
                counts.update(types)
        duration = 0 if low is None else max(1, high - low + 1)
        return cls(sum(counts.values()), duration, dict(counts))

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
    """An in-memory, timestamp-ordered stream of events, stored as columns.

    Parameters
    ----------
    events:
        Any iterable of events.  They are ordered by ``(timestamp,
        event_id)``, equal keys in input order, so that replay order is
        deterministic.  Each event's fields are appended to the columns of
        its timestamp and attribute names, and the event itself is dropped.
    name:
        Optional label used in reports and benchmark output.

    The stream stores one ``(timestamp, [Rows...])`` run per timestamp, in
    the log's :data:`~repro.events.log.Rows` shape: a timestamp holds one
    ``Rows`` when all its events carry the same attribute names.  A stream
    has no mutator, so its views share the stored rows; events are built on
    demand, equal to the ones given but not the same objects.
    """

    def __init__(self, events: Iterable[Event] = (), name: str = "stream") -> None:
        self.name = name
        self._runs = _collect(events)
        self._size = sum(map(len, _type_columns(self._runs)))
        #: Index of each run's first event (built by the first ``__getitem__``).
        self._starts: "list[int] | None" = None

    @classmethod
    def _of_runs(cls, runs: list[Run], name: str) -> "EventStream":
        stream = cls(name=name)
        stream._runs, stream._size = runs, sum(map(len, _type_columns(runs)))
        return stream

    # -- container protocol -------------------------------------------------
    def __iter__(self) -> Iterator[Event]:
        return chain.from_iterable(starmap(rows_to_events, self._runs))

    def __len__(self) -> int:
        return self._size

    def __getitem__(self, index: int) -> Event:
        if index < 0:
            index += self._size
        if not 0 <= index < self._size:
            raise IndexError("stream index out of range")
        if self._starts is None:
            sizes = (sum(map(len, map(itemgetter(0), rows))) for _, rows in self._runs)
            self._starts = list(accumulate(sizes, initial=0))
        position = bisect.bisect_right(self._starts, index) - 1
        timestamp, rows = self._runs[position]
        index -= self._starts[position]
        for types, ids, columns in rows:
            if index < len(types):
                attributes = {name: column[index] for name, column in columns.items()}
                return Event(types[index], timestamp, attributes, ids[index])
            index -= len(types)
        raise AssertionError("run sizes disagree with the stream size")  # pragma: no cover

    def __bool__(self) -> bool:
        return bool(self._runs)

    # -- construction helpers ----------------------------------------------
    @classmethod
    def from_tuples(
        cls,
        rows: Iterable[tuple],
        attribute_names: Sequence[str] = (),
        name: str = "stream",
    ) -> "EventStream":
        """Build a stream from ``(type, timestamp, attr1, attr2, ...)`` tuples.

        Event ids are the row positions; a row with fewer values than
        ``attribute_names`` carries only the leading names.

        Examples
        --------
        >>> s = EventStream.from_tuples([("A", 1, 7), ("B", 2, 7)], ["vehicle"])
        >>> len(s)
        2
        """
        events = (
            Event(event_type, timestamp, dict(zip(attribute_names, values)), event_id)
            for event_id, (event_type, timestamp, *values) in enumerate(rows)
        )
        return cls(events, name=name)

    @classmethod
    def from_runs(cls, runs: Iterable[Run], name: str = "stream") -> "EventStream":
        """Build a stream from timestamp runs of log rows, in any order.

        ``runs`` yields ``(timestamp, [Rows...])`` as
        :meth:`EventLogReader.batches_from <repro.events.log.EventLogReader.batches_from>`
        does; a timestamp may recur.  The values are copied into the
        stream's own columns, ids into lists where a log's run of ids is a
        ``range`` (a run joins its timestamp's last one when their attribute
        names agree), and the type names interned.
        """
        by_time: dict[int, list[Rows]] = {}
        for timestamp, rows in runs:
            stored = by_time.setdefault(timestamp, [])
            for types, ids, columns in rows:
                copied = {name: list(column) for name, column in columns.items()}
                _join(stored, (list(map(sys.intern, types)), list(ids), copied))
        return cls._of_runs(_ordered(by_time), name)

    # -- views ---------------------------------------------------------------
    def runs(self) -> Iterator[Run]:
        """The stored ``(timestamp, [Rows...])`` runs, in stream order.

        The shape :meth:`EventLogReader.batches_from
        <repro.events.log.EventLogReader.batches_from>` yields, so the engine
        builds a stream's batches as it builds a log's.  The rows are the
        stream's own, not copies: read them, do not change them.
        """
        return iter(self._runs)

    def events(self) -> tuple[Event, ...]:
        """Return the events as an immutable tuple."""
        return tuple(self)

    def between(self, start: int, end: int) -> "EventStream":
        """Return the sub-stream with ``start <= timestamp < end``."""
        first = bisect.bisect_left(self._runs, start, key=_run_time)
        last = bisect.bisect_left(self._runs, end, lo=first, key=_run_time)
        return self._of_runs(self._runs[first:last], f"{self.name}[{start}:{end}]")

    def of_types(self, event_types: Iterable[EventType]) -> "EventStream":
        """Return the sub-stream restricted to the given event types."""
        wanted = set(event_types)
        return self._of_runs(self._select(wanted.__contains__), f"{self.name}|{'+'.join(sorted(wanted))}")

    def sample(self, fraction: float, seed: int = 0) -> "EventStream":
        """Return a random sub-stream containing roughly ``fraction`` of events.

        One ``random()`` draw per event in stream order, so a seed always
        selects the same events.
        """
        if not 0.0 < fraction <= 1.0:
            raise ValueError("fraction must be in (0, 1]")
        draw = random.Random(seed).random
        return self._of_runs(self._select(lambda _type: draw() < fraction), f"{self.name}~{fraction}")

    def _select(self, keep: Callable[[str], bool]) -> list[Run]:
        """The stored runs restricted to the events whose type ``keep`` accepts (asked in stream order)."""
        selected: list[Run] = []
        for timestamp, rows in self._runs:
            kept: list[Rows] = []
            for types, ids, columns in rows:
                mask = list(map(keep, types))
                if all(mask):
                    kept.append((types, ids, columns))
                elif any(mask):
                    kept.append(
                        (
                            list(compress(types, mask)),
                            list(compress(ids, mask)),
                            {name: list(compress(column, mask)) for name, column in columns.items()},
                        )
                    )
            if kept:
                selected.append((timestamp, kept if len(kept) == 1 else _id_sorted(kept)))
        return selected

    def event_types(self) -> tuple[EventType, ...]:
        """The distinct event types occurring in the stream, sorted."""
        return tuple(sorted(set(chain.from_iterable(_type_columns(self._runs)))))

    # -- statistics ----------------------------------------------------------
    @property
    def start_time(self) -> int:
        """Timestamp of the earliest event (0 for an empty stream)."""
        return self._runs[0][0] if self._runs else 0

    @property
    def end_time(self) -> int:
        """Timestamp of the latest event (0 for an empty stream)."""
        return self._runs[-1][0] if self._runs else 0

    @property
    def duration(self) -> int:
        """Span of the stream in time units (at least 1 for non-empty streams)."""
        if not self._runs:
            return 0
        return max(1, self.end_time - self.start_time + 1)

    def statistics(self) -> StreamStatistics:
        """Event totals and per-type counts (the cost model's rate inputs)."""
        return StreamStatistics.from_runs(self._runs)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"EventStream({self.name!r}, {self._size} events)"


def merge_streams(*streams: EventStream, name: str = "merged") -> EventStream:
    """Merge several streams into one timestamp-ordered stream (earlier streams win ties)."""
    by_time: dict[int, list[Rows]] = {}
    for stream in streams:
        for timestamp, rows in stream._runs:
            by_time.setdefault(timestamp, []).extend(rows)
    return EventStream._of_runs(_ordered(by_time), name)
