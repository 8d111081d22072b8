"""Durable JSONL event log: record a stream once, replay it byte-identically.

The log is a plain-text, append-only JSON Lines file (``docs/replay.md``,
"The event log format"):

* line 1 is a **header** object ``{"format": "repro-event-log",
  "version": 4, "stream": <name>}`` that readers validate before touching
  any event (versions 1 to 3 still read: a version 1 file is a version 2
  file without frames, a version 2 file a version 3 file without id runs,
  a version 3 file a version 4 file without timestamp columns);
* every following line is one event **record** with a fixed field order
  ``{"t": ..., "type": "A", "id": ..., "attrs": {...}}``, or a **frame**
  ``{"t": ..., "type": [...], "id": [...], "attrs": {name: [...]}}`` holding
  two or more consecutively appended events that share an attribute-name
  tuple, one column per field.  Row 0 of a frame holds its largest
  timestamp; ``"t"`` is that timestamp where every row shares it, else a
  column of one timestamp per row.  A frame whose ids step by
  +1 stores only the first, ``"id": {"from": <first id>}``, when that is
  strictly shorter than the id list (two small ids stay a list:
  ``[1234,1235]`` is shorter than ``{"from":1234}``), and the reader hands
  those ids on as a ``range``.  ``attrs`` keys are sorted and values
  are restricted to finite JSON scalars (str/int/float/bool/None).  Compact
  separators, sorted keys and fixed cut rules make the encoding canonical:
  the same stream and ``fsync_every`` always produce the same bytes.

:class:`EventLogWriter` appends events and fsyncs every ``fsync_every``
events (durability batching); :class:`EventLogReader` validates the header
and iterates lazily, event by event (:meth:`~EventLogReader.events_from`) or
one timestamp run of column rows at a time
(:meth:`~EventLogReader.batches_from`, the engine's unit), from any event
index — which is how checkpoint resume seeks to ``events_consumed``.
"""

from __future__ import annotations

import io
import json
import math
import os
from itertools import chain, compress, islice, repeat, starmap
from operator import ne
from pathlib import Path
from typing import TYPE_CHECKING, Any, Iterable, Iterator, Sequence

from .event import Event

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .stream import EventStream

__all__ = [
    "LOG_FORMAT",
    "LOG_VERSION",
    "EventLogError",
    "EventLogWriter",
    "EventLogReader",
    "event_to_record",
    "event_from_record",
    "rows_to_events",
    "line_rows",
    "event_row",
    "row_event",
    "write_event_log",
]

#: Format marker stored in (and demanded of) every log header.
LOG_FORMAT = "repro-event-log"

#: Schema version written; readers accept it and every older one (a version 1
#: file is a version 2 file without frames, a version 2 file a version 3 file
#: without id runs, a version 3 file a version 4 file without timestamp
#: columns) and reject anything else.
LOG_VERSION = 4

#: Rows a frame that spans timestamps holds at most, so that a disordered
#: stream written with ``fsync_every=0`` still cuts its frames (a frame of one
#: timestamp is cut only by a sync, as it always was).
_MIXED_FRAME_ROWS = 4096

#: Compact, deterministic JSON encoding shared by header and event lines.
_JSON_SEPARATORS = (",", ":")

#: Attribute value types the log can represent losslessly.
_SCALAR_TYPES = (str, int, float, bool, type(None))


#: One decoded run of rows sharing an attribute-name set, as parallel columns:
#: ``(types, ids, {attribute name: values})``.  A log's ids are a ``range``
#: where the frame stored them as a run (a stream stores lists).
Rows = tuple[list[str], Sequence[int], dict[str, list[Any]]]

#: One event as the reorder feed holds it, made per line with ``zip``:
#: ``(timestamp, id, type, attribute names, values)``.
Row = tuple[int, Any, str, tuple[str, ...], tuple]


class EventLogError(ValueError):
    """Raised for malformed logs: bad header or body line, version skew, non-scalar attrs."""


def _unloggable(value: Any) -> "str | None":
    """Why ``value`` cannot be stored in a log line, or ``None`` when it can."""
    if not isinstance(value, _SCALAR_TYPES):
        return f"non-scalar value {value!r} ({type(value).__name__})"
    if isinstance(value, float) and not math.isfinite(value):
        return f"non-finite value {value!r}"
    return None


def event_to_record(event: Event) -> dict:
    """Encode an event as its canonical log record (fixed field order).

    Raises :class:`EventLogError` if the id or an attribute value is not a
    JSON scalar — the log format deliberately refuses values that would not
    round-trip exactly (sets, tuples, custom objects, a dict that would read
    as a run of ids) — or is a NaN or an infinity, which JSON cannot spell.
    Both are refused here, when the event is appended, not when its line is
    written.
    """
    attrs = event.attributes
    for name, value in attrs.items():
        fault = _unloggable(value)
        if fault:
            raise EventLogError(
                f"attribute {name!r} of event {event.event_id} has {fault}; the event "
                "log only stores finite str/int/float/bool/None attributes"
            )
    fault = _unloggable(event.event_id)
    if fault:
        raise EventLogError(
            f"the id of event {event.event_type!r} at t={event.timestamp} has {fault}; "
            "the event log only stores finite str/int/float/bool/None ids"
        )
    return {
        "t": event.timestamp,
        "type": event.event_type,
        "id": event.event_id,
        "attrs": {name: attrs[name] for name in sorted(attrs)},
    }


def event_from_record(record: dict) -> Event:
    """Decode one log record back into an :class:`~repro.events.event.Event`."""
    return Event(record["type"], record["t"], dict(record["attrs"]), record["id"])


def _times(timestamp: "int | list[int]") -> Iterator[int]:
    """Per-row timestamps of a frame: its ``"t"`` column, or the one it shares."""
    return iter(timestamp) if timestamp.__class__ is list else repeat(timestamp)


def _cells(columns: dict) -> Iterator[tuple]:
    """Per-row value tuples of a frame's columns (``()`` where the rows carry none)."""
    return zip(*columns.values()) if columns else repeat(())


def _frame_events(
    timestamp: "int | list[int]", types: list, ids: Sequence[int], columns: dict
) -> Iterator[Event]:
    """The events of one frame's columns, built without a Python-level loop."""
    attrs = map(dict, map(zip, repeat(tuple(columns)), _cells(columns)))
    return map(Event, types, _times(timestamp), attrs, ids)


def line_rows(timestamp: "int | list[int]", types: "str | list", ids: Any, attrs: dict) -> Iterator[Row]:
    """One :data:`Row` per event of a decoded line, zipped from its columns."""
    if types.__class__ is str:
        return iter(((timestamp, ids, types, tuple(attrs), tuple(attrs.values())),))
    return zip(_times(timestamp), ids, types, repeat(tuple(attrs)), _cells(attrs))


def event_row(event: Event) -> Row:
    """An :class:`Event` as the :data:`Row` the reorder feed holds (:func:`row_event` inverts it)."""
    attributes = event.attributes
    return (event.timestamp, event.event_id, event.event_type, tuple(attributes), tuple(attributes.values()))


def row_event(row: Row) -> Event:
    """The :class:`Event` of one :data:`Row`."""
    timestamp, event_id, event_type, names, values = row
    return Event(event_type, timestamp, dict(zip(names, values)), event_id)


def rows_to_events(timestamp: int, rows: "Iterable[Rows]") -> Iterator[Event]:
    """The events of one timestamp run of :data:`Rows`, in append order."""
    for types, ids, columns in rows:
        yield from _frame_events(timestamp, types, ids, columns)


def _encode_line(payload: "dict | list") -> str:
    return json.dumps(payload, separators=_JSON_SEPARATORS, sort_keys=False, allow_nan=False)


class EventLogWriter:
    """Append-only event log writer with batched fsync.

    Parameters
    ----------
    path:
        File to create (an existing file is truncated; the header is written
        immediately).
    stream_name:
        Recorded in the header; purely descriptive.
    fsync_every:
        Flush + fsync after this many appended events (``0`` disables
        intermediate syncs; close always flushes and syncs).  Batching
        amortises the sync cost while bounding the number of events a crash
        can lose.

    Consecutive events that share attribute names form the open *run*,
    written as one frame line (a one-event run as a record line); a frame
    whose ids step by +1 stores ``"id": {"from": <first id>}`` when that
    encodes strictly shorter than the id list.  The run is cut when the
    names change, when an event's timestamp is greater than every timestamp
    already in the run (so row 0 holds the frame's largest timestamp), when
    a run that spans timestamps would pass :data:`_MIXED_FRAME_ROWS`, at
    every sync and on :meth:`close` — so a long run may span frames, and the
    bytes are a function of the stream and ``fsync_every``.  An in-order
    stream is cut exactly where a timestamp changes, as version 3 cut it.

    Usable as a context manager::

        with EventLogWriter(path, stream_name=stream.name) as writer:
            for event in stream:
                writer.append(event)
    """

    def __init__(self, path: "str | Path", stream_name: str = "stream", fsync_every: int = 512) -> None:
        if fsync_every < 0:
            raise ValueError("fsync_every must be >= 0")
        self.path = Path(path)
        self.fsync_every = fsync_every
        self.events_written = 0
        self._pending = 0
        #: Records of the open run, the names they share, and whether their
        #: timestamps differ (row 0's is the largest).
        self._run: list[dict] = []
        self._run_names: tuple = ()
        self._run_mixed = False
        self._handle: "io.TextIOWrapper | None" = self.path.open("w", encoding="utf-8")
        header = {"format": LOG_FORMAT, "version": LOG_VERSION, "stream": stream_name}
        self._handle.write(_encode_line(header) + "\n")
        self._sync()

    def append(self, event: Event) -> None:
        """Append one event; syncs when the fsync batch fills up."""
        if self._handle is None:
            raise EventLogError(f"writer for {self.path} is closed")
        record = event_to_record(event)
        names = tuple(record["attrs"])
        run = self._run
        if run:
            timestamp, first = record["t"], run[0]["t"]
            if (
                names != self._run_names
                or timestamp > first
                or (len(run) >= _MIXED_FRAME_ROWS and (self._run_mixed or timestamp != first))
            ):
                self._cut()
            elif timestamp != first:
                self._run_mixed = True
        if not run:
            self._run_names, self._run_mixed = names, False
        run.append(record)
        self.events_written += 1
        self._pending += 1
        if self.fsync_every and self._pending >= self.fsync_every:
            self._sync()

    def extend(self, events: Iterable[Event]) -> None:
        """Append many events (same batched-fsync policy as :meth:`append`)."""
        for event in events:
            self.append(event)

    def _cut(self) -> None:
        """Write the open run as one line: its record, or a frame of its columns."""
        run = self._run
        if not run:
            return
        line = run[0]
        if len(run) > 1:
            timestamp = [record["t"] for record in run] if self._run_mixed else line["t"]
            ids: "list | dict" = [record["id"] for record in run]
            first = ids[0]
            if set(map(type, ids)) == {int} and ids == list(range(first, first + len(ids))):
                span = {"from": first}
                if len(_encode_line(span)) < len(_encode_line(ids)):
                    ids = span
            line = {
                "t": timestamp,
                "type": [record["type"] for record in run],
                "id": ids,
                "attrs": {name: [record["attrs"][name] for record in run] for name in self._run_names},
            }
        self._handle.write(_encode_line(line) + "\n")
        run.clear()

    def _sync(self) -> None:
        assert self._handle is not None
        self._cut()
        self._handle.flush()
        os.fsync(self._handle.fileno())
        self._pending = 0

    def close(self) -> None:
        """Flush, fsync and close the file (idempotent)."""
        if self._handle is None:
            return
        self._sync()
        self._handle.close()
        self._handle = None

    def __enter__(self) -> "EventLogWriter":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def _frame_ids(timestamp: Any, types: Any, ids: Any, columns: Any) -> Sequence[int]:
    """A frame's ids, a ``range`` for a run; ``ValueError`` unless the fields form a frame.

    Called for every line that is not a well-formed record, so it also words
    a record's faults.  These checks stand in for :class:`Event`'s own on
    rows that never become objects.
    """
    if timestamp.__class__ is list and types.__class__ is list:
        if len(timestamp) != len(types) or set(map(type, timestamp)) != {int} or min(timestamp) < 0:
            raise ValueError(
                f"a timestamp column is not one non-negative integer per row ({len(types)} types)"
            )
    elif timestamp.__class__ is not int or timestamp < 0:
        raise ValueError(f"timestamp {timestamp!r} is not a non-negative integer")
    if columns.__class__ is not dict:
        raise ValueError("attrs is not an object")
    if types.__class__ is list:
        size = len(types)
        if not size:
            raise ValueError("an empty frame")
        if ids.__class__ is dict:
            first = ids.get("from")
            if first.__class__ is not int or len(ids) != 1:
                raise ValueError('a run of ids is not {"from": <integer>}')
            ids = range(first, first + size)
        elif ids.__class__ is not list or len(ids) != size:
            raise ValueError(f"a frame needs columns of one length ({size} types)")
        for column in columns.values():
            if column.__class__ is not list or len(column) != size:
                raise ValueError(f"a frame needs columns of one length ({size} types)")
        if set(map(type, types)) == {str} and "" not in types:
            return ids
    elif types.__class__ is str and types and ids.__class__ is dict:
        raise ValueError("a run of ids on a record")
    raise ValueError("an event type is not a non-empty string")


def _timestamp_runs(lines: "Iterable[tuple]") -> "Iterator[tuple[int, list, Sequence[int], dict]]":
    """Decoded lines as column runs of one timestamp each, in arrival order.

    A record is a one-row run; a frame whose rows share a timestamp is one
    run, and one that spans timestamps is cut wherever the timestamp changes.
    """
    for timestamp, types, ids, attrs in lines:
        if types.__class__ is str:
            yield timestamp, [types], [ids], {name: [value] for name, value in attrs.items()}
        elif timestamp.__class__ is not list:
            yield timestamp, types, ids, attrs
        else:
            changes = compress(range(1, len(timestamp)), map(ne, timestamp, islice(timestamp, 1, None)))
            ends = [*changes, len(timestamp)]
            for first, end in zip([0, *ends], ends):
                columns = {name: column[first:end] for name, column in attrs.items()}
                yield timestamp[first], types[first:end], ids[first:end], columns


class EventLogReader:
    """Seekable reader over a recorded event log (versions 1 to 4).

    The header is validated eagerly on construction.  Iteration is lazy
    (one line at a time), so arbitrarily long logs replay in constant
    memory, and every body line is checked as it is decoded: a torn, garbled
    or inconsistent line raises :class:`EventLogError` naming the file and
    the 1-based line number, after the events before it were delivered.
    Both iterators start at any event index — checkpoint resume seeks to
    ``events_consumed`` this way; skipped record lines are read but never
    JSON-parsed, skipped frames are parsed for their row count.

    ``start`` is where plain iteration (and an engine handed the reader)
    begins; :meth:`events_from` / :meth:`batches_from` take explicit indices.
    """

    def __init__(self, path: "str | Path", start: int = 0) -> None:
        self.path = Path(path)
        self.start = start
        with self.path.open("r", encoding="utf-8") as handle:
            first = handle.readline()
        if not first:
            raise EventLogError(f"{self.path} is empty (missing event-log header)")
        try:
            header = json.loads(first)
        except json.JSONDecodeError as error:
            raise EventLogError(f"{self.path} has an unparseable header line: {error}") from None
        if not isinstance(header, dict) or header.get("format") != LOG_FORMAT:
            raise EventLogError(f"{self.path} is not a {LOG_FORMAT} file")
        if header.get("version") not in range(1, LOG_VERSION + 1):
            raise EventLogError(
                f"{self.path} has log version {header.get('version')!r}; "
                f"this reader understands versions 1 to {LOG_VERSION}"
            )
        #: The validated header object (``format``/``version``/``stream``).
        self.header: dict = header

    @property
    def stream_name(self) -> str:
        """Stream name recorded in the header."""
        return self.header.get("stream", "stream")

    def __iter__(self) -> Iterator[Event]:
        return self.events_from(self.start)

    def _lines(self, start: int) -> "Iterator[tuple[int, Any, Any, dict]]":
        """Decoded, checked body lines from event index ``start`` on.

        Yields ``(timestamp, type, id, attrs)``: scalars and an attribute
        dict for a record, parallel columns for a frame (its timestamp a
        list where the rows' differ, its ids a ``range`` where stored as a
        run; sliced when ``start`` falls inside it).
        Below ``start`` a line without ``[`` is a record (a frame's types
        are a list) and is counted unparsed; blank lines are ignored.
        """
        if start < 0:
            raise ValueError("start must be >= 0")
        index = 0
        loads = json.JSONDecoder().decode  # json.loads without its per-call argument checks
        with self.path.open("r", encoding="utf-8") as handle:
            handle.readline()  # header, validated in __init__
            for number, line in enumerate(handle, 2):
                if index < start and "[" not in line:
                    index += bool(line.strip())
                    continue
                try:
                    record = loads(line)
                    timestamp, types = record["t"], record["type"]
                    ids, attrs = record["id"], record["attrs"]
                    if not (
                        types.__class__ is str
                        and types
                        and timestamp.__class__ is int
                        and timestamp >= 0
                        and attrs.__class__ is dict
                        and ids.__class__ is not dict
                    ):
                        ids = _frame_ids(timestamp, types, ids, attrs)
                except (ValueError, KeyError, TypeError) as error:
                    if not line.strip():
                        continue
                    raise EventLogError(
                        f"{self.path}, line {number}: malformed event line "
                        f"({type(error).__name__}: {error})"
                    ) from None
                if index < start:
                    index += len(types) if types.__class__ is list else 1
                    if index <= start:
                        continue
                    keep = start - index  # negative: the frame's last rows
                    types, ids = types[keep:], ids[keep:]
                    if timestamp.__class__ is list:
                        timestamp = timestamp[keep:]
                    attrs = {name: column[keep:] for name, column in attrs.items()}
                yield timestamp, types, ids, attrs

    def events_from(self, start: int) -> Iterator[Event]:
        """Iterate events lazily in append order, skipping the first ``start``."""
        for timestamp, types, ids, attrs in self._lines(start):
            if types.__class__ is str:
                yield Event(types, timestamp, attrs, ids)
            else:
                yield from _frame_events(timestamp, types, ids, attrs)

    def rows_from(self, start: int) -> Iterator[Row]:
        """One :data:`Row` per event in append order, skipping the first ``start``.

        The reorder feed's source: rows are zipped from each line's columns
        as the feed takes them, and no :class:`Event` is built.
        """
        return chain.from_iterable(starmap(line_rows, self._lines(start)))

    def batches_from(self, start: int) -> "Iterator[tuple[int, list[Rows]]]":
        """Iterate ``(timestamp, rows)`` per timestamp run, skipping ``start`` events.

        The log's form of :func:`~repro.events.stream.timestamp_batches`:
        adjacent lines with one timestamp are one batch however the writer
        cut them (a split batch would let its second half extend matches of
        its first), a frame that spans timestamps is split into its
        same-timestamp stretches in arrival order, and the parts of a batch
        with equal attribute names merge into one
        :data:`Rows` — a batch is a single ``Rows`` unless events of one
        timestamp carry different names.  Ids stay a ``range`` where a run
        continues a run, and become a list at any other merge.  No
        :class:`Event` is built here, nor by :meth:`ColumnarBatch.from_rows
        <repro.events.columnar.ColumnarBatch.from_rows>` or the pane kernels.
        """
        current: "int | None" = None
        rows: list = []
        for timestamp, types, ids, attrs in _timestamp_runs(self._lines(start)):
            if timestamp != current:
                if rows:
                    yield current, rows
                current, rows = timestamp, [(types, ids, attrs)]
            elif rows[-1][2].keys() == attrs.keys():
                last_types, last_ids, last_columns = rows[-1]
                last_types += types
                for name, column in attrs.items():
                    last_columns[name] += column
                if last_ids.__class__ is list:
                    last_ids += ids
                elif ids.__class__ is range and ids.start == last_ids.stop:
                    rows[-1] = (last_types, range(last_ids.start, ids.stop), last_columns)
                else:
                    rows[-1] = (last_types, [*last_ids, *ids], last_columns)
            else:
                rows.append((types, ids, attrs))
        if rows:
            yield current, rows

    def count_events(self) -> int:
        """Number of events stored in the log (scans and checks the file)."""
        return sum(len(t) if t.__class__ is list else 1 for _, t, _, _ in self._lines(0))

    def count_lines(self) -> int:
        """Number of body lines (records and frames; an unparsed scan)."""
        with self.path.open("r", encoding="utf-8") as handle:
            return sum(1 for line in handle if line.strip()) - 1

    def read_stream(self) -> "EventStream":
        """The whole log as an :class:`~repro.events.stream.EventStream`.

        The stream is filled from :meth:`batches_from`'s column rows; no
        :class:`Event` is built.
        """
        from .stream import EventStream

        return EventStream.from_runs(self.batches_from(0), name=self.stream_name)


def write_event_log(
    events: "EventStream | Iterable[Event]",
    path: "str | Path",
    stream_name: "str | None" = None,
    fsync_every: int = 512,
) -> int:
    """Record an event iterable to ``path``; returns the number of events.

    When ``stream_name`` is omitted and ``events`` has a ``name`` attribute
    (an :class:`~repro.events.stream.EventStream` does), that name is stored
    in the header.
    """
    if stream_name is None:
        stream_name = getattr(events, "name", "stream")
    with EventLogWriter(path, stream_name=stream_name, fsync_every=fsync_every) as writer:
        writer.extend(events)
        return writer.events_written
