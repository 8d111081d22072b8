"""Durable JSONL event log: record a stream once, replay it byte-identically.

The log is a plain-text, append-only JSON Lines file:

* line 1 is a **header** object ``{"format": "repro-event-log",
  "version": 1, "stream": <name>}`` that readers validate before touching
  any event;
* every following line is one event with a **fixed field order**
  ``{"t": ..., "type": ..., "id": ..., "attrs": {...}}`` where ``attrs``
  keys are sorted and values are restricted to JSON scalars
  (str/int/float/bool/None).  Compact separators and sorted keys make the
  encoding canonical: the same stream always produces the same bytes, so
  logs can be diffed, hashed and deduplicated.

:class:`EventLogWriter` appends events and fsyncs every ``fsync_every``
events (durability batching); :class:`EventLogReader` validates the header,
iterates lazily and can skip ahead to an event index, which is how
checkpoint resume seeks to ``events_consumed`` without re-parsing attribute
payloads into :class:`~repro.events.event.Event` objects.
"""

from __future__ import annotations

import io
import json
import os
from pathlib import Path
from typing import TYPE_CHECKING, Iterable, Iterator

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
    "write_event_log",
    "read_event_log",
]

#: Format marker stored in (and demanded of) every log header.
LOG_FORMAT = "repro-event-log"

#: Current schema version; readers reject logs from a different version.
LOG_VERSION = 1

#: Compact, deterministic JSON encoding shared by header and event lines.
_JSON_SEPARATORS = (",", ":")

#: Attribute value types the log can represent losslessly.
_SCALAR_TYPES = (str, int, float, bool, type(None))


class EventLogError(ValueError):
    """Raised for malformed logs: bad header, version skew, non-scalar attrs."""


def event_to_record(event: Event) -> dict:
    """Encode an event as its canonical log record (fixed field order).

    Raises :class:`EventLogError` if any attribute value is not a JSON
    scalar — the log format deliberately refuses values that would not
    round-trip exactly (sets, tuples, custom objects).
    """
    attrs = event.attributes
    for name, value in attrs.items():
        if not isinstance(value, _SCALAR_TYPES):
            raise EventLogError(
                f"attribute {name!r} of event {event.event_id} has non-scalar "
                f"value {value!r} ({type(value).__name__}); the event log only "
                "stores str/int/float/bool/None attributes"
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


def _encode_line(payload: dict) -> str:
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
        self._handle: "io.TextIOWrapper | None" = self.path.open("w", encoding="utf-8")
        header = {"format": LOG_FORMAT, "version": LOG_VERSION, "stream": stream_name}
        self._handle.write(_encode_line(header) + "\n")
        self._sync()

    def append(self, event: Event) -> None:
        """Append one event; syncs when the fsync batch fills up."""
        if self._handle is None:
            raise EventLogError(f"writer for {self.path} is closed")
        self._handle.write(_encode_line(event_to_record(event)) + "\n")
        self.events_written += 1
        self._pending += 1
        if self.fsync_every and self._pending >= self.fsync_every:
            self._sync()

    def extend(self, events: Iterable[Event]) -> None:
        """Append many events (same batched-fsync policy as :meth:`append`)."""
        for event in events:
            self.append(event)

    def _sync(self) -> None:
        assert self._handle is not None
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


class EventLogReader:
    """Seekable reader over a recorded event log.

    The header is validated eagerly on construction.  Iteration is lazy
    (one line at a time), so arbitrarily long logs replay in constant
    memory; :meth:`events_from` skips ``start`` events cheaply (skipped
    lines are read but never JSON-parsed) which is what checkpoint resume
    uses to seek to ``events_consumed``.
    """

    def __init__(self, path: "str | Path") -> None:
        self.path = Path(path)
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
        if header.get("version") != LOG_VERSION:
            raise EventLogError(
                f"{self.path} has log version {header.get('version')!r}; "
                f"this reader understands version {LOG_VERSION}"
            )
        #: The validated header object (``format``/``version``/``stream``).
        self.header: dict = header

    @property
    def stream_name(self) -> str:
        """Stream name recorded in the header."""
        return self.header.get("stream", "stream")

    def __iter__(self) -> Iterator[Event]:
        return self.events_from(0)

    def events_from(self, start: int) -> Iterator[Event]:
        """Iterate events lazily, skipping the first ``start`` of them."""
        if start < 0:
            raise ValueError("start must be >= 0")
        with self.path.open("r", encoding="utf-8") as handle:
            handle.readline()  # header, validated in __init__
            index = 0
            for line in handle:
                if not line.strip():
                    continue
                if index >= start:
                    yield event_from_record(json.loads(line))
                index += 1

    def count_events(self) -> int:
        """Number of events stored in the log (scans the file)."""
        total = 0
        for _ in self.events_from(0):
            total += 1
        return total

    def read_stream(self) -> "EventStream":
        """Materialise the whole log as an :class:`~repro.events.stream.EventStream`."""
        from .stream import EventStream

        return EventStream(self, name=self.stream_name)


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


def read_event_log(path: "str | Path") -> "EventStream":
    """Read a recorded log back into an :class:`~repro.events.stream.EventStream`."""
    return EventLogReader(path).read_stream()
