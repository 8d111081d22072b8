"""Bounded-lateness disorder tolerance: watermarks and the reorder buffer.

Every layer of this reproduction assumes in-order arrival — the paper does,
:class:`~repro.events.stream.EventStream` silently re-sorts its input up
front, and the engine's :class:`~repro.events.windows.WindowCursor` hard-fails
on the first timestamp regression.  Real traffic is neither sorted nor
bounded, so this module adds the standard streaming answer: a **bounded
lateness** contract enforced by a watermark-driven reorder buffer.

The contract
------------

* ``max_lateness`` is the producer's promise: an event with timestamp ``t``
  arrives before any event with timestamp ``> t + max_lateness``.
* The **watermark** is derived from what actually arrived: it is
  ``max_seen_timestamp - max_lateness`` (undefined until the first event).
  An arriving event is *late* iff its timestamp is **strictly below** the
  watermark — an event exactly at the watermark is still admissible.
* A buffered timestamp batch is **releasable** iff its timestamp is strictly
  below the watermark: only then can no admissible future event still join
  (or precede) it.  Released batches therefore leave the buffer in sorted
  timestamp order, with the events of each batch in canonical
  ``(timestamp, event_id)`` order — byte-identical to what a pre-sorted
  stream would have produced.

Late events (beyond the promise) hit the **late policy**:

* ``"raise"`` (default) — :class:`DisorderError` naming the offending
  timestamp and the current watermark; the producer broke its promise and
  silent repair would be a correctness lie.
* ``"drop"`` — count the event in ``events_late`` *and* ``events_dropped``
  and discard it.
* a callable — count it in ``events_late`` only and hand the event to the
  callback (a side channel: dead-letter queue, logger, compensating job).

:class:`ReorderFeed` packages the buffer as an iterator of released
``(timestamp, [events])`` batches over an arbitrary arrival-ordered source,
popping **at most one batch per step and never reading ahead** — so at every
suspension point ``processed + buffered + dropped == source_consumed``, the
invariant that lets replay checkpoints snapshot the buffer mid-run
(``docs/disorder.md`` walks through the whole contract).
"""

from __future__ import annotations

import heapq
import random
from itertools import chain, groupby
from operator import itemgetter
from typing import Callable, Iterable, Iterator

from .event import Event
from .log import (
    EventLogReader,
    Row,
    Rows,
    event_from_record,
    event_row,
    event_to_record,
    line_rows,
    row_event,
)
from .stream import EventStream

__all__ = [
    "DisorderError",
    "LatePolicy",
    "ReorderBuffer",
    "ReorderFeed",
    "bounded_shuffle",
    "validate_late_policy",
]

#: A late policy is ``"raise"``, ``"drop"``, or a side-channel callable
#: receiving each late event.
LatePolicy = "str | Callable[[Event], None]"

_row_id = itemgetter(1)
_row_names = itemgetter(3)


class DisorderError(ValueError):
    """An event stream violated its disorder contract.

    Raised when an event arrives later than ``max_lateness`` allows (under
    the ``"raise"`` late policy), or when a timestamp regression reaches an
    engine session directly — i.e. without a reorder buffer in front of it.
    """


def validate_late_policy(policy) -> None:
    """Reject anything that is not ``"raise"``, ``"drop"``, or a callable."""
    if policy in ("raise", "drop") or callable(policy):
        return
    raise ValueError(
        f"late_policy must be 'raise', 'drop', or a callable, got {policy!r}"
    )


class _NullMetrics:
    """Metrics sink of last resort (counts are kept but go nowhere)."""

    events_late = 0
    events_dropped = 0


class ReorderBuffer:
    """Holds out-of-order rows until the watermark passes their timestamp.

    The buffer is a pure data structure — no policy, no metrics: :meth:`fill`
    takes rows from a source until one makes a batch releasable or is late,
    ``pop_ready`` releases the oldest batch the watermark has passed,
    ``pop_drain`` flushes at end of stream.  :class:`ReorderFeed` wires it
    to a source and a late policy.

    It holds one :data:`~repro.events.log.Row` per event, in arrival order
    per timestamp.  A released timestamp's rows are sorted by ``event_id``
    (stably: equal ids keep their arrival order) and transposed back into
    :data:`~repro.events.log.Rows`, so a released batch holds the events a
    pre-sorted :class:`~repro.events.stream.EventStream` would have batched,
    in its order — the disorder determinism contract.
    """

    __slots__ = ("max_lateness", "_batches", "_heap", "_max_seen", "_buffered")

    def __init__(self, max_lateness: int) -> None:
        if max_lateness < 0:
            raise ValueError(f"max_lateness must be >= 0, got {max_lateness}")
        self.max_lateness = max_lateness
        #: Pending rows per timestamp, in arrival order.
        self._batches: dict[int, list[Row]] = {}
        #: Min-heap over the pending timestamps.
        self._heap: list[int] = []
        #: Highest timestamp ever pushed (-1 = nothing yet).
        self._max_seen = -1
        self._buffered = 0

    @property
    def watermark(self) -> "int | None":
        """``max_seen - max_lateness``, or ``None`` before the first event."""
        if self._max_seen < 0:
            return None
        return self._max_seen - self.max_lateness

    @property
    def max_seen(self) -> int:
        """Highest timestamp pushed so far (-1 before the first event)."""
        return self._max_seen

    def fill(self, rows: Iterable[Row]) -> "tuple[int, Row | None]":
        """Buffer rows from ``rows`` until one makes a batch releasable, one is late, or they end.

        Returns how many rows were taken and the late row, which is not
        buffered, when one stopped it (else ``None``); the rest stay in
        ``rows``.  Only a row that raises the highest timestamp moves the
        watermark, so only such a row can make a batch releasable — in a
        log frame, row 0.
        """
        batches, heap = self._batches, self._heap
        max_seen = self._max_seen
        watermark = max_seen - self.max_lateness  # below every timestamp before the first row
        taken = 0
        for row in rows:
            taken += 1
            timestamp = row[0]
            if timestamp < watermark:
                self._max_seen = max_seen
                self._buffered += taken - 1
                return taken, row
            held = batches.get(timestamp)
            if held is None:
                batches[timestamp] = [row]
                heapq.heappush(heap, timestamp)
            else:
                held.append(row)
            if timestamp > max_seen:
                max_seen = timestamp
                watermark = timestamp - self.max_lateness
                if heap[0] < watermark:
                    break
        self._max_seen = max_seen
        self._buffered += taken
        return taken, None

    def push(self, row: Row) -> bool:
        """Buffer one row; ``False`` (not buffered) when it is late."""
        return self.fill((row,))[1] is None

    def pop_ready(self) -> "tuple[int, list[Rows]] | None":
        """Release the oldest batch strictly below the watermark, if any."""
        watermark = self.watermark
        if watermark is None or not self._heap or self._heap[0] >= watermark:
            return None
        return self._pop()

    def pop_drain(self) -> "tuple[int, list[Rows]] | None":
        """Release the oldest batch regardless of the watermark (end of stream)."""
        if not self._heap:
            return None
        return self._pop()

    def _pop(self) -> "tuple[int, list[Rows]]":
        timestamp = heapq.heappop(self._heap)
        held = self._batches.pop(timestamp)
        self._buffered -= len(held)
        held.sort(key=_row_id)
        batch: list[Rows] = []
        for names, run in groupby(held, key=_row_names):
            _, ids, types, _, values = zip(*run)
            batch.append((list(types), list(ids), dict(zip(names, map(list, zip(*values))))))
        return timestamp, batch

    def __len__(self) -> int:
        """Number of buffered (pushed but not yet released) events."""
        return self._buffered

    # -- checkpointing -----------------------------------------------------------
    def export_state(self) -> dict:
        """Snapshot the buffer as a JSON-safe dict.

        Pending batches are listed in ascending timestamp order (events in
        their canonical in-batch order) using the event-log record codec, so
        the export is independent of arrival order — the property that makes
        a resumed run's state hash comparable to the full run's.
        """
        return {
            "max_lateness": self.max_lateness,
            "max_seen": self._max_seen,
            "batches": [
                [timestamp, [event_to_record(row_event(row)) for row in sorted(held, key=_row_id)]]
                for timestamp, held in sorted(self._batches.items())
            ],
        }

    def restore_state(self, state: dict) -> None:
        """Restore a snapshot produced by :meth:`export_state`."""
        if state["max_lateness"] != self.max_lateness:
            raise ValueError(
                f"reorder snapshot was taken with max_lateness="
                f"{state['max_lateness']}, this buffer uses {self.max_lateness}"
            )
        self._batches = {
            timestamp: [event_row(event_from_record(record)) for record in records]
            for timestamp, records in state["batches"]
        }
        self._heap = sorted(self._batches)
        self._max_seen = state["max_seen"]
        self._buffered = sum(len(batch) for batch in self._batches.values())


def _source_rows(source) -> Iterator[Row]:
    """The rows of ``source`` in arrival order, for a :class:`ReorderFeed`.

    An :class:`~repro.events.log.EventLogReader` zips them from its lines
    (from its ``start``) and an :class:`~repro.events.stream.EventStream`
    from its stored runs, without an :class:`Event`; any other event
    iterable gives one row per event.
    """
    if isinstance(source, EventLogReader):
        return source.rows_from(source.start)
    if isinstance(source, EventStream):
        return chain.from_iterable(
            line_rows(timestamp, *run) for timestamp, runs in source.runs() for run in runs
        )
    return map(event_row, source)


class ReorderFeed:
    """Watermark-released ``(timestamp, [Rows...])`` batches over a disordered source.

    The feed advances lazily and never reads ahead of what it must: each
    ``next()`` first releases an already-ready batch (none is ever skipped),
    and only when none is ready does it consume source rows — stopping at
    the first row whose push makes a batch releasable, with the rest of its
    log line still held by the source.  When the source is exhausted the
    buffer drains in timestamp order.  Consequently
    ``processed + buffered + dropped == source_consumed`` holds, row by row,
    at every batch boundary, which is what lets checkpoints pair a source
    position (``source_consumed``) with a buffer snapshot and resume exactly.

    Parameters
    ----------
    source:
        An event log reader, an event stream or any event iterable in
        *arrival* order (not timestamp order), read by :func:`_source_rows`.
    buffer:
        The :class:`ReorderBuffer` to run the watermark protocol on — pass a
        restored buffer to resume mid-stream.
    late_policy:
        ``"raise"`` / ``"drop"`` / callable, see the module docstring.
    metrics:
        Any object with mutable integer ``events_late`` and
        ``events_dropped`` attributes (the engine passes its
        :class:`~repro.executor.metrics.MetricsCollector`).
    """

    def __init__(
        self,
        source,
        buffer: ReorderBuffer,
        late_policy="raise",
        metrics=None,
    ) -> None:
        validate_late_policy(late_policy)
        self._rows = _source_rows(source)
        self.buffer = buffer
        self.late_policy = late_policy
        self.metrics = metrics if metrics is not None else _NullMetrics()
        #: Source events consumed so far (processed + buffered + dropped).
        self.source_consumed = 0

    def __iter__(self) -> "Iterator[tuple[int, list[Rows]]]":
        return self

    def __next__(self) -> "tuple[int, list[Rows]]":
        buffer = self.buffer
        ready = buffer.pop_ready()
        if ready is not None:
            return ready
        while True:
            taken, late = buffer.fill(self._rows)
            self.source_consumed += taken
            if late is None:
                break
            self._handle_late(late)
        # The fill stopped at a row that made the oldest batch releasable, or
        # at the end of the source: either way that batch goes next.
        drained = buffer.pop_drain()
        if drained is not None:
            return drained
        raise StopIteration

    def _handle_late(self, row: Row) -> None:
        policy = self.late_policy
        if policy == "raise":
            raise DisorderError(
                f"event {row[1]} at timestamp {row[0]} arrived "
                f"behind watermark {self.buffer.watermark} "
                f"(max seen timestamp {self.buffer.max_seen}, "
                f"max_lateness {self.buffer.max_lateness}): the stream broke its "
                f"bounded-lateness promise; raise max_lateness or choose a "
                f"'drop'/callback late policy (docs/disorder.md)"
            )
        self.metrics.events_late += 1
        if policy == "drop":
            self.metrics.events_dropped += 1
        else:
            policy(row_event(row))


def bounded_shuffle(
    events: Iterable[Event], max_lateness: int, seed: int
) -> list[Event]:
    """A seeded arrival order in which no event is ever late for ``max_lateness``.

    Each event's arrival key is ``timestamp + jitter`` with jitter drawn
    uniformly from ``[0, max_lateness]``; the sort is stable, so equal keys
    keep their input order.  For any event ``a`` delivered at key ``k_a``,
    every earlier-delivered event ``b`` satisfies
    ``b.timestamp <= k_b <= k_a <= a.timestamp + max_lateness`` — hence the
    watermark at ``a``'s arrival is at most ``a.timestamp`` and ``a`` is
    never (strictly) behind it.  Equal keys go lower timestamp first, so no
    event ever arrives exactly ``max_lateness`` late, at the watermark.
    Tests and the ``ops-mixed`` benchmark input use it to generate
    adversarial-but-legal arrival orders.
    """
    if max_lateness < 0:
        raise ValueError(f"max_lateness must be >= 0, got {max_lateness}")
    rng = random.Random(seed)
    ordered = list(events)
    keyed = [(event.timestamp + rng.randint(0, max_lateness), index) for index, event in enumerate(ordered)]
    return [ordered[index] for _key, index in sorted(keyed, key=lambda pair: (pair[0], pair[1]))]
