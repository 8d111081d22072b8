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
from bisect import insort
from typing import Callable, Iterable, Iterator

from .event import Event
from .log import event_from_record, event_to_record

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
    """Holds out-of-order events until the watermark passes their timestamp.

    The buffer is a pure data structure — no policy, no metrics: ``push``
    refuses late events (returns ``False``), ``pop_ready`` releases the
    oldest batch the watermark has passed, ``pop_drain`` flushes at end of
    stream.  :class:`ReorderFeed` wires it to a source and a late policy.

    Within a timestamp, events are kept in canonical ``event_id`` order
    (insertion by bisect), so a released batch is byte-identical to the
    batch a pre-sorted :class:`~repro.events.stream.EventStream` would have
    yielded — the disorder determinism contract.
    """

    __slots__ = ("max_lateness", "_batches", "_heap", "_max_seen", "_buffered")

    def __init__(self, max_lateness: int) -> None:
        if max_lateness < 0:
            raise ValueError(f"max_lateness must be >= 0, got {max_lateness}")
        self.max_lateness = max_lateness
        #: Pending events per timestamp, each list in event_id order.
        self._batches: dict[int, list[Event]] = {}
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

    def is_late(self, timestamp: int) -> bool:
        """Whether ``timestamp`` is strictly below the current watermark."""
        watermark = self.watermark
        return watermark is not None and timestamp < watermark

    def push(self, event: Event) -> bool:
        """Buffer ``event``; ``False`` (not buffered) when it is late."""
        timestamp = event.timestamp
        if self.is_late(timestamp):
            return False
        batch = self._batches.get(timestamp)
        if batch is None:
            self._batches[timestamp] = [event]
            heapq.heappush(self._heap, timestamp)
        else:
            insort(batch, event, key=lambda held: held.event_id)
        if timestamp > self._max_seen:
            self._max_seen = timestamp
        self._buffered += 1
        return True

    def pop_ready(self) -> "tuple[int, list[Event]] | None":
        """Release the oldest batch strictly below the watermark, if any."""
        watermark = self.watermark
        if watermark is None or not self._heap or self._heap[0] >= watermark:
            return None
        return self._pop()

    def pop_drain(self) -> "tuple[int, list[Event]] | None":
        """Release the oldest batch regardless of the watermark (end of stream)."""
        if not self._heap:
            return None
        return self._pop()

    def _pop(self) -> tuple[int, list[Event]]:
        timestamp = heapq.heappop(self._heap)
        batch = self._batches.pop(timestamp)
        self._buffered -= len(batch)
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
                [timestamp, [event_to_record(event) for event in self._batches[timestamp]]]
                for timestamp in sorted(self._batches)
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
            timestamp: [event_from_record(record) for record in records]
            for timestamp, records in state["batches"]
        }
        self._heap = sorted(self._batches)
        self._max_seen = state["max_seen"]
        self._buffered = sum(len(batch) for batch in self._batches.values())


class ReorderFeed:
    """Watermark-released ``(timestamp, [events])`` batches over a disordered source.

    The feed advances lazily and never reads ahead of what it must: each
    ``next()`` first releases an already-ready batch (none is ever skipped),
    and only when none is ready does it consume source events — stopping at
    the first event whose push makes a batch releasable.  When the source is
    exhausted the buffer drains in timestamp order.  Consequently
    ``processed + buffered + dropped == source_consumed`` holds at every
    batch boundary, which is what lets checkpoints pair a source position
    (``source_consumed``) with a buffer snapshot and resume exactly.

    Parameters
    ----------
    source:
        Any event iterable in *arrival* order (not timestamp order).
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
        source: Iterable[Event],
        buffer: ReorderBuffer,
        late_policy="raise",
        metrics=None,
    ) -> None:
        validate_late_policy(late_policy)
        self._source = iter(source)
        self.buffer = buffer
        self.late_policy = late_policy
        self.metrics = metrics if metrics is not None else _NullMetrics()
        #: Source events consumed so far (processed + buffered + dropped).
        self.source_consumed = 0

    def __iter__(self) -> "Iterator[tuple[int, list[Event]]]":
        return self

    def __next__(self) -> "tuple[int, list[Event]]":
        buffer = self.buffer
        ready = buffer.pop_ready()
        if ready is not None:
            return ready
        for event in self._source:
            self.source_consumed += 1
            if buffer.push(event):
                ready = buffer.pop_ready()
                if ready is not None:
                    return ready
            else:
                self._handle_late(event)
        drained = buffer.pop_drain()
        if drained is not None:
            return drained
        raise StopIteration

    def _handle_late(self, event: Event) -> None:
        policy = self.late_policy
        if policy == "raise":
            raise DisorderError(
                f"event {event.event_id} at timestamp {event.timestamp} arrived "
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
            policy(event)


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
