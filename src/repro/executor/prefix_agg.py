"""Online prefix aggregation — the A-Seq building block (Section 3.2).

The Non-Shared method maintains, for a pattern ``(E1 ... El)``, one aggregate
per prefix ``(E1 ... Ej)``.  When an event of type ``Ej`` arrives, the
aggregate of prefix ``j`` absorbs the aggregate of prefix ``j-1`` extended by
the new event (Figure 6(a)); matched sequences are never constructed.

Two state classes implement this recurrence inside one *scope* (one window
instance × one group):

* :class:`PrivateSegmentState` — the flat per-query variant.  The first
  position reads a *carry* value from the upstream part of the query's chain
  (the neutral "one empty sequence" for the query's first segment), which is
  how a query's private prefix/suffix segments are stitched to shared
  segments.
* :class:`SharedSegmentState` — the anchored variant used for shared
  patterns.  Aggregates are maintained per *anchor cohort* — all START
  events of the shared pattern arriving at the same timestamp — so that each
  query can later combine them with its own prefix aggregates (Section 3.3,
  Figure 7); the shared pattern itself is processed exactly once for all
  sharing queries.

Anchors are grouped into cohorts because same-timestamp START events are
indistinguishable to the rest of the chain: every downstream carry snapshot
is frozen per batch, and every extension applies to all of them identically.
Merging them is therefore lossless (the aggregate state is a commutative
monoid and ``extend``/``combine`` distribute over ``merge``), and it makes
the per-event extension cost proportional to the number of *timestamps* that
created anchors instead of the number of START *events*.

Two further optimisations keep long-lived scopes cheap:

* **Vectorised columns** — the cohort state uses a struct-of-arrays layout:
  one flat column per (aggregate spec, pattern position), indexed by cohort
  id.  A batch is reduced once per position to an
  :meth:`~repro.queries.aggregates.AggregateSpec.summarise` summary and
  applied to the whole column in a single pass (a batch add of the staged
  deltas), instead of per-event ``extend``/``merge`` object churn.  COUNT(*)
  columns degenerate to flat ``array('q')`` machine-int columns
  (:class:`_CountColumns`, promoting to exact Python ints past ``2**63-1``),
  the paper's common case.
* **Eager cohort coalescing** — when a START batch arrives and every
  registered :class:`~repro.executor.chained.SharedSegmentRunner` would
  record the same carry as for the newest cohort, the batch is added into
  that cohort's position-0 cell instead of opening a new cohort, so a scope
  holds one cohort per *distinct carry tuple*, never one per anchor
  timestamp.  Because ``combine`` distributes over ``merge`` in its right
  argument (``c ⊗ (d1 ⊕ d2) = c ⊗ d1 ⊕ c ⊗ d2``), folding the coalesced
  cohort's completion deltas against the common carry is exactly the sum
  over the separate cohorts — coalescing is lossless.  Carries only grow
  within a scope, so cohorts with equal carries are always adjacent and
  comparing against the newest cohort alone finds every mergeable one.

Running totals (:meth:`SharedSegmentState.total_completed`) and the per-query
combined values
(:meth:`~repro.executor.chained.SharedSegmentRunner.chain_value`) are
maintained incrementally from per-batch deltas, so both are O(1) reads.

Both classes use two-phase *stage/commit* batch processing: all reads of a
batch observe the state before the batch, so events carrying the same
timestamp can never chain with each other (sequence semantics require
strictly increasing timestamps).
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass, field
from typing import Callable, Iterable, Sequence

from ..events.event import Event
from ..events.log import event_from_record, event_to_record
from ..queries.aggregates import AggregateSpec, AggregateState, AggregationKind
from ..queries.pattern import Pattern

__all__ = [
    "PrivateSegmentState",
    "SharedSegmentState",
    "SharedAnchor",
    "positions_by_type",
    "group_by_position",
]

#: A carry provider returns the aggregate of the chain upstream of a segment,
#: as of the beginning of the current batch.
CarryProvider = Callable[[], AggregateState]

_ZERO = AggregateState.zero()
_UNIT = AggregateState.unit()

#: A batch reduced per (spec, position): (k, targeted, total, min, max) —
#: the argument tuple of AggregateState.extend_many.
_BatchSummary = tuple[int, int, float, "float | None", "float | None"]

#: Largest count storable in an ``array('q')`` cell.  Count columns live in
#: machine-int arrays (8 bytes per cohort) and promote to plain Python lists
#: the moment a count would pass this bound — prefix counts grow
#: multiplicatively, so overflow is reachable on dense streams and must
#: degrade to exact big-int arithmetic, never wrap.
_I64_MAX = 2**63 - 1


def positions_by_type(pattern: Pattern) -> dict[str, tuple[int, ...]]:
    """Map each event type to the (0-based) positions it occupies in ``pattern``."""
    positions: dict[str, list[int]] = {}
    for index, event_type in enumerate(pattern.event_types):
        positions.setdefault(event_type, []).append(index)
    return {event_type: tuple(indexes) for event_type, indexes in positions.items()}


def group_by_position(
    events: Sequence[Event], positions: dict[str, tuple[int, ...]]
) -> "dict[int, list[Event]] | None":
    """Bucket a batch's events by the pattern positions their type occupies.

    Shared by the batch-oriented states of this module (private segments
    and anchored shared segments): one pass over the batch, ``None`` when no
    event touches the pattern.
    """
    by_position: dict[int, list[Event]] | None = None
    for event in events:
        for position in positions.get(event.event_type, ()):
            if by_position is None:
                by_position = {}
            by_position.setdefault(position, []).append(event)
    return by_position


def _summarise_bucket(spec: AggregateSpec, bucket: Sequence[Event]) -> _BatchSummary:
    """:meth:`AggregateSpec.summarise` over one position's same-type batch events."""
    attribute = spec.attribute
    values = () if attribute is None else (event.attribute(attribute) for event in bucket)
    return spec.summarise(bucket[0].event_type, len(bucket), values)


class PrivateSegmentState:
    """Flat prefix aggregation of one private segment of one query."""

    __slots__ = ("pattern", "spec", "_positions", "states", "_staged", "updates")

    def __init__(self, pattern: Pattern, spec: AggregateSpec) -> None:
        self.pattern = pattern
        self.spec = spec
        self._positions = positions_by_type(pattern)
        self.states: list[AggregateState] = [_ZERO] * len(pattern)
        #: Sparse per-batch additions: {position: addition}; ``None`` outside a batch.
        self._staged: dict[int, AggregateState] | None = None
        #: Number of aggregate updates applied (used by cost/throughput reports).
        self.updates = 0

    def stage_batch(self, events: Sequence[Event], carry: CarryProvider) -> None:
        """Compute this batch's additions against the pre-batch state.

        The batch is reduced once per position (``_summarise_bucket``) and
        applied with one fused ``extend_many`` instead of per-event
        ``extend``/``merge`` pairs.
        """
        by_position = group_by_position(events, self._positions)
        if by_position is None:
            self._staged = None
            return
        additions: dict[int, AggregateState] | None = None
        carry_value: AggregateState | None = None
        states = self.states
        spec = self.spec
        for position, bucket in by_position.items():
            if position == 0:
                if carry_value is None:
                    carry_value = carry()
                base = carry_value
            else:
                base = states[position - 1]
            if base.count == 0:
                continue
            if additions is None:
                additions = {}
            summary = _summarise_bucket(spec, bucket)
            additions[position] = base.extend_many(*summary)
            self.updates += summary[0]
        self._staged = additions

    def commit(self) -> None:
        """Merge the staged per-position additions into the live states."""
        staged = self._staged
        if staged is None:
            return
        states = self.states
        for position, addition in staged.items():
            states[position] = states[position].merge(addition)
        self._staged = None

    def chain_value(self) -> AggregateState:
        """Aggregate over completed matches of the chain up to this segment."""
        return self.states[-1]

    # -- checkpointing -----------------------------------------------------------
    def export_state(self) -> dict:
        """Snapshot the per-position states as a JSON-safe dict.

        Must be called between batches (nothing staged); the engine only
        checkpoints at batch boundaries.
        """
        if self._staged is not None:
            raise RuntimeError("export_state() must be called between batches")
        return {
            "states": [state.as_tuple() for state in self.states],
            "updates": self.updates,
        }

    def restore_state(self, state: dict) -> None:
        """Restore a snapshot produced by :meth:`export_state`."""
        values = state["states"]
        if len(values) != len(self.states):
            raise ValueError(
                f"snapshot has {len(values)} positions, pattern has {len(self.states)}"
            )
        self.states[:] = [AggregateState.from_tuple(value) for value in values]
        self._staged = None
        self.updates = state["updates"]

    def reset(self) -> None:
        """Clear all aggregation state so the instance can serve a new scope."""
        states = self.states
        for index in range(len(states)):
            states[index] = _ZERO
        self._staged = None
        self.updates = 0

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"PrivateSegmentState({self.pattern!r}, value={self.states[-1].count})"


@dataclass
class SharedAnchor:
    """Read-only view of one anchor cohort of a shared pattern.

    ``states[spec][j]`` aggregates the matches of the shared pattern's prefix
    of length ``j+1`` that start at one of this cohort's START events (all
    sharing one timestamp).  Materialised on demand from the column arrays of
    :class:`SharedSegmentState` — the hot path never builds these objects.
    """

    start_event: Event
    states: dict[AggregateSpec, list[AggregateState]] = field(default_factory=dict)

    def completed(self, spec: AggregateSpec) -> AggregateState:
        """Aggregate over complete matches of the shared pattern at this anchor."""
        return self.states[spec][-1]


class _StateColumns:
    """Struct-of-arrays columns of one aggregate spec (AggregateState cells).

    One flat list per pattern position, indexed by cohort id.  Used for every
    spec that tracks more than the sequence count (COUNT(E), SUM, MIN, MAX,
    AVG).
    """

    __slots__ = ("columns",)

    def __init__(self, length: int) -> None:
        self.columns: list[list[AggregateState]] = [[] for _ in range(length)]

    def append_cohort(self, initial: AggregateState) -> None:
        self.columns[0].append(initial)
        for column in self.columns[1:]:
            column.append(_ZERO)

    def add_to_cohort(self, cohort: int, addition: AggregateState) -> None:
        """Coalesce a START batch into an existing cohort's position-0 cell."""
        first = self.columns[0]
        first[cohort] = first[cohort].merge(addition)

    def state_at(self, position: int, cohort: int) -> AggregateState:
        return self.columns[position][cohort]

    def column_states(self, position: int) -> list[AggregateState]:
        return list(self.columns[position])

    def extend_commit(
        self, position: int, summary: _BatchSummary, collect_deltas: bool
    ) -> tuple["list[tuple[int, AggregateState]] | None", int]:
        """Apply one batch summary to a whole column in a single pass.

        Returns the per-cohort deltas (when ``collect_deltas``, i.e. at the
        completion position) and the number of aggregate updates performed.
        """
        base = self.columns[position - 1]
        column = self.columns[position]
        deltas: list[tuple[int, AggregateState]] | None = [] if collect_deltas else None
        touched = 0
        k = summary[0]
        for cohort, base_state in enumerate(base):
            if base_state.count == 0:
                continue
            addition = base_state.extend_many(*summary)
            column[cohort] = column[cohort].merge(addition)
            touched += 1
            if deltas is not None:
                deltas.append((cohort, addition))
        return deltas, touched * k

    def export_columns(self) -> list:
        """The columns as nested lists of state tuples (JSON-safe)."""
        return [[state.as_tuple() for state in column] for column in self.columns]

    def restore_columns(self, columns: Sequence) -> None:
        """Restore columns exported by :meth:`export_columns`."""
        if len(columns) != len(self.columns):
            raise ValueError("snapshot column count does not match the pattern length")
        for position, values in enumerate(columns):
            self.columns[position] = [AggregateState.from_tuple(value) for value in values]

    def clear(self) -> None:
        for column in self.columns:
            column.clear()


class _CountColumns:
    """COUNT(*) fast path: flat 64-bit integer columns.

    A COUNT(*) aggregate state is fully determined by its sequence count
    (``extend`` is the identity for it), so the column cells are plain
    machine integers — ``array('q')`` storage (8 bytes per cohort, contiguous
    C layout) with the batch update as integer arithmetic over whole columns,
    no ``AggregateState`` allocation on the hot path.

    Prefix counts compound multiplicatively (every batch multiplies a base
    count by its event count), so a column can legitimately outgrow a signed
    64-bit cell.  Each column therefore *promotes* to a plain Python list —
    exact big-int arithmetic — the moment a stored value would pass
    ``2**63 - 1``; results are identical either side of the switch, only the
    storage width changes.  :meth:`clear` re-arms the compact representation
    for pooled reuse.
    """

    __slots__ = ("columns",)

    def __init__(self, length: int) -> None:
        self.columns: list["array | list[int]"] = [array("q") for _ in range(length)]

    def _promoted(self, position: int) -> list[int]:
        """Switch one column to unbounded Python ints (idempotent)."""
        column = self.columns[position]
        if not isinstance(column, list):
            column = list(column)
            self.columns[position] = column
        return column

    def append_cohort(self, initial: AggregateState) -> None:
        count = initial.count
        first = self.columns[0]
        if count > _I64_MAX and not isinstance(first, list):
            first = self._promoted(0)
        first.append(count)
        for position in range(1, len(self.columns)):
            self.columns[position].append(0)

    def add_to_cohort(self, cohort: int, addition: AggregateState) -> None:
        """Coalesce a START batch into an existing cohort's position-0 cell."""
        first = self.columns[0]
        updated = first[cohort] + addition.count
        if updated > _I64_MAX and not isinstance(first, list):
            first = self._promoted(0)
        first[cohort] = updated

    def state_at(self, position: int, cohort: int) -> AggregateState:
        count = self.columns[position][cohort]
        return AggregateState(count=count) if count else _ZERO

    def column_states(self, position: int) -> list[AggregateState]:
        return [AggregateState(count=n) if n else _ZERO for n in self.columns[position]]

    def extend_commit(
        self, position: int, summary: _BatchSummary, collect_deltas: bool
    ) -> tuple["list[tuple[int, AggregateState]] | None", int]:
        base = self.columns[position - 1]
        column = self.columns[position]
        k = summary[0]
        if collect_deltas:
            deltas: list[tuple[int, AggregateState]] = []
            touched = 0
            for cohort, base_count in enumerate(base):
                if not base_count:
                    continue
                added = k * base_count
                updated = column[cohort] + added
                if updated > _I64_MAX and not isinstance(column, list):
                    column = self._promoted(position)
                column[cohort] = updated
                deltas.append((cohort, AggregateState(count=added)))
                touched += 1
            return deltas, touched * k
        touched = 0
        for cohort, base_count in enumerate(base):
            if not base_count:
                continue
            updated = column[cohort] + k * base_count
            if updated > _I64_MAX and not isinstance(column, list):
                column = self._promoted(position)
            column[cohort] = updated
            touched += 1
        return None, touched * k

    def export_columns(self) -> list:
        """The columns as nested lists of plain ints (JSON-safe, exact)."""
        return [list(column) for column in self.columns]

    def restore_columns(self, columns: Sequence) -> None:
        """Restore columns exported by :meth:`export_columns`.

        Each column goes back into compact ``array('q')`` storage unless a
        restored count exceeds the 64-bit range, in which case the promoted
        big-int list representation is restored instead — exactly mirroring
        the live promotion rule.
        """
        if len(columns) != len(self.columns):
            raise ValueError("snapshot column count does not match the pattern length")
        for position, values in enumerate(columns):
            try:
                self.columns[position] = array("q", values)
            except OverflowError:
                self.columns[position] = list(values)

    def clear(self) -> None:
        columns = self.columns
        for position, column in enumerate(columns):
            if isinstance(column, list):
                columns[position] = array("q")
            else:
                del column[:]


def _make_columns(spec: AggregateSpec, length: int) -> "_CountColumns | _StateColumns":
    if spec.kind == AggregationKind.COUNT_STAR:
        return _CountColumns(length)
    return _StateColumns(length)


class SharedSegmentState:
    """Anchored prefix aggregation of one shared pattern inside one scope.

    The state is maintained once per scope regardless of how many queries
    share the pattern.  A query that *starts* with the pattern reads the
    running total directly (:class:`~repro.executor.chained.PrefixFreeRunner`
    — its carry is the constant unit, so there is nothing to combine); every
    other sharing query combines per cohort through a
    :class:`~repro.executor.chained.SharedSegmentRunner`, which registers
    itself here and receives the per-batch completion deltas (``carry ⊗
    delta`` is applied incrementally, keeping its chain value an O(1) read).

    Parameters
    ----------
    pattern:
        The shared pattern ``p`` (length >= 2 by Definition 3).
    specs:
        The distinct aggregate specifications of the sharing queries; one
        aggregate family is tracked per spec (a single family when the whole
        workload uses COUNT(*), the common case in the paper).

    A START batch whose carries equal the newest cohort's in every
    registered runner is coalesced into that cohort at :meth:`commit`, so
    live cohorts = distinct carry tuples at all times (see "Eager cohort
    coalescing" in the module docstring).
    """

    __slots__ = (
        "pattern",
        "specs",
        "_positions",
        "_length",
        "anchor_starts",
        "_families",
        "_totals",
        "staged_new_anchors",
        "_staged",
        "_runners",
        "_runners_by_spec",
        "updates",
        "cohorts_created",
        "cohorts_merged",
    )

    def __init__(self, pattern: Pattern, specs: Iterable[AggregateSpec]) -> None:
        self.pattern = pattern
        self.specs = tuple(dict.fromkeys(specs))
        if not self.specs:
            raise ValueError("a shared segment needs at least one aggregate spec")
        self._positions = positions_by_type(pattern)
        self._length = len(pattern)
        #: First START event of each anchor cohort, indexed by cohort id.
        self.anchor_starts: list[Event] = []
        #: Struct-of-arrays storage, one column family per spec.
        self._families: dict[AggregateSpec, _CountColumns | _StateColumns] = {
            spec: _make_columns(spec, self._length) for spec in self.specs
        }
        #: Running totals over completed matches, one per spec (O(1) reads).
        self._totals: dict[AggregateSpec, AggregateState] = {
            spec: _ZERO for spec in self.specs
        }
        #: START events arriving in the current batch (one cohort's worth).
        self.staged_new_anchors: list[Event] = []
        #: Staged extension batches: ``{position: [events]}``; ``None`` between batches.
        self._staged: dict[int, list[Event]] | None = None
        #: Carry-bearing per-query runners, in registration order, and the
        #: same runners indexed by the spec whose deltas they absorb.
        self._runners: list = []
        self._runners_by_spec: dict[AggregateSpec, list] = {}
        self.updates = 0
        #: START batches seen, and how many of them were coalesced into the
        #: previous cohort (``created - merged`` cohorts were materialised);
        #: harvested by the engine at finalization.
        self.cohorts_created = 0
        self.cohorts_merged = 0

    # -- wiring ----------------------------------------------------------------
    def register(self, runner) -> None:
        """Subscribe a carry-bearing runner to this state's completion deltas."""
        self._runners.append(runner)
        self._runners_by_spec.setdefault(runner.spec, []).append(runner)

    def handles(self, event: Event) -> bool:
        """Whether ``event``'s type occurs anywhere in this shared pattern."""
        return event.event_type in self._positions

    @property
    def cohort_count(self) -> int:
        """Number of live anchor cohorts."""
        return len(self.anchor_starts)

    @property
    def anchors(self) -> list[SharedAnchor]:
        """Materialised per-cohort view (tests/introspection only, not hot path)."""
        views = []
        for cohort, start_event in enumerate(self.anchor_starts):
            states = {
                spec: [family.state_at(position, cohort) for position in range(self._length)]
                for spec, family in self._families.items()
            }
            views.append(SharedAnchor(start_event, states))
        return views

    def completed_column(self, spec: AggregateSpec) -> list[AggregateState]:
        """Per-cohort aggregates over complete matches (parallel to carries)."""
        return self._families[spec].column_states(self._length - 1)

    # -- batch processing --------------------------------------------------------
    def stage_batch(self, events: Sequence[Event]) -> None:
        """Stage anchor creations and extensions for one same-timestamp batch."""
        by_position = group_by_position(events, self._positions)
        if by_position is None:
            self.staged_new_anchors = []
            self._staged = None
            return
        new_anchors = by_position.pop(0, [])
        self.updates += len(new_anchors)
        self.staged_new_anchors = new_anchors
        self._staged = by_position or None

    def commit(self) -> None:
        """Apply the staged batch and publish completion deltas.

        Extension batches are applied column-at-a-time in *descending*
        position order, so every position reads the pre-batch values of the
        position below it (stage/commit semantics without materialising the
        additions).  The batch's START events then join the newest cohort
        when every registered runner staged the carry it already holds for
        that cohort, or else open a cohort; the
        runners' carry lists are extended here, in step with the cohort
        arrays.  Totals and registered runners are updated from the deltas
        of the final pattern position, so ``total_completed`` and every
        runner's ``chain_value`` stay O(1) reads.
        """
        last = self._length - 1
        completed: list[tuple[AggregateSpec, list[tuple[int, AggregateState]]]] = []
        families = self._families

        staged = self._staged
        if staged is not None:
            for position in sorted(staged, reverse=True):
                bucket = staged[position]
                for spec, family in families.items():
                    summary = _summarise_bucket(spec, bucket)
                    deltas, applied = family.extend_commit(position, summary, position == last)
                    self.updates += applied
                    if deltas:
                        completed.append((spec, deltas))
            self._staged = None

        batch = self.staged_new_anchors
        if batch:
            anchor_starts = self.anchor_starts
            runners = self._runners
            self.cohorts_created += 1
            coalesce = bool(anchor_starts) and all(
                runner.staged_carry == runner.carries[-1] for runner in runners
            )
            if coalesce:
                cohort = len(anchor_starts) - 1
                self.cohorts_merged += 1
            else:
                cohort = len(anchor_starts)
                anchor_starts.append(batch[0])
                for runner in runners:
                    runner.carries.append(runner.staged_carry)
            for spec, family in families.items():
                initial = _UNIT.extend_many(*_summarise_bucket(spec, batch))
                if coalesce:
                    family.add_to_cohort(cohort, initial)
                else:
                    family.append_cohort(initial)
                if last == 0 and initial.count:
                    completed.append((spec, [(cohort, initial)]))
            self.staged_new_anchors = []

        if completed:
            totals = self._totals
            runners_by_spec = self._runners_by_spec
            for spec, deltas in completed:
                spec_runners = runners_by_spec.get(spec, ())
                total = totals[spec]
                for cohort, delta in deltas:
                    if delta.count == 0:
                        continue
                    total = total.merge(delta)
                    for runner in spec_runners:
                        runner.absorb_completed(cohort, delta)
                totals[spec] = total

    # -- reads -------------------------------------------------------------------
    def total_completed(self, spec: AggregateSpec) -> AggregateState:
        """Aggregate over all complete matches of the shared pattern so far."""
        return self._totals[spec]

    # -- checkpointing ------------------------------------------------------------
    def export_state(self) -> dict:
        """Snapshot cohorts, column families and totals as a JSON-safe dict.

        Families and totals are listed in ``self.specs`` order (stable for a
        given compiled workload), so the snapshot never needs to serialise
        spec objects as keys.  Must be called between batches; anchor START
        events are stored via the event-log record codec, so checkpointing
        requires JSON-scalar attributes (the same contract as recording).
        """
        if self._staged is not None or self.staged_new_anchors:
            raise RuntimeError("export_state() must be called between batches")
        return {
            "anchors": [event_to_record(event) for event in self.anchor_starts],
            "families": [self._families[spec].export_columns() for spec in self.specs],
            "totals": [self._totals[spec].as_tuple() for spec in self.specs],
            "updates": self.updates,
            "cohorts_created": self.cohorts_created,
            "cohorts_merged": self.cohorts_merged,
        }

    def restore_state(self, state: dict) -> None:
        """Restore a snapshot produced by :meth:`export_state`.

        Registered runners are kept; their own state is restored separately
        by :meth:`~repro.executor.chained.SharedSegmentRunner.restore_state`.
        Cohorts are kept as stored, even several per carry tuple (snapshots
        written when compaction was a lazy scan, or switchable).
        """
        self.anchor_starts[:] = [event_from_record(record) for record in state["anchors"]]
        for spec, columns in zip(self.specs, state["families"]):
            self._families[spec].restore_columns(columns)
        for spec, total in zip(self.specs, state["totals"]):
            self._totals[spec] = AggregateState.from_tuple(total)
        self.staged_new_anchors = []
        self._staged = None
        self.updates = state["updates"]
        self.cohorts_created = state["cohorts_created"]
        self.cohorts_merged = state["cohorts_merged"]

    # -- pooling ------------------------------------------------------------------
    def reset(self) -> None:
        """Clear all aggregation state so the instance can serve a new scope.

        Keeps the column array objects (and registered runners) alive so
        reuse across window instances does not reallocate the layout.
        """
        self.anchor_starts.clear()
        for family in self._families.values():
            family.clear()
        for spec in self.specs:
            self._totals[spec] = _ZERO
        self.staged_new_anchors = []
        self._staged = None
        self.updates = 0
        self.cohorts_created = 0
        self.cohorts_merged = 0

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"SharedSegmentState({self.pattern!r}, cohorts={len(self.anchor_starts)})"
