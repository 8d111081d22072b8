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
  sharing queries.  A cohort is nothing but an index into the state's
  columns and its runners' carry lists: the combination never reads the
  START events themselves, so none is kept.

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
  id.  A batch's rows of one type are reduced once per spec to an
  :meth:`~repro.queries.aggregates.AggregateSpec.summarise` summary, read
  straight from the batch's columns
  (:meth:`~repro.events.columnar.ColumnarBatch.summarise`), and applied to
  the whole column in a single pass (a batch add of the staged
  deltas), instead of per-event ``extend``/``merge`` object churn.  COUNT(*)
  columns degenerate to flat lists of exact Python ints
  (:class:`_CountColumns`), the paper's common case.
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
strictly increasing timestamps).  They read a batch the way the pane kernels
do: the :class:`~repro.events.columnar.ColumnarBatch` plus the scope's rows
bucketed by event type (:data:`TypeRows`), so no
:class:`~repro.events.event.Event` is built.
"""

from __future__ import annotations

from operator import itemgetter
from typing import Callable, Iterable, Sequence

from ..events.columnar import ColumnarBatch
from ..queries.aggregates import AggregateSpec, AggregateState, AggregationKind
from ..queries.pattern import Pattern

__all__ = ["PrivateSegmentState", "SharedSegmentState"]

#: A carry provider returns the aggregate of the chain upstream of a segment,
#: as of the beginning of the current batch.
CarryProvider = Callable[[], AggregateState]

#: One scope's rows of a batch, bucketed by event type name: type -> its row
#: indices, in batch order (:meth:`ColumnarBatch.rows_by_type`, named through
#: the batch's layout).
TypeRows = dict[str, list[int]]

_ZERO = AggregateState.zero()
_UNIT = AggregateState.unit()

#: A batch reduced per (spec, position): (k, targeted, total, min, max) —
#: the argument tuple of AggregateState.extend_many.
_BatchSummary = tuple[int, int, float, "float | None", "float | None"]

_position_of = itemgetter(0)


def _positions(pattern: Pattern) -> dict[str, tuple[int, ...]]:
    """Map each event type of ``pattern`` to the (0-based) positions it occupies."""
    return {event_type: pattern.positions_of(event_type) for event_type in pattern.event_types}


class PrivateSegmentState:
    """Flat prefix aggregation of one private segment of one query."""

    __slots__ = ("pattern", "spec", "_positions", "states", "_staged", "updates")

    def __init__(self, pattern: Pattern, spec: AggregateSpec) -> None:
        self.pattern = pattern
        self.spec = spec
        self._positions = _positions(pattern)
        self.states: list[AggregateState] = [_ZERO] * len(pattern)
        #: Sparse per-batch additions: {position: addition}; ``None`` outside a batch.
        self._staged: dict[int, AggregateState] | None = None
        #: Number of aggregate updates applied (used by cost/throughput reports).
        self.updates = 0

    def stage_batch(self, batch: ColumnarBatch, rows: TypeRows, carry: CarryProvider) -> None:
        """Compute this batch's additions against the pre-batch state.

        Each type's rows are summarised once (``batch.summarise``) and applied
        per position with one fused ``extend_many`` instead of per-event
        ``extend``/``merge`` pairs.
        """
        additions: dict[int, AggregateState] | None = None
        carry_value: AggregateState | None = None
        states = self.states
        spec = self.spec
        for event_type, bucket in rows.items():
            summary = None
            for position in self._positions.get(event_type, ()):
                if position == 0:
                    if carry_value is None:
                        carry_value = carry()
                    base = carry_value
                else:
                    base = states[position - 1]
                if base.count == 0:
                    continue
                if summary is None:
                    summary = batch.summarise(spec, event_type, bucket)
                if additions is None:
                    additions = {}
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
    """COUNT(*) fast path: one list of plain ints per position.

    A COUNT(*) aggregate state is fully determined by its sequence count
    (``extend`` is the identity for it), so the column cells are plain
    Python ints, as the pane cells hold COUNT(*) — exact however far prefix
    counts compound — with the batch update as integer arithmetic over whole
    columns, no ``AggregateState`` allocation on the hot path.
    """

    __slots__ = ("columns",)

    def __init__(self, length: int) -> None:
        self.columns: list[list[int]] = [[] for _ in range(length)]

    def append_cohort(self, initial: AggregateState) -> None:
        self.columns[0].append(initial.count)
        for position in range(1, len(self.columns)):
            self.columns[position].append(0)

    def add_to_cohort(self, cohort: int, addition: AggregateState) -> None:
        """Coalesce a START batch into an existing cohort's position-0 cell."""
        self.columns[0][cohort] += addition.count

    def state_at(self, position: int, cohort: int) -> AggregateState:
        count = self.columns[position][cohort]
        return AggregateState(count=count) if count else _ZERO

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
                column[cohort] += added
                deltas.append((cohort, AggregateState(count=added)))
                touched += 1
            return deltas, touched * k
        touched = 0
        for cohort, base_count in enumerate(base):
            if not base_count:
                continue
            column[cohort] += k * base_count
            touched += 1
        return None, touched * k

    def export_columns(self) -> list:
        """The columns as nested lists of plain ints (JSON-safe, exact)."""
        return [list(column) for column in self.columns]

    def restore_columns(self, columns: Sequence) -> None:
        """Restore columns exported by :meth:`export_columns`."""
        if len(columns) != len(self.columns):
            raise ValueError("snapshot column count does not match the pattern length")
        for position, values in enumerate(columns):
            self.columns[position] = list(values)

    def clear(self) -> None:
        for column in self.columns:
            column.clear()


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

    A cohort is an index into the column families (and into every
    registered runner's ``carries``), so the cohort count is their length.
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
        "_families",
        "_totals",
        "staged_start",
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
        self._positions = _positions(pattern)
        self._length = len(pattern)
        #: Struct-of-arrays storage, one column family per spec (``specs`` order).
        self._families: tuple[_CountColumns | _StateColumns, ...] = tuple(
            _make_columns(spec, self._length) for spec in self.specs
        )
        #: Running totals over completed matches, one per spec (O(1) reads).
        self._totals: dict[AggregateSpec, AggregateState] = {
            spec: _ZERO for spec in self.specs
        }
        #: This batch's START rows summarised per spec (``specs`` order);
        #: ``None`` when the batch opens no cohort.
        self.staged_start: "list[_BatchSummary] | None" = None
        #: Staged extension batches: ``[(position, summaries per spec)]``;
        #: ``None`` between batches.
        self._staged: "list[tuple[int, list[_BatchSummary]]] | None" = None
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

    @property
    def cohort_count(self) -> int:
        """Number of live anchor cohorts: the length of the column families."""
        return len(self._families[0].columns[0])

    # -- batch processing --------------------------------------------------------
    def stage_batch(self, batch: ColumnarBatch, rows: TypeRows) -> None:
        """Stage one same-timestamp batch: every touched position's rows, summarised per spec.

        The START position's rows (at most one type) open or join a cohort
        at :meth:`commit`; the others extend the cohorts already open.
        """
        start = staged = None
        summarise, specs, positions_of = batch.summarise, self.specs, self._positions
        for event_type, bucket in rows.items():
            positions = positions_of.get(event_type)
            if positions is None:
                continue
            summaries = [summarise(spec, event_type, bucket) for spec in specs]
            for position in positions:
                if position == 0:
                    self.updates += len(bucket)
                    start = summaries
                elif staged is None:
                    staged = [(position, summaries)]
                else:
                    staged.append((position, summaries))
        self.staged_start = start
        self._staged = staged

    def commit(self) -> None:
        """Apply the staged batch and publish completion deltas.

        Extension batches are applied column-at-a-time in *descending*
        position order, so every position reads the pre-batch values of the
        position below it (stage/commit semantics without materialising the
        additions).  The batch's START rows then join the newest cohort
        when every registered runner staged the carry it already holds for
        that cohort, or else open a cohort; the
        runners' carry lists are extended here, in step with the cohort
        arrays.  Totals and registered runners are updated from the deltas
        of the final pattern position, so ``total_completed`` and every
        runner's ``chain_value`` stay O(1) reads.
        """
        last = self._length - 1
        completed: list[tuple[AggregateSpec, list[tuple[int, AggregateState]]]] = []
        specs, families = self.specs, self._families

        staged = self._staged
        if staged is not None:
            staged.sort(key=_position_of, reverse=True)
            for position, summaries in staged:
                for spec, family, summary in zip(specs, families, summaries):
                    deltas, applied = family.extend_commit(position, summary, position == last)
                    self.updates += applied
                    if deltas:
                        completed.append((spec, deltas))
            self._staged = None

        start = self.staged_start
        if start is not None:
            cohorts = len(families[0].columns[0])
            runners = self._runners
            self.cohorts_created += 1
            coalesce = cohorts > 0 and all(
                runner.staged_carry == runner.carries[-1] for runner in runners
            )
            if coalesce:
                cohort = cohorts - 1
                self.cohorts_merged += 1
            else:
                cohort = cohorts
                for runner in runners:
                    runner.carries.append(runner.staged_carry)
            for spec, family, summary in zip(specs, families, start):
                initial = _UNIT.extend_many(*summary)
                if coalesce:
                    family.add_to_cohort(cohort, initial)
                else:
                    family.append_cohort(initial)
                if last == 0 and initial.count:
                    completed.append((spec, [(cohort, initial)]))
            self.staged_start = None

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
        """Snapshot column families and totals as a JSON-safe dict.

        Families and totals are listed in ``self.specs`` order (stable for a
        given compiled workload), so the snapshot never needs to serialise
        spec objects as keys.  Must be called between batches.
        """
        if self._staged is not None or self.staged_start is not None:
            raise RuntimeError("export_state() must be called between batches")
        return {
            "families": [family.export_columns() for family in self._families],
            "totals": [self._totals[spec].as_tuple() for spec in self.specs],
            "updates": self.updates,
            "cohorts_created": self.cohorts_created,
            "cohorts_merged": self.cohorts_merged,
        }

    def restore_state(self, state: dict) -> None:
        """Restore a snapshot produced by :meth:`export_state`.

        Registered runners are kept; their own state is restored separately
        by :meth:`~repro.executor.chained.SharedSegmentRunner.restore_state`,
        after which :meth:`check_cohorts` holds the two to one cohort count.
        Cohorts are kept as stored, even several per carry tuple (snapshots
        written when compaction was a lazy scan, or switchable).
        """
        for family, columns in zip(self._families, state["families"]):
            family.restore_columns(columns)
        for spec, total in zip(self.specs, state["totals"]):
            self._totals[spec] = AggregateState.from_tuple(total)
        self.staged_start = None
        self._staged = None
        self.updates = state["updates"]
        self.cohorts_created = state["cohorts_created"]
        self.cohorts_merged = state["cohorts_merged"]

    def check_cohorts(self) -> None:
        """Raise a :class:`ValueError` naming the pattern unless every column and every
        registered runner's ``carries`` hold one entry per cohort (a restored snapshot)."""
        cohorts = self.cohort_count
        lengths = {len(column) for family in self._families for column in family.columns}
        lengths.update(len(runner.carries) for runner in self._runners)
        if lengths != {cohorts}:
            raise ValueError(
                f"snapshot of shared pattern {self.pattern!r} disagrees on its cohort "
                f"count: columns and carries hold {sorted(lengths)} entries"
            )

    # -- pooling ------------------------------------------------------------------
    def reset(self) -> None:
        """Clear all aggregation state so the instance can serve a new scope.

        Keeps the column list objects (and registered runners) alive so
        reuse across window instances does not reallocate the layout.
        """
        for family in self._families:
            family.clear()
        for spec in self.specs:
            self._totals[spec] = _ZERO
        self.staged_start = None
        self._staged = None
        self.updates = 0
        self.cohorts_created = 0
        self.cohorts_merged = 0

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"SharedSegmentState({self.pattern!r}, cohorts={self.cohort_count})"
