"""The shared-online streaming engine (Runtime Executor of Figure 5).

The engine replays an event stream against a *uniform* workload (all queries
agree on window, predicates, and grouping — the paper's core assumption) and
a sharing plan.  For every active window instance and group it keeps one
:class:`WindowGroupScope` holding

* one :class:`~repro.executor.prefix_agg.SharedSegmentState` per shared
  pattern of the plan — computed once for all sharing queries, and
* one :class:`~repro.executor.chained.QueryChainState` per query — its
  private segments plus the per-query combination of shared aggregates.

Events are processed in timestamp batches (events sharing a timestamp never
chain with each other); windows are finalized as soon as the stream time
passes their end, emitting one result per query and group.

Three properties keep the hot path linear in the stream (see
``docs/engine.md`` for the full complexity budget):

* **True streaming** — the stream is consumed through a lookahead-free batch
  iterator; it is never materialised, so memory is bounded by the open
  scopes, not the stream length.
* **Type-indexed dispatch** — :class:`CompiledWorkload` pre-computes which
  shared states and query chains care about each event type; a batch only
  touches the states whose patterns contain one of its types.
* **Scope pooling** — finalized :class:`WindowGroupScope` objects (and their
  array buffers) are reset and reused for new window instances, cutting
  allocation churn under sliding windows with ``max_overlap > 1``.

Running the engine with an *empty* plan degenerates to the Non-Shared method:
each query keeps a single private segment spanning its whole pattern, which
is exactly A-Seq's per-query online aggregation.  The executors in
``aseq.py`` and ``shared.py`` are thin wrappers configuring this engine.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Mapping

from ..core.plan import QueryDecomposition, SharingPlan
from ..events.columnar import _INTERNER_LIMIT, ColumnLayout, ColumnarBatch, RowGroups
from ..events.disorder import (
    DisorderError,
    ReorderBuffer,
    ReorderFeed,
    validate_late_policy,
)
from ..events.event import Event
from ..events.log import EventLogReader
from ..events.stream import EventStream, timestamp_batches
from ..events.windows import SlidingWindow, WindowCursor, WindowInstance, ended_by
from ..queries.aggregates import AggregateSpec
from ..queries.pattern import Pattern
from ..queries.predicates import PredicateSet, compile_filter_kernel
from ..queries.query import Query
from ..queries.workload import NonUniformWorkloadError, Workload
from .chained import QueryChainState, stage_event_types
from .churn import ChurnError, ChurnOp, ChurnSchedule, ChurnState
from .metrics import MetricsCollector, RunMetrics
from .panes import Panes
from .prefix_agg import SharedSegmentState, TypeRows
from .results import GroupOrder, LineTemplate, ResultLedger, ResultSet

__all__ = [
    "ExecutionReport",
    "CompiledWorkload",
    "WindowGroupScope",
    "StreamingEngine",
    "EngineSession",
    "Instances",
]

#: Upper bound on retired scopes kept for reuse (bounds pool memory when the
#: group cardinality fluctuates).
_SCOPE_POOL_LIMIT = 128

#: Upper bound on memoised :meth:`CompiledWorkload.dispatch` answers (one per
#: distinct set of event types seen in a batch).
_DISPATCH_CACHE_LIMIT = 4096


def _positions_by_type(type_sets: "Iterable[Iterable[str]]") -> dict[str, tuple[int, ...]]:
    """Invert a sequence of event-type sets: type -> positions of the sets holding it."""
    index: dict[str, list[int]] = {}
    for position, types in enumerate(type_sets):
        for event_type in types:
            index.setdefault(event_type, []).append(position)
    return {event_type: tuple(positions) for event_type, positions in index.items()}


class ExecutionReport:
    """Everything an executor run produces: results, metrics, and the plan used.

    An engine session hands over its :class:`ResultLedger` in place of a
    :class:`ResultSet`; it is read when :attr:`results` first is.
    """

    def __init__(
        self, results: ResultSet | ResultLedger, metrics: RunMetrics, plan: SharingPlan | None = None
    ) -> None:
        self._results, self.metrics, self.plan = results, metrics, plan

    @property
    def results(self) -> ResultSet:
        """The run's result set (built on first read, not by the run)."""
        if isinstance(self._results, ResultLedger):
            self._results = self._results.results
        return self._results

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"ExecutionReport({self.metrics.summary()})"


class CompiledWorkload:
    """Pre-computed execution structure of a workload under a sharing plan.

    Besides the per-query decompositions, compilation builds the type-indexed
    dispatch tables behind :meth:`dispatch`: ``shared_positions_by_type``
    routes a batch to the shared states whose pattern contains one of its
    event types, and ``chain_positions_by_type`` routes it to the query
    chains that must observe it (see
    :func:`~repro.executor.chained.stage_event_types`).  Both hold positions
    into ``shared_specs`` / the workload, the order in which every
    :class:`WindowGroupScope` lists its states, so one memoised answer per
    distinct set of batch types serves every scope of the compilation.
    """

    def __init__(self, workload: Workload, plan: SharingPlan | None = None) -> None:
        if len(workload) == 0:
            raise ValueError("cannot execute an empty workload")
        if not workload.is_uniform():
            raise NonUniformWorkloadError(
                "the shared online engine requires a uniform workload "
                "(same window, predicates, and grouping for every query); "
                "segment the stream per context first (Section 7.2)"
            )
        self.workload = workload
        self.plan = plan if plan is not None else SharingPlan()
        reference: Query = workload[0]
        self.window: SlidingWindow = reference.window
        self.predicates: PredicateSet = reference.predicates
        self.partition_attributes: tuple[str, ...] = reference.partition_attributes

        self.decompositions: Mapping[str, QueryDecomposition] = self.plan.decompose(workload)
        self.relevant_types: frozenset[str] = frozenset(
            event_type for query in workload for event_type in query.pattern.event_types
        )
        #: Aggregate specs to track per shared pattern (union over sharing queries).
        self.shared_specs: dict[Pattern, tuple[AggregateSpec, ...]] = {}
        for query in workload:
            for segment in self.decompositions[query.name].shared_segments:
                existing = self.shared_specs.get(segment.pattern, ())
                if query.aggregate not in existing:
                    self.shared_specs[segment.pattern] = existing + (query.aggregate,)

        #: Dispatch index: event type -> positions (in ``shared_specs``
        #: order) of the shared patterns containing it.
        self.shared_positions_by_type: dict[str, tuple[int, ...]] = _positions_by_type(
            set(pattern.event_types) for pattern in self.shared_specs
        )
        #: Dispatch index: event type -> positions (in workload order) of the
        #: chains that must stage it.
        self.chain_positions_by_type: dict[str, tuple[int, ...]] = _positions_by_type(
            stage_event_types(self.decompositions[query.name]) for query in workload
        )
        #: Memoised :meth:`dispatch` answers, keyed by the set of batch types.
        self._dispatch_cache: dict[frozenset, tuple] = {}
        #: Memoised :meth:`line_template` answers, keyed by churn gate.
        self._templates: dict = {}

        #: Columnar routing: which columns batches must carry for this
        #: workload (relevant types interned to ids, attributes read by
        #: filters and aggregates, partition attributes), plus the filter
        #: conjunction compiled once into a batch kernel.
        read_attributes: set[str] = {f.attribute for f in self.predicates.filters}
        for query in workload:
            read_attributes.update(query.aggregate.read_attributes)
        self.layout = ColumnLayout(
            types=tuple(sorted(self.relevant_types)),
            attributes=tuple(sorted(read_attributes)),
            partition=self.partition_attributes,
        )
        self.filter_kernel = compile_filter_kernel(
            self.predicates.filters, self.layout.type_id
        )

    def dispatch(self, batch_types: frozenset) -> "tuple[tuple[int, ...], tuple[int, ...]]":
        """``(shared positions, chain positions)`` a batch of these types touches.

        Every other shared state and chain is guaranteed unchanged by such a
        batch.  Answers are memoised per distinct type set (few occur in
        practice; the cache is dropped should it ever pass
        :data:`_DISPATCH_CACHE_LIMIT`) and listed in ascending position.
        """
        cache = self._dispatch_cache
        entry = cache.get(batch_types)
        if entry is None:

            def touched(table: dict[str, tuple[int, ...]]) -> tuple[int, ...]:
                return tuple(sorted({p for t in batch_types for p in table.get(t, ())}))

            if len(cache) >= _DISPATCH_CACHE_LIMIT:
                cache.clear()
            entry = cache[batch_types] = (
                touched(self.shared_positions_by_type),
                touched(self.chain_positions_by_type),
            )
        return entry

    def line_template(self, churn: "ChurnState | None", start: int) -> LineTemplate:
        """The lines a scope of this compilation emits for a window starting at ``start``.

        One per query in workload order, reading the scope's values
        (:meth:`WindowGroupScope.finalize`) by position, minus the queries
        ``churn`` silences there; built once per churn gate.
        """
        key = None if churn is None else churn.gate(start)
        template = self._templates.get(key)
        if template is None:
            template = self._templates[key] = LineTemplate(
                (query.name, slot)
                for slot, query in enumerate(self.workload)
                if churn is None or churn.emits(query.name, start)
            )
        return template

    def group_key(self, event: Event) -> tuple:
        """``event``'s partition key (GROUP BY + equivalence attribute values)."""
        return tuple(event.attribute(attr) for attr in self.partition_attributes)

    def is_relevant(self, event: Event) -> bool:
        """Whether any query can react to ``event`` (type + filter predicates).

        The per-event routing predicate of the two-step executors; the
        engine reaches the same decision through the batch's type-relevance
        selection and the compiled filter kernel (:meth:`route_columnar`).
        """
        return event.event_type in self.relevant_types and self.predicates.accepts(event)

    def route_columnar(
        self, batch: ColumnarBatch
    ) -> "tuple[int, RowGroups | None]":
        """Route one columnar batch to per-group row selections, building no :class:`Event`.

        Returns ``(relevant_count, groups)`` where ``groups`` maps each group
        key to its relevant row indices in batch order (``None`` when nothing
        survives).  Type dispatch starts from the batch's precomputed
        type-relevance selection (interned ids, derived at ingestion), the
        filter conjunction runs as one compiled kernel over index
        selections, and group keys come pre-interned from the batch — the
        per-event routing work of :meth:`is_relevant`/:meth:`group_key`
        collapses into a few column passes over the surviving rows.
        """
        indices = batch.relevant
        kernel = self.filter_kernel
        if kernel is not None and indices:
            indices = kernel(batch, indices)
        if not indices:
            return 0, None
        keys = batch.group_keys
        if keys is None:
            return len(indices), {(): indices}
        groups: RowGroups = {}
        for i in indices:
            key = keys[i]
            group = groups.get(key)
            if group is None:
                groups[key] = [i]
            else:
                group.append(i)
        return len(indices), groups


class WindowGroupScope:
    """Aggregation state of one window instance × group combination.

    Scopes are pooled: after finalization the engine calls :meth:`reset` and
    :meth:`rebind` to reuse the scope — including the underlying per-spec
    column arrays — for a later window instance under the same compiled
    workload.
    """

    __slots__ = (
        "compiled",
        "window",
        "group",
        "shared_states",
        "chains",
        "_shared_list",
        "_chain_list",
    )

    def __init__(self, compiled: CompiledWorkload, window: WindowInstance, group: tuple) -> None:
        self.compiled = compiled
        self.window = window
        self.group = group
        self.shared_states: dict[Pattern, SharedSegmentState] = {
            pattern: SharedSegmentState(pattern, specs)
            for pattern, specs in compiled.shared_specs.items()
        }
        self.chains: dict[str, QueryChainState] = {
            query.name: QueryChainState(
                query, compiled.decompositions[query.name], self.shared_states
            )
            for query in compiled.workload
        }
        #: The same states by position, as :meth:`CompiledWorkload.dispatch`
        #: addresses them.
        self._shared_list = tuple(self.shared_states.values())
        self._chain_list = tuple(self.chains.values())

    def process_batch(self, batch: ColumnarBatch, rows: TypeRows) -> None:
        """Process this scope's ``rows`` of one equal-timestamp batch, bucketed by type.

        Dispatch is type-indexed (:meth:`CompiledWorkload.dispatch`): only
        shared states whose pattern contains a batch type, and only chains
        staged by one of the batch types, are touched.  Shared states commit
        before chains; cohorts are opened or coalesced inside that commit.
        """
        shared_positions, chain_positions = self.compiled.dispatch(frozenset(rows))
        shared_list = self._shared_list
        chain_list = self._chain_list
        for position in shared_positions:
            shared_list[position].stage_batch(batch, rows)
        for position in chain_positions:
            chain_list[position].stage_batch(batch, rows)
        for position in shared_positions:
            shared_list[position].commit()
        for position in chain_positions:
            chain_list[position].commit()

    def finalize(self) -> list:
        """The RETURN value of each query of this scope, in workload order."""
        return [chain.final_value() for chain in self._chain_list]

    def reset(self) -> None:
        """Clear all aggregation state for reuse by a later window instance."""
        for shared_state in self.shared_states.values():
            shared_state.reset()
        for chain in self.chains.values():
            chain.reset()

    def rebind(self, window: WindowInstance, group: tuple) -> None:
        """Point a (reset) pooled scope at a new window instance and group."""
        self.window = window
        self.group = group

    @property
    def update_count(self) -> int:
        """Total state updates this scope performed (shared + private)."""
        shared = sum(state.updates for state in self.shared_states.values())
        private = sum(chain.update_count for chain in self.chains.values())
        return shared + private

    @property
    def cohort_stats(self) -> tuple[int, int]:
        """(START batches seen, START batches coalesced) across shared states."""
        created = sum(state.cohorts_created for state in self.shared_states.values())
        merged = sum(state.cohorts_merged for state in self.shared_states.values())
        return created, merged

    # -- checkpointing -----------------------------------------------------------
    def export_state(self) -> dict:
        """Snapshot the scope as a JSON-safe dict (between batches only).

        Shared states are listed in ``compiled.shared_specs`` order and
        chains in workload order, so the snapshot references them by
        position — no Pattern/Query serialisation needed; restoring requires
        the same compiled workload (checkpoints fingerprint it).
        """
        compiled = self.compiled
        return {
            "window": [self.window.start, self.window.end],
            "group": list(self.group),
            "shared": [
                self.shared_states[pattern].export_state() for pattern in compiled.shared_specs
            ],
            "chains": [self.chains[query.name].export_state() for query in compiled.workload],
        }

    def restore_state(self, state: dict) -> None:
        """Restore a snapshot produced by :meth:`export_state`.

        The scope must have been constructed with the same compiled workload
        (and the window/group of the snapshot); only aggregation state is
        restored here.  A shared state whose columns and runners' carries
        disagree on its cohort count is refused with a :class:`ValueError`.
        """
        compiled = self.compiled
        for pattern, shared in zip(compiled.shared_specs, state["shared"]):
            self.shared_states[pattern].restore_state(shared)
        for query, chain in zip(compiled.workload, state["chains"]):
            self.chains[query.name].restore_state(chain)
        for shared_state in self._shared_list:
            shared_state.check_cohorts()


def _churn_effective_at(last_timestamp: int, at: "int | None") -> int:
    """Validate and resolve a churn op's effective timestamp.

    Gate correctness (a query attached at ``t`` emits exactly the windows
    with ``start >= t``) needs the effective timestamp to lie strictly after
    the last processed batch: every window starting later has seen zero
    events, so the new query misses nothing.  ``None`` means "from the next
    batch on" (``last_timestamp + 1``).
    """
    effective = last_timestamp + 1 if at is None else at
    if effective <= last_timestamp:
        raise ChurnError(
            f"churn ops apply between batches: effective timestamp {effective} "
            f"must be greater than the last processed batch timestamp {last_timestamp}"
        )
    return effective


def _restrict_plan_without(plan: SharingPlan, query_name: str) -> SharingPlan:
    """The deterministic post-detach plan: current candidates minus the query.

    Candidates left with fewer than two sharing queries stop being shareable
    and are dropped entirely (their surviving query falls back to private
    evaluation); every other candidate is restricted to the survivors.
    """
    kept = []
    for candidate in plan:
        names = tuple(name for name in candidate.query_names if name != query_name)
        if len(names) < 2:
            continue
        if len(names) == len(candidate.query_names):
            kept.append(candidate)
        else:
            kept.append(candidate.restricted_to(names, candidate.benefit))
    return SharingPlan(kept)


def _churn_fingerprint(workload: Workload, plan: SharingPlan) -> str:
    """Fingerprint of a churned (workload, plan) for the history record."""
    # Imported lazily: the replay package imports this module at load time.
    from ..replay.checkpoint import workload_fingerprint

    return workload_fingerprint(workload, plan)


class Instances:
    """Per-instance window state (the paper's loop): one scope per window instance × group.

    The :class:`EngineSession` strategy that keeps the window cursor, the
    open scopes, the pool of finalized scopes, and every compilation the
    session ran under (the other is :class:`~repro.executor.panes.Panes`).
    """

    mode = "instances"

    __slots__ = ("collector", "cursor", "windows", "pool", "generations", "canonical")

    def __init__(self, compiled: CompiledWorkload, collector: MetricsCollector) -> None:
        self.collector = collector
        #: The window instances containing the (monotone) batch timestamp,
        #: maintained incrementally instead of re-derived per event.
        self.cursor = WindowCursor(compiled.window)
        #: Active scopes: window instance -> group key -> scope.
        self.windows: dict[WindowInstance, dict[tuple, WindowGroupScope]] = {}
        #: Retired scopes available for reuse under the current compiled workload.
        self.pool: list[WindowGroupScope] = []
        #: Every compiled workload the session has run under, oldest first
        #: (one per migration; the last is current); after a migration open
        #: scopes are snapshot-tagged with their generation index so a
        #: resumed session rebuilds each one under the right compilation.
        self.generations: list[CompiledWorkload] = [compiled]
        self.canonical = GroupOrder()

    @property
    def last_timestamp(self) -> int:
        """The last batch timestamp (the cursor's)."""
        return self.cursor.timestamp

    def step(self, timestamp: int, batch: ColumnarBatch, groups: "RowGroups | None") -> None:
        """Process one routed batch into every window instance containing it.

        Each group's rows are bucketed by type once
        (:meth:`ColumnarBatch.rows_by_type`, named through the current
        layout, the batch's) and shared by its window instances; a zombie
        scope reads the same names under its older compilation.
        """
        # Advance even for all-irrelevant batches: the cursor's timestamp is
        # the session's disorder guard, and skipping empty batches would let
        # a later regressed batch silently seed scopes for windows that
        # finalization already flushed.
        windows = self.cursor.advance(timestamp)
        if groups:
            compiled = self.generations[-1]
            types = compiled.layout.types
            scopes = self.windows
            for group, rows in groups.items():
                by_type = {types[t]: bucket for t, bucket in batch.rows_by_type(rows).items()}
                for window in windows:
                    group_scopes = scopes.setdefault(window, {})
                    scope = group_scopes.get(group)
                    if scope is None:
                        scope = self._acquire_scope(compiled, window, group)
                        group_scopes[group] = scope
                    scope.process_batch(batch, by_type)

    def _acquire_scope(
        self, compiled: CompiledWorkload, window: WindowInstance, group: tuple
    ) -> WindowGroupScope:
        """Reuse a pooled scope when possible, otherwise build a fresh one."""
        pool = self.pool
        if pool:
            if pool[-1].compiled is compiled:
                scope = pool.pop()
                scope.rebind(window, group)
                return scope
            # Plan migration invalidated the pool: pooled scopes carry the
            # old decomposition and must not serve new window instances.
            pool.clear()
        return WindowGroupScope(compiled, window, group)

    def due(self, timestamp: "int | None") -> list[WindowInstance]:
        """The open windows ended by ``timestamp`` (``None``: all), in start order."""
        return ended_by(self.windows, timestamp)

    def expire(
        self, windows: list[WindowInstance], churn: "ChurnState | None"
    ) -> Iterator[tuple]:
        """Pop ``windows`` and yield each scope's emission block, groups in canonical order.

        A block is ``(template, window, group, values)``: every query's
        value and the lines of the scope's compilation
        (:meth:`CompiledWorkload.line_template`).  ``churn`` gates those per
        query: zombie chains of detached queries still finalize but write no
        line, nor do attached queries' windows that start before their
        attach.  Scopes of the current compilation are pooled.
        """
        collector = self.collector
        pool = self.pool
        compiled = self.generations[-1]
        for window in windows:
            by_group = self.windows.pop(window)
            for group in self.canonical(by_group):
                scope = by_group[group]
                template = scope.compiled.line_template(churn, window.start)
                block = (template, window, group, scope.finalize())
                collector.state_updates += scope.update_count
                created, merged = scope.cohort_stats
                collector.cohorts_created += created
                collector.cohorts_merged += merged
                if len(pool) < _SCOPE_POOL_LIMIT and scope.compiled is compiled:
                    scope.reset()
                    pool.append(scope)
                yield block

    def partials(self, name: str, churn: ChurnState) -> list[tuple]:
        """The detached query's partial value for every open window, one block each."""
        template = LineTemplate([(name, 0)])
        blocks = []
        for window, group, scope in self.canonical.walk(self.windows):
            chain = scope.chains.get(name)
            if chain is not None and churn.emits(name, window.start):
                blocks.append((template, window, group, [chain.final_value()]))
        return blocks

    def recompiled(self, compiled: CompiledWorkload) -> None:
        """Open scopes keep their creation-time compilation and finish as zombies."""
        self.generations.append(compiled)

    # -- checkpointing -----------------------------------------------------------
    def export(self) -> dict:
        """The cursor and the scopes (not the pool of reset husks), windows sorted.

        After a migration every scope is tagged with its generation index;
        sessions that never migrated keep the untagged schema byte-for-byte.
        """
        generations = self.generations if len(self.generations) > 1 else None
        scopes = []
        for _window, _group, scope in self.canonical.walk(self.windows):
            dump = scope.export_state()
            if generations is not None:
                dump["generation"] = generations.index(scope.compiled)
            scopes.append(dump)
        return {"cursor": self.cursor.export_state(), "scopes": scopes}

    def restore(self, state: dict) -> None:
        """Restore what :meth:`export` wrote, each scope under its generation."""
        self.cursor.restore_state(state["cursor"])
        self.windows = {}
        self.pool = []
        generations = self.generations
        for dump in state["scopes"]:
            window = WindowInstance(*dump["window"])
            group = tuple(dump["group"])
            generation = dump.get("generation", 0)
            if not 0 <= generation < len(generations):
                raise ValueError(
                    f"snapshot references workload generation {generation}, but this "
                    f"session only has {len(generations)}; re-apply the same migrations "
                    f"(in order) on a fresh session before restoring"
                )
            scope = WindowGroupScope(generations[generation], window, group)
            scope.restore_state(dump)
            self.windows.setdefault(window, {})[group] = scope


class EngineSession:
    """One stepwise, checkpointable engine run over a window-state strategy.

    The session owns everything a run changes: the current :attr:`workload`
    and :attr:`compiled` (the engine's until :meth:`migrate` rebinds them),
    the metrics collector, the result ledger (emitted results leave through
    it, see :class:`~repro.executor.results.ResultLedger`), the reorder
    buffer, the churn bookkeeping, and the :attr:`strategy`:
    :class:`Instances` or :class:`~repro.executor.panes.Panes`.  The rest is
    written once, here: the batch-order guard, the batch loop (:meth:`drive`
    over :meth:`routed_batches` and :meth:`step`), finalize-and-emit,
    migration with the attach/detach built on it, and the snapshot — a
    resumed session is indistinguishable from one that consumed the full
    stream (the replay suite pins this byte-for-byte).  Obtain one from
    :meth:`StreamingEngine.new_session`.
    """

    __slots__ = (
        "engine", "workload", "compiled", "collector", "ledger", "strategy", "_reorder", "_churn"
    )

    def __init__(self, engine: "StreamingEngine", panes: bool) -> None:
        self.engine = engine
        self.workload, self.compiled = engine.workload, engine.compiled
        self.collector = MetricsCollector(
            executor_name=engine.name, memory_sample_interval=engine.memory_sample_interval
        )
        self.ledger = ResultLedger()
        #: The window state: :class:`Instances` or :class:`~repro.executor.panes.Panes`.
        self.strategy = (Panes if panes else Instances)(self.compiled, self.collector)
        #: Bounded-lateness reorder buffer (``None`` unless the engine was
        #: built with ``max_lateness``); :meth:`ingest` runs it over a stream.
        self._reorder = (
            ReorderBuffer(engine.max_lateness) if engine.max_lateness is not None else None
        )
        #: Live-churn bookkeeping (``None`` until the first churn op).
        self._churn: "ChurnState | None" = None

    @property
    def mode(self) -> str:
        """The window-state strategy: ``"instances"`` or ``"panes"``."""
        return self.strategy.mode

    @property
    def results(self) -> ResultSet:
        """Every result emitted so far."""
        return self.ledger.results

    def step(self, timestamp: int, batch: ColumnarBatch, groups: "RowGroups | None") -> None:
        """Process one routed batch (:meth:`routed_batches`): emit the
        windows it ends, then absorb it."""
        strategy = self.strategy
        if timestamp < strategy.last_timestamp:
            raise DisorderError(
                f"{self.engine.name}: batch at timestamp {timestamp} arrived after "
                f"batch at timestamp {strategy.last_timestamp}; engine sessions require "
                f"non-decreasing batch timestamps — feed disordered streams "
                f"through a reorder buffer (max_lateness, docs/disorder.md)"
            )
        self._finalize_expired(timestamp)
        strategy.step(timestamp, batch, groups)

    def _finalize_expired(self, timestamp: "int | None") -> None:
        """Emit every window that ended by ``timestamp`` (``None``: every open window).

        Each window × group's block goes to ``ledger.pending`` and counts as
        one finalized window with its template's lines as results; nothing
        is encoded here.  Memory is sampled just before finalization, when
        the state is at its largest.  Windows expire in start order and
        groups in canonical order, so the emission sequence (and the ledger
        digest) ignores arrival order.
        """
        strategy = self.strategy
        windows = strategy.due(timestamp)
        if not windows:
            return
        collector = self.collector
        collector.maybe_sample_memory(strategy.windows)
        emit = self.ledger.pending.append
        count = collector.count_window
        for block in strategy.expire(windows, self._churn):
            emit(block)
            count(block[0].rows)

    def finish(self) -> ExecutionReport:
        """Flush every open window and freeze the report (its results are read on demand)."""
        self._finalize_expired(None)
        return ExecutionReport(self.ledger, self.collector.finish(), self.compiled.plan)

    def ingest(self, stream):
        """Wrap ``stream`` in this session's reorder feed (identity when none).

        With ``max_lateness`` configured on the engine, the returned
        :class:`~repro.events.disorder.ReorderFeed` consumes ``stream`` in
        *arrival* order and yields watermark-released ``(timestamp,
        [Rows...])`` batches in canonical order; events beyond the lateness
        bound hit the engine's ``late_policy``, counted on this session's
        collector.  Without ``max_lateness``, or when ``stream`` already is
        such a feed, the stream is returned unchanged.
        """
        if self._reorder is None or isinstance(stream, ReorderFeed):
            return stream
        return ReorderFeed(stream, self._reorder, self.engine.late_policy, self.collector)

    def drive(self, stream, ops: "tuple[ChurnOp, ...]" = (), before_batch=None):
        """Run ``stream`` through this session; yields ``(timestamp, batch)`` after each step.

        The one batch loop every driver shares (:meth:`StreamingEngine.run`,
        the replay runner): :meth:`ingest` the stream, start the timer, route
        each timestamp batch (:meth:`routed_batches`), :meth:`step`
        it and hand it to the caller, whose per-batch work runs with the timer
        still going.  When the caller asks for the next batch, the results
        this one emitted leave through :meth:`ResultLedger.flush
        <repro.executor.results.ResultLedger.flush>`, written as canonical
        lines into the digest and the ledger's log (the results log, or
        an anonymous spill file): during the caller's work ``ledger.pending`` holds exactly
        this step's blocks, one per closed window × group, no summary
        encodes more than one step's, and the timer —
        ``RunMetrics.elapsed_seconds`` — covers the encoding.  ``ops`` are
        the churn ops still pending, in schedule order: each is applied
        immediately before the first batch at or after its ``at`` is routed,
        so it recompiles the workload in time to route its own trigger
        batch; ops left past the end of the stream apply once it is
        exhausted.  ``before_batch(timestamp)`` runs next, still before
        routing.  The caller then calls :meth:`finish`.
        """
        op_index = 0

        def before(timestamp: int) -> None:
            nonlocal op_index
            while op_index < len(ops) and ops[op_index].at <= timestamp:
                self.apply_churn_op(ops[op_index])
                op_index += 1
            if before_batch is not None:
                before_batch(timestamp)

        stream = self.ingest(stream)
        self.collector.start()
        hook = before if ops or before_batch is not None else None
        flush = self.ledger.flush
        for timestamp, batch, groups in self.routed_batches(stream, hook):
            self.step(timestamp, batch, groups)
            yield timestamp, batch
            flush()
        for op in ops[op_index:]:
            self.apply_churn_op(op)

    def routed_batches(self, stream, before_batch=None):
        """Yield ``(timestamp, batch, groups)`` for every timestamp batch.

        ``batch`` is the :class:`ColumnarBatch` for the current layout
        (``len``/``list`` give its events) and ``groups`` maps each group key
        to the indices of its relevant rows in batch order
        (:meth:`CompiledWorkload.route_columnar`), or is ``None`` when nothing
        survives.  The stream is read as ``(timestamp, payload)`` pairs and
        ``build`` makes each payload's batch: an :class:`EventStream`, an
        :class:`~repro.events.log.EventLogReader` and a :class:`ReorderFeed`
        hand runs of column rows; only an ordered event iterable (batched by
        :func:`timestamp_batches`) hands event lists.  ``self.compiled`` is
        re-read per batch, so a migration (:meth:`migrate`: any churn op, a
        plan switch included) takes effect mid-run, even one that changes the
        layout.
        ``before_batch(timestamp)`` runs *before* a batch is routed — the
        churn hook: an op due then recompiles the workload in time to route
        its own trigger batch.
        """
        if isinstance(stream, EventStream):
            pairs, build = stream.runs(), ColumnarBatch.from_rows
        elif isinstance(stream, EventLogReader):
            pairs, build = stream.batches_from(stream.start), ColumnarBatch.from_rows
        elif isinstance(stream, ReorderFeed):
            pairs, build = stream, ColumnarBatch.from_rows
        else:
            pairs, build = timestamp_batches(stream), ColumnarBatch.from_events
        collector = self.collector
        interner: dict[tuple, tuple] = {}
        for timestamp, payload in pairs:
            if before_batch is not None:
                before_batch(timestamp)
            compiled = self.compiled
            batch = build(timestamp, payload, compiled.layout, interner)
            if len(interner) > _INTERNER_LIMIT:
                interner = {}
            collector.total_events += batch.size
            collector.columnar_batches += 1
            count, groups = compiled.route_columnar(batch)
            collector.relevant_events += count
            yield timestamp, batch, groups

    def _churn_state(self) -> ChurnState:
        """This session's churn bookkeeping, created on first use."""
        if self._churn is None:
            self._churn = ChurnState(self.workload.query_names())
        return self._churn

    @property
    def attach_timestamps(self) -> dict[str, int]:
        """Recorded attach timestamp per query attached mid-run (``docs/churn.md``)."""
        return {} if self._churn is None else dict(self._churn.attach_timestamps)

    def churn_history(self) -> list[dict]:
        """The applied churn ops as JSON-safe dicts, oldest first."""
        return [] if self._churn is None else [dict(entry) for entry in self._churn.history]

    def apply_churn_op(self, op: ChurnOp) -> int:
        """Apply one :class:`~repro.executor.churn.ChurnOp`; returns its effective timestamp."""
        if op.kind == "attach":
            return self.attach_query(op.query, at=op.at, plan=op.plan)
        if op.kind == "detach":
            return self.detach_query(op.query_name, at=op.at, plan=op.plan)
        workload = self.workload
        effective_at = _churn_effective_at(self.strategy.last_timestamp, op.at)
        self.migrate(workload, op.plan)
        self._churn_state().record("plan", effective_at, "", _churn_fingerprint(workload, op.plan))
        return effective_at

    def migrate(self, workload: Workload, plan: SharingPlan) -> None:
        """Switch this live session to ``workload`` under ``plan`` between batches.

        The one way to change what a run computes: every churn op (a plan
        switch, Section 7.4, an attach or a detach) comes through here.  The
        compiled workload — layouts, filter kernels, type-relevance
        selections, dispatch tables — is rebuilt and bound, with the
        workload, to this session (never to the engine); the next routed
        batch reads it.  The workload must stay uniform and keep the window
        geometry, so the strategy resolved at construction holds for the
        whole run.  Open state carries over: per-instance scopes
        keep the compilation they were created under and finish under it
        (each migration appends a generation, and snapshots tag scopes with
        theirs); pane cells and prefix vectors are re-pointed at the new
        compilation by value key.  A snapshot taken after migrations restores
        only into a session that re-applied the same migrations, in order.
        One that does not apply raises :class:`~repro.executor.churn.ChurnError`.
        """
        unknown = {name for c in plan for name in c.query_names} - set(workload.query_names())
        if unknown:
            raise ChurnError(f"the plan shares queries not in the workload: {sorted(unknown)}")
        try:
            compiled = CompiledWorkload(workload, plan)
        except ValueError as error:  # a non-uniform workload, a plan that does not decompose it
            raise ChurnError(str(error)) from None
        current = self.compiled.window
        if (compiled.window.size, compiled.window.slide) != (current.size, current.slide):
            raise ChurnError("a migration cannot change the window geometry of a running engine")
        self.workload, self.compiled = workload, compiled
        self.strategy.recompiled(compiled)

    def attach_query(self, query: Query, at: "int | None" = None, plan=None) -> int:
        """Attach ``query`` to the live workload between batches.

        The session :meth:`migrate`\\ s to the workload plus ``query`` under
        ``plan`` (default: the current plan, the new query unshared), and the
        new query begins at the next window boundary: only windows starting
        at or after the recorded attach timestamp (returned, and exposed via
        :attr:`attach_timestamps`) emit results for it.  Such windows have
        seen zero events when the attach applies (events a still-open pane
        absorbed earlier only feed windows the gate suppresses), so the new
        query misses nothing.  The query must be uniform with the running
        workload and its name unused.
        """
        workload = self.workload
        if query.name in workload:
            raise ChurnError(f"cannot attach {query.name!r}: duplicate query name in the workload")
        effective_at = _churn_effective_at(self.strategy.last_timestamp, at)
        new_workload = Workload(workload.queries + (query,), name=workload.name)
        new_plan = plan if plan is not None else self.compiled.plan
        self.migrate(new_workload, new_plan)
        churn = self._churn_state()
        churn.active.add(query.name)
        churn.attach_timestamps[query.name] = effective_at
        churn.record("attach", effective_at, query.name, _churn_fingerprint(new_workload, new_plan))
        return effective_at

    def detach_query(self, query_id: str, at: "int | None" = None, plan=None) -> int:
        """Detach the named query between batches, finalizing its open windows.

        Every open window the query may still emit (respecting its attach
        gate, if it was itself attached mid-run) immediately yields its
        partial value — exactly what a run over the stream truncated at the
        effective timestamp would have produced at end-of-stream (pane mode
        folds a *copy* of the still-open pane into the windows it covers, so
        live pane state is untouched).  The session then :meth:`migrate`\\ s
        to the survivors under ``plan`` (default: the current plan restricted
        to the survivors); open scopes keep their zombie chains, which finish
        unharmed but are filtered from emission.  Detaching the last active
        query is refused.
        """
        workload = self.workload
        name = query_id
        if name not in workload:
            raise ChurnError(f"cannot detach unknown query {name!r}")
        survivors = tuple(q for q in workload if q.name != name)
        if not survivors:
            raise ChurnError(
                "cannot detach the last active query; the engine needs a non-empty workload"
            )
        effective_at = _churn_effective_at(self.strategy.last_timestamp, at)
        new_workload = Workload(survivors, name=workload.name)
        new_plan = plan if plan is not None else _restrict_plan_without(self.compiled.plan, name)
        churn = self._churn_state()
        # Read before the migration (pane-mode partials need the compilation
        # that contains the query), emitted once it succeeded.
        partials = self.strategy.partials(name, churn)
        self.migrate(new_workload, new_plan)
        self.ledger.pending.extend(partials)
        self.collector.results_emitted += len(partials)  # one line per block
        churn.active.discard(name)
        churn.attach_timestamps.pop(name, None)
        churn.record("detach", effective_at, name, _churn_fingerprint(new_workload, new_plan))
        return effective_at

    # -- checkpointing -----------------------------------------------------------
    def export_state(self) -> dict:
        """Snapshot the whole session as a JSON-safe dict (between batches).

        The strategy's live state in canonical order (so resumed-run and
        full-run state hashes compare), the ``mode``, the deterministic
        counters, the reorder buffer and churn state when present (absent
        features add no key), and emitted results only as the ledger's
        ``{"count", "digest"}``: the state to resume from, not the history of
        what was already said, so its size does not grow with the run.
        """
        state = self.strategy.export()
        state.update(
            mode=self.mode, results=self.ledger.summary(), metrics=self.collector.export_counters()
        )
        if self._reorder is not None:
            state["reorder"] = self._reorder.export_state()
        if self._churn is not None:
            state["churn"] = self._churn.export()
        return state

    def restore_state(self, state: dict, result_lines: bytes = b"") -> None:
        """Restore a snapshot produced by :meth:`export_state`.

        A snapshot records only how many results had been emitted and their
        digest; ``result_lines`` must be those results' canonical lines, in
        emission order (:func:`~repro.executor.results.encode_result_lines`
        of the exporting session's :attr:`results`, or the prefix of the
        replay runner's results log) — they are counted and hashed against
        the recorded summary, and decoded only if :attr:`results` is read.

        The engine must be configured like the exporting one (checkpoint
        files carry a workload fingerprint and the engine config for the
        replay layer to verify, and older shapes are upgraded on load by
        :func:`~repro.replay.checkpoint.upgrade_snapshot`), and a snapshot
        taken after migrations needs the same :meth:`migrate` calls —
        every churn op included — re-applied, in order, to this session first.
        """
        if state["mode"] != self.mode:
            raise ValueError(
                f"snapshot was taken in {state['mode']!r} mode, "
                f"this session runs in {self.mode!r} mode"
            )
        current_churn = None if self._churn is None else self._churn.export()
        if state.get("churn") != current_churn:
            raise ValueError(
                "snapshot churn history does not match this session's; "
                "re-apply the same churn ops (in order) on a fresh "
                "session before restoring"
            )
        self.ledger.restore(state["results"], result_lines)
        self.collector.restore_counters(state["metrics"])
        reorder = state.get("reorder")
        # A buffered-events snapshot restored into an engine without a buffer
        # would drop those events on the floor.
        if (reorder is None) != (self._reorder is None):
            raise ValueError(
                "snapshot reorder-buffer state does not match this engine's "
                "max_lateness configuration"
            )
        if reorder is not None:
            self._reorder.restore_state(reorder)
        self.strategy.restore(state)


class StreamingEngine:
    """Replays a stream against a compiled workload and collects results.

    The engine is configuration, fixed at construction; what a run changes
    lives on its :class:`EngineSession`, so an engine runs any number of
    times and its sessions are independent.  Plan switches (Section 7.4) and
    query churn are churn ops a session applies between timestamp batches
    (:meth:`EngineSession.migrate`).

    The engine picks its **window-state strategy** from the window geometry
    (``panes=None``, the default; :meth:`panes_eligible` is the rule).
    Overlapping windows run **pane-partitioned**
    (:mod:`repro.executor.panes`): the stream is processed once per pane of
    width ``gcd(size, slide)`` and completed window instances are assembled
    by folding their covering panes, instead of fanning each event out to
    every covering window instance.  Tumbling windows run the per-instance
    loop, the paper's algorithm and the only strategy in which the sharing
    *plan* acts.  Both emit the same results;
    ``panes=True`` / ``panes=False`` override the rule (the differential
    grids and the paper-figure harness do; ``True`` on a tumbling window
    still falls back) and :attr:`uses_panes` reports the strategy a fresh
    session takes.

    Ingestion runs in **columnar micro-batches**: timestamp batches arrive
    as struct-of-arrays (:class:`~repro.events.columnar.ColumnarBatch`, built
    from column rows for an in-memory
    :class:`~repro.events.stream.EventStream` as for a recorded log, from
    event lists otherwise), type dispatch compares
    interned type ids, the workload's filter predicates run as one compiled
    batch kernel over index selections, and group routing consumes
    pre-interned keys.  Window-instance membership is tracked by a
    :class:`~repro.events.windows.WindowCursor` — amortised O(1) per batch —
    instead of re-deriving ``instances_containing`` per event.
    """

    def __init__(
        self,
        workload: Workload,
        plan: SharingPlan | None = None,
        name: str = "sharon",
        memory_sample_interval: int = 0,
        panes: "bool | None" = None,
        max_lateness: "int | None" = None,
        late_policy="raise",
    ) -> None:
        self.workload = workload
        self.compiled = CompiledWorkload(workload, plan)
        self.name = name
        self.memory_sample_interval = memory_sample_interval
        #: The caller's override (``None``: the engine decides).
        self.panes = panes
        if max_lateness is not None and max_lateness < 0:
            raise ValueError(f"max_lateness must be >= 0, got {max_lateness}")
        validate_late_policy(late_policy)
        #: Bounded-lateness disorder tolerance (``docs/disorder.md``): when
        #: set, sessions ingest through a watermark-driven reorder buffer
        #: accepting arrival orders shuffled up to ``max_lateness`` time
        #: units; ``None`` (the default) keeps the strict in-order contract.
        self.max_lateness = max_lateness
        #: What to do with events beyond the lateness bound: ``"raise"``
        #: (default), ``"drop"``, or a side-channel callable.
        self.late_policy = late_policy

    @staticmethod
    def panes_eligible(window: SlidingWindow) -> bool:
        """The geometry rule behind ``panes=None``: can panes pay off for ``window``?

        Tumbling windows (``max_overlap == 1``) already process every event
        exactly once per instance; a pane layer would only add fold
        overhead, so the engine runs the per-instance loop.  Every
        overlapping window runs panes — ``gcd(size, slide) == 1`` degrades
        to unit-width panes (one per timestamp), which is correct but
        amortises the per-pane work over fewer events (measurements in
        ``docs/engine.md``, "Choosing the window strategy").
        """
        return window.max_overlap > 1

    @property
    def uses_panes(self) -> bool:
        """Whether a fresh session runs panes: the override, else :meth:`panes_eligible`."""
        eligible = self.panes_eligible(self.compiled.window)
        return eligible if self.panes is None else self.panes and eligible

    def new_session(self, mode: "str | None" = None) -> EngineSession:
        """A fresh stepwise run session, starting from the engine's compilation.

        Its window strategy (``session.mode``) is the ``panes=`` override,
        else ``mode`` — a checkpoint's ``engine_config["mode"]``: snapshots
        are structural, so a resumed run continues in the strategy it was
        taken in — else :attr:`uses_panes`.  Sessions expose the run loop as
        ``drive`` (over ``step``) and ``finish``, plus the
        ``export_state``/``restore_state`` checkpoint hooks; :meth:`run`
        drives one, and the replay layer (:mod:`repro.replay`) interleaves
        pacing, tracing, and checkpoint writes with the same loop.
        """
        recorded = mode if self.panes is None else None
        return EngineSession(self, self.uses_panes if recorded is None else recorded == "panes")

    def run(
        self,
        stream: "EventStream | Iterable[Event]",
        session: "EngineSession | None" = None,
        churn: "ChurnSchedule | Iterable[ChurnOp] | None" = None,
    ) -> ExecutionReport:
        """Process the whole stream and return results plus metrics.

        The stream is consumed incrementally (one timestamp batch at a time,
        no lookahead beyond the first event of the next batch), so unbounded
        iterables work as long as their windows keep expiring.

        Parameters
        ----------
        stream:
            The events to replay (any iterable; sorted by timestamp).
        session:
            Continue an existing session (typically one restored from a
            checkpoint) instead of starting fresh; the caller is responsible
            for feeding a stream suffix the session has not consumed yet.
        churn:
            Optional :class:`~repro.executor.churn.ChurnSchedule` (or ops to
            build one from) of attach/detach/plan operations.  Each op is applied
            via :meth:`EngineSession.apply_churn_op` immediately before the
            first timestamp batch at or after its ``at``, so the same
            schedule replays identically against the same stream.  Ops left
            over past the end of the stream (``at`` beyond the last batch)
            are applied before final window flush.
        """
        if session is None:
            session = self.new_session()
        elif session.engine is not self:
            raise ValueError("session belongs to a different engine")
        for _ in session.drive(stream, ChurnSchedule(churn).ops):
            pass
        return session.finish()
