"""Group-sharded parallel execution: partition groups across worker processes.

Groups are independent end-to-end in this engine: every predicate, pattern
match, aggregate, and window result of a group is computed exclusively from
that group's events (equivalence predicates and GROUP BY both partition the
stream, and the engine keeps one :class:`~repro.executor.engine.WindowGroupScope`
per window instance × group).  That makes the group key a *perfect* sharding
key — a workload over ``G`` groups can run as ``K`` independent engine
instances over disjoint group subsets and the union of their results is
bit-identical to the single-engine run.

This module adds that layer on top of the (unchanged) single-process
:class:`~repro.executor.engine.StreamingEngine`:

* :func:`stable_group_hash` — a process- and run-independent hash of interned
  group-key tuples (Python's builtin ``hash`` is salted per process, which
  would make hash sharding non-deterministic across workers and runs).
* :class:`ShardPlanner` / :class:`ShardPlan` — split the distinct group keys
  of a stream into ``K`` shards, either by stable hash (``strategy="hash"``,
  stateless, no counts needed) or greedily balanced by per-group event
  counts (``strategy="greedy"``, the default: longest-processing-time-first
  assignment to the least-loaded shard, which bounds the heaviest shard at
  4/3 of optimal and beats hashing whenever group sizes are skewed).
* :class:`ShardedEngine` — the front-end: it routes the stream's columnar
  batches per shard (one column pass over pre-interned group keys, no
  predicate work in the parent), fans the per-shard event slices out to
  worker processes via :mod:`multiprocessing`, and merges the per-shard
  results and metrics deterministically (ascending shard index; the result
  key spaces are disjoint by construction).

Serialization boundaries are explicit: a worker receives the *workload spec*
(queries, sharing plan, engine toggles — all plain picklable values) plus its
event slice, and rebuilds the compiled workload — including the non-picklable
filter kernels and dispatch closures — inside the worker
(:func:`_run_shard`).  That keeps the layer spawn-safe: nothing relies on
fork-shared module state, so ``start_method="spawn"`` works wherever fork is
unavailable, and the default start method of the platform is used otherwise.

``shards=1`` (or a workload/stream that cannot shard: no partition
attributes, or fewer than two observed groups) degrades to the in-process
engine with zero overhead — the exact same code path, report, and metrics as
an unsharded run.  See ``docs/sharding.md`` for the design discussion,
including merge semantics and the regimes where sharding loses.
"""

from __future__ import annotations

import heapq
import time
import zlib
from collections import Counter
from dataclasses import dataclass
from itertools import chain
from typing import Iterable, Mapping, Sequence

from ..core.plan import SharingPlan
from ..events.columnar import ColumnarBatch, columnar_batches
from ..events.event import Event
from ..events.stream import EventStream
from ..queries.workload import Workload
from .engine import ExecutionReport, StreamingEngine
from .metrics import RunMetrics
from .results import QueryResult, ResultSet

__all__ = ["ShardPlan", "ShardPlanner", "ShardedEngine", "stable_group_hash"]

#: Shard-assignment strategies understood by :class:`ShardPlanner`.
_STRATEGIES = ("greedy", "hash")


def stable_group_hash(key: tuple) -> int:
    """Deterministic, process-independent hash of a group-key tuple.

    Hash sharding must agree across runs, processes, and
    ``PYTHONHASHSEED`` values (Python's builtin ``hash`` of strings is
    salted per process), so the key's ``repr`` — deterministic for the
    attribute values group keys are made of — is hashed with CRC-32.
    """
    return zlib.crc32(repr(key).encode("utf-8"))


@dataclass(frozen=True)
class ShardPlan:
    """An assignment of every observed group key to one of ``shards`` shards.

    Produced by :class:`ShardPlanner`; consumed by
    :class:`ShardedEngine` for batch slicing and surfaced in the merged
    run metrics (``groups_per_shard``, ``shard_skew``).
    """

    #: Number of shards planned for (some may end up with no groups).
    shards: int
    #: Group key -> shard index in ``range(shards)``.
    assignment: Mapping[tuple, int]
    #: Per-group event counts the plan was computed from (hash plans record
    #: the observed counts too, so skew is comparable across strategies).
    counts: Mapping[tuple, int]
    #: The strategy that produced the assignment (``"greedy"`` or ``"hash"``).
    strategy: str

    @property
    def groups_per_shard(self) -> tuple[int, ...]:
        """Number of distinct groups assigned to each shard, by shard index."""
        groups = [0] * self.shards
        for shard in self.assignment.values():
            groups[shard] += 1
        return tuple(groups)

    @property
    def events_per_shard(self) -> tuple[int, ...]:
        """Planned event load of each shard (sum of its groups' counts)."""
        loads = [0] * self.shards
        for key, shard in self.assignment.items():
            loads[shard] += self.counts.get(key, 0)
        return tuple(loads)

    @property
    def skew(self) -> float:
        """Heaviest shard load over the ideal (perfectly balanced) load.

        ``1.0`` is a perfect split; ``shards`` is the worst case (all events
        on one shard, e.g. a single group).  The sharded wall-clock win is
        bounded by ``shards / skew``, which is why the greedy planner
        minimises this number.
        """
        total = sum(self.events_per_shard)
        if total <= 0:
            return 1.0
        ideal = total / self.shards
        return max(self.events_per_shard) / ideal

    def shard_of(self, key: tuple) -> int:
        """The shard index the plan assigns to ``key``."""
        return self.assignment[key]


class ShardPlanner:
    """Split distinct group keys into ``shards`` balanced shards.

    Parameters
    ----------
    shards:
        Number of shards to plan for (``>= 1``).
    strategy:
        ``"greedy"`` (default) — longest-processing-time-first: groups are
        sorted by descending event count and each is assigned to the
        currently least-loaded shard.  Deterministic (ties broken by the
        key's ``repr``, then by shard index) and 4/3-optimal on the maximum
        shard load, so it stays balanced under heavily skewed group sizes.
        ``"hash"`` — :func:`stable_group_hash` modulo ``shards``: stateless
        and independent of the observed counts, but arbitrarily unbalanced
        when a few groups dominate the stream.
    """

    def __init__(self, shards: int, strategy: str = "greedy") -> None:
        if shards < 1:
            raise ValueError(f"shards must be >= 1, got {shards}")
        if strategy not in _STRATEGIES:
            raise ValueError(
                f"unknown shard strategy {strategy!r}; choose one of {_STRATEGIES}"
            )
        self.shards = shards
        self.strategy = strategy

    def plan(self, counts: Mapping[tuple, int]) -> ShardPlan:
        """Assign every key of ``counts`` to a shard and return the plan.

        ``counts`` maps each observed group key to its (relevant) event
        count — :meth:`ShardedEngine.group_counts` derives it from the
        stream's columnar batches in one column pass.
        """
        counts = dict(counts)
        if self.strategy == "hash":
            assignment = {
                key: stable_group_hash(key) % self.shards for key in counts
            }
            return ShardPlan(self.shards, assignment, counts, self.strategy)
        # Greedy LPT: heaviest group first onto the least-loaded shard.  The
        # heap orders by (load, shard index) so ties resolve deterministically.
        heap = [(0, shard) for shard in range(self.shards)]
        heapq.heapify(heap)
        assignment: dict[tuple, int] = {}
        for key in sorted(counts, key=lambda k: (-counts[k], repr(k))):
            load, shard = heapq.heappop(heap)
            assignment[key] = shard
            heapq.heappush(heap, (load + counts[key], shard))
        return ShardPlan(self.shards, assignment, counts, self.strategy)


@dataclass
class _ShardTask:
    """Everything one worker needs, in picklable form.

    The compiled workload (filter kernels, dispatch closures) is *not*
    shipped — workers rebuild it from the plain workload spec, which keeps
    the payload spawn-safe and small.
    """

    index: int
    workload: Workload
    plan: SharingPlan
    name: str
    memory_sample_interval: int
    compaction: bool
    panes: "bool | None"
    columnar: bool
    events: list[Event]


def _run_shard(task: _ShardTask) -> tuple[int, list[QueryResult], RunMetrics]:
    """Worker entry point: run the unchanged engine over one shard's slice.

    Module-level (not a closure or lambda) so ``spawn`` workers can import
    it; the engine — and with it the filter kernels and dispatch tables — is
    rebuilt from the picklable spec inside the worker process.
    """
    engine = StreamingEngine(
        task.workload,
        plan=task.plan,
        name=task.name,
        memory_sample_interval=task.memory_sample_interval,
        compaction=task.compaction,
        panes=task.panes,
        columnar=task.columnar,
    )
    report = engine.run(EventStream(task.events, name=f"shard-{task.index}"))
    return task.index, list(report.results), report.metrics


class ShardedEngine:
    """Run a workload as ``K`` independent engine processes, one group subset each.

    The constructor mirrors :class:`~repro.executor.engine.StreamingEngine`
    (same ``plan`` / ``compaction`` / ``panes`` / ``columnar`` toggles — each
    worker runs the unchanged engine, so sharding composes with every
    engine mode) plus the sharding controls:

    Parameters
    ----------
    shards:
        Number of worker shards.  ``1`` degrades to the in-process engine
        with zero overhead (identical report and metrics).
    strategy:
        Shard-assignment strategy, see :class:`ShardPlanner`.
    start_method:
        :mod:`multiprocessing` start method (``"fork"``, ``"spawn"``,
        ``"forkserver"``); ``None`` uses the platform default.  The layer is
        spawn-safe — workers rebuild all compiled state from picklable specs.
    parallel:
        ``False`` runs the shard tasks sequentially in-process (same
        slicing, same merge path, no worker processes) — the deterministic
        reference mode used by tests; the results are identical by
        construction.

    Unlike the streaming engine, a sharded run *materialises* the per-shard
    event slices before fan-out, so memory is bounded by the stream length,
    not the open scopes — sharding is a replay/batch facility.  Mid-run plan
    migration (``on_batch`` hooks) is likewise not available across
    processes; see ``docs/sharding.md`` for when sharding loses.
    """

    def __init__(
        self,
        workload: Workload,
        plan: SharingPlan | None = None,
        shards: int = 1,
        strategy: str = "greedy",
        name: str = "sharon",
        memory_sample_interval: int = 0,
        compaction: bool = True,
        panes: "bool | None" = None,
        columnar: bool = True,
        start_method: str | None = None,
        parallel: bool = True,
    ) -> None:
        if shards < 1:
            raise ValueError(f"shards must be >= 1, got {shards}")
        if strategy not in _STRATEGIES:
            # Fail at construction, not at run() — and not only on streams
            # that happen to have enough groups to reach the planner.
            raise ValueError(
                f"unknown shard strategy {strategy!r}; choose one of {_STRATEGIES}"
            )
        #: In-process engine: the ``shards=1`` path, the unshardable-workload
        #: fallback, and the provider of the compiled layout used for slicing.
        self.engine = StreamingEngine(
            workload,
            plan=plan,
            name=name,
            memory_sample_interval=memory_sample_interval,
            compaction=compaction,
            panes=panes,
            columnar=columnar,
        )
        self.workload = workload
        self.shards = shards
        self.strategy = strategy
        self.start_method = start_method
        self.parallel = parallel

    @property
    def compiled(self):
        """The compiled workload of the underlying in-process engine."""
        return self.engine.compiled

    @property
    def uses_panes(self) -> bool:
        """Whether the per-shard engines will take the pane-partitioned path."""
        return self.engine.uses_panes

    @staticmethod
    def group_counts(batches: Iterable[ColumnarBatch]) -> Counter:
        """Per-group relevant-event counts across ``batches`` (planner input)."""
        counts: Counter = Counter()
        for batch in batches:
            batch.count_groups(counts)
        return counts

    def run(self, stream: "EventStream | Iterable[Event]") -> ExecutionReport:
        """Shard the stream by group, fan out, and merge the shard reports.

        The parent makes two column passes over the stream's columnar
        batches (count groups for the planner, then slice events per shard —
        cached batches on in-memory :class:`EventStream`\\ s make both
        cheap), runs one engine per non-empty shard, and merges:

        * **Results** — concatenated in ascending shard index; group subsets
          are disjoint, so the merged :class:`ResultSet` has exactly the
          unsharded keys and the merge order is deterministic.
        * **Metrics** — work counters (relevant events, windows, results,
          state updates, cohorts, panes, columnar batches, late/dropped
          events) are summed over shards; note ``columnar_batches`` counts
          each *shard's* micro-batches, so its sum exceeds the unsharded
          count (a timestamp whose events span ``k`` shards yields ``k``
          per-slice batches); ``total_events`` is the parent-observed
          stream size; ``elapsed_seconds`` is the parent's wall-clock for
          the whole run (slicing + fan-out + merge), so throughput reflects
          the real cost; ``peak_memory_bytes`` sums the per-shard peaks
          (the workers are co-resident).  The new ``shards`` /
          ``groups_per_shard`` / ``shard_skew`` fields carry the shard
          plan's shape.  Only additive *numerator/denominator* fields are
          ever merged here — ratio-valued observables (``events_per_pane``,
          ``throughput_events_per_second``, ``avg_latency_ms``) are
          :class:`~repro.executor.metrics.RunMetrics` properties derived
          from the merged fields, so they come out as ratios **of the
          sums**, never as sums of per-shard ratios (the merge-semantics
          tests pin this).

        Workloads that cannot shard — no partition attributes, or fewer than
        two observed groups — fall back to the in-process engine and return
        its (unsharded) report unchanged.
        """
        if self.shards <= 1:
            return self.engine.run(stream)
        compiled = self.engine.compiled
        if not compiled.partition_attributes:
            # Ungrouped workloads are decidedly unshardable — skip the
            # column-extraction pass entirely (the stream is untouched).
            return self.engine.run(stream)
        started = time.perf_counter()
        batches = list(columnar_batches(stream, compiled.layout))
        total_events = sum(batch.size for batch in batches)
        counts = self.group_counts(batches)
        if len(counts) < 2:
            # Nothing to split: one (or no) group, or an ungrouped workload.
            # In-memory streams pass through untouched (their columnar cache
            # already holds the batches built above); one-shot iterables have
            # been consumed and are replayed from the materialised batches.
            if isinstance(stream, EventStream):
                return self.engine.run(stream)
            return self.engine.run(_batch_events(batches))
        plan = ShardPlanner(self.shards, self.strategy).plan(counts)
        slices: list[list[Event]] = [[] for _ in range(plan.shards)]
        for batch in batches:
            batch.slice_by_shard(plan.assignment, slices)
        tasks = [
            _ShardTask(
                index=index,
                workload=self.workload,
                plan=compiled.plan,
                name=self.engine.name,
                memory_sample_interval=self.engine.memory_sample_interval,
                compaction=self.engine.compaction,
                panes=self.engine.panes,
                columnar=self.engine.columnar,
                events=events,
            )
            for index, events in enumerate(slices)
            if events
        ]
        if self.parallel and len(tasks) > 1:
            import multiprocessing  # only a pooled run pays for the import

            context = multiprocessing.get_context(self.start_method)
            with context.Pool(processes=len(tasks)) as pool:
                outputs = pool.map(_run_shard, tasks)
        else:
            outputs = [_run_shard(task) for task in tasks]
        outputs.sort(key=lambda output: output[0])

        results = ResultSet(chain.from_iterable(output[1] for output in outputs))
        shard_metrics = [output[2] for output in outputs]

        def summed(field: str) -> int:
            # Only additive counters may pass through here; ratios must be
            # recomputed from the summed fields (RunMetrics properties do).
            return sum(getattr(metrics, field) for metrics in shard_metrics)

        merged = RunMetrics(
            executor_name=self.engine.name,
            total_events=total_events,
            relevant_events=summed("relevant_events"),
            elapsed_seconds=time.perf_counter() - started,
            windows_finalized=summed("windows_finalized"),
            results_emitted=summed("results_emitted"),
            peak_memory_bytes=summed("peak_memory_bytes"),
            state_updates=summed("state_updates"),
            cohorts_created=summed("cohorts_created"),
            cohorts_merged=summed("cohorts_merged"),
            panes_created=summed("panes_created"),
            pane_merges=summed("pane_merges"),
            columnar_batches=summed("columnar_batches"),
            events_late=summed("events_late"),
            events_dropped=summed("events_dropped"),
            shards=plan.shards,
            groups_per_shard=plan.groups_per_shard,
            shard_skew=round(plan.skew, 4),
        )
        return ExecutionReport(results=results, metrics=merged, plan=compiled.plan)


def _batch_events(batches: Sequence[ColumnarBatch]):
    """Replay the events of already-materialised batches, in stream order.

    The fallback path has already consumed the input iterable into columnar
    batches, so the in-process engine is fed from them instead of the
    (possibly one-shot) original stream.
    """
    for batch in batches:
        yield from batch.events
