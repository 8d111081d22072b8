"""Engine throughput benchmark: the repository's performance trajectory.

Every PR must be able to prove it did not regress the hot path, so this
module defines one *canonical, headless* benchmark of the shared online
engine and a machine-readable result file (``BENCH_engine.json``) that CI and
future sessions can diff:

* **Stream scaling** — the Fig. 13/14 cost driver is events per window.  The
  ``scale`` scenarios multiply the stream rate (and hence the stream length
  and the per-window density) by 1×, 4×, and 16×; a linear engine keeps its
  events/sec roughly flat while a quadratic one collapses by the scale
  factor.
* **Dense sharing** — the Fig. 13 regime: a dense multi-query workload where
  the shared online method (Sharon) must beat the non-shared online baseline
  (A-Seq).
* **Cohort compaction** — the long-window regime where all anchor cohorts
  collapse; recorded as the ``cohort_compaction`` section.
* **Pane sharing** — the small-slide regime (overlap factor 20) where the
  pane-partitioned engine mode must beat per-instance fan-out; recorded as
  the ``pane_sharing`` section.
* **Columnar routing** — the routing-bound regime (many event types, many
  groups, highly selective predicates: per-event routing overhead dominates)
  where columnar micro-batch ingestion must beat the scalar per-event path;
  recorded as the ``columnar_routing`` section.  Best-of-N, so the columnar
  side is measured warm — the stream's per-layout column cache is built on
  the first run, which is the ingestion cost model of a columnar source
  (columns are extracted once, however many runs or workloads consume them).

* **Sharded groups** — the many-group regime (dozens of independent groups)
  where group-sharded process fan-out
  (:class:`~repro.executor.sharding.ShardedEngine`) must beat the in-process
  engine on multi-core machines; recorded as the ``sharded_groups`` section
  together with the shard plan's shape and the measuring machine's CPU
  count (the win is parallelism, so single-core runs record a ratio near or
  below 1× and the gate skips the speedup assertion there).

* **Deterministic replay** — the dense-sharing stream recorded to a durable
  JSONL event log and replayed through
  :class:`~repro.replay.runner.ReplayRunner`; recorded as the ``replay``
  section with the log's size and write throughput, replay vs live
  throughput, the final state hash, and the replays-identical /
  matches-live correctness flags (see ``docs/replay.md``).

* **Disorder tolerance** — the dense-sharing stream delivered through the
  watermark-driven reorder buffer (``docs/disorder.md``), both in sorted
  order and in a bounded-disorder arrival order; recorded as the
  ``disorder`` section with the no-buffer baseline, buffered in-order, and
  buffered shuffled throughputs, the reorder overhead factor on an in-order
  stream (gated ≤ 1.5× in ``benchmarks/test_engine_throughput.py``), and
  the zero-late / shuffled-matches-sorted correctness flags.

Run ``python -m repro bench --section <name>`` (repeatable) to run a subset
of the sections while iterating on one of them.

Run it with ``python -m repro bench`` (or ``make bench``), or through pytest
via ``benchmarks/test_engine_throughput.py`` which asserts the scaling,
sharing, compaction, pane, columnar-routing, sharding, and replay
properties on the same records.  The full record schema is documented in
``docs/benchmarks.md``.
"""

from __future__ import annotations

import json
import os
import platform
import random
import statistics
import time
from dataclasses import asdict, dataclass
from pathlib import Path

from ..core.candidates import SharingCandidate
from ..core.plan import SharingPlan
from ..datasets.synthetic import ChainConfig, chain_stream, chain_workload
from ..events.event import Event
from ..events.stream import EventStream
from ..events.windows import SlidingWindow
from ..executor.aseq import ASeqExecutor
from ..executor.shared import SharonExecutor
from ..queries.pattern import Pattern
from ..queries.predicates import FilterPredicate, PredicateSet
from ..queries.query import Query
from ..queries.workload import Workload
from ..utils.rates import RateCatalog

__all__ = [
    "BenchRecord",
    "CohortCompactionRecord",
    "DisorderRecord",
    "PaneSharingRecord",
    "ColumnarRoutingRecord",
    "ReplayBenchRecord",
    "ShardedGroupsRecord",
    "SCALE_FACTORS",
    "SHARD_BENCH_SHARDS",
    "scaling_scenario",
    "dense_sharing_scenario",
    "long_window_scenario",
    "small_slide_scenario",
    "routing_scenario",
    "many_group_scenario",
    "run_disorder_benchmark",
    "run_engine_benchmark",
    "run_compaction_benchmark",
    "run_pane_benchmark",
    "run_replay_benchmark",
    "run_routing_benchmark",
    "run_sharding_benchmark",
    "write_bench_json",
]

#: Best-of-N sample count of the columnar-routing section (overridable via
#: the ``COLUMNAR_BENCH_REPEATS`` environment variable / Makefile knob).
COLUMNAR_BENCH_REPEATS = int(os.environ.get("COLUMNAR_BENCH_REPEATS", "5"))

#: Stream-scale multipliers exercised by the scaling scenarios.
SCALE_FACTORS: tuple[int, ...] = (1, 4, 16)

#: Shard count of the ``sharded_groups`` benchmark section (the speedup gate
#: compares this fan-out against the in-process ``shards=1`` run).
SHARD_BENCH_SHARDS = 4

#: Default location of the machine-readable benchmark record.
DEFAULT_BENCH_PATH = "BENCH_engine.json"


@dataclass(frozen=True)
class BenchRecord:
    """One (scenario, executor) measurement of the engine benchmark.

    Each measurement is best-of-N: ``elapsed_seconds`` (and the derived
    ``events_per_sec``) is the minimum over ``samples`` runs, and
    ``elapsed_median_seconds`` exposes the sample spread so noisy records are
    visible in the performance trajectory instead of being silently hidden by
    the best run.
    """

    scenario: str
    executor: str
    events: int
    elapsed_seconds: float
    events_per_sec: float
    peak_mb: float
    elapsed_median_seconds: float = 0.0
    samples: int = 1

    def to_json(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class CohortCompactionRecord:
    """The cohort-compaction section of ``BENCH_engine.json``.

    Captures, on the long-window high-anchor scenario, how many anchor
    cohorts the shared states created and how many compaction merged away,
    plus the Sharon throughput with compaction on vs off — the machine-checked
    statement that compaction shrinks state *and* does not cost throughput.
    """

    scenario: str
    events: int
    cohorts_created: int
    cohorts_merged: int
    cohorts_remaining: int
    compaction_on_events_per_sec: float
    compaction_off_events_per_sec: float
    samples: int = 1

    def to_json(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class PaneSharingRecord:
    """The pane-sharing section of ``BENCH_engine.json``.

    Captures, on the small-slide scenario (deep window-instance overlap,
    where per-instance processing re-touches every event ``size / slide``
    times), the engine throughput with pane partitioning on vs off plus the
    pane-mode work counters — the machine-checked statement that processing
    each event once per pane beats processing it once per covering window.
    """

    scenario: str
    events: int
    window_size: int
    window_slide: int
    pane_width: int
    panes_per_window: int
    panes_created: int
    pane_merges: int
    events_per_pane: float
    panes_on_events_per_sec: float
    panes_off_events_per_sec: float
    samples: int = 1

    def to_json(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class ColumnarRoutingRecord:
    """The columnar-routing section of ``BENCH_engine.json``.

    Captures, on the routing-bound scenario (many event types × many groups ×
    highly selective predicates, so per-event routing overhead dominates the
    run), the engine throughput with columnar micro-batch ingestion on vs off
    plus the routing shape counters — the machine-checked statement that
    compiled column kernels beat the scalar per-event path exactly where
    routing is the bottleneck.
    """

    scenario: str
    events: int
    event_types: int
    pattern_event_types: int
    groups: int
    relevant_fraction: float
    columnar_batches: int
    columnar_on_events_per_sec: float
    columnar_off_events_per_sec: float
    samples: int = 1

    def to_json(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class ReplayBenchRecord:
    """The deterministic-replay section of ``BENCH_engine.json``.

    Captures, on the dense-sharing scenario, the cost of the durable event
    log and of replaying it: log size and write throughput, replay throughput
    through :class:`~repro.replay.runner.ReplayRunner` next to the live
    (in-memory stream) throughput, the final state hash, and two correctness
    flags — ``replays_identical`` (``replays`` fresh replays all reached the
    same state hash) and ``matches_live`` (replayed results equal the live
    run's).  The gate in ``benchmarks/test_engine_throughput.py`` requires
    both flags and a replay throughput within a constant factor of live.
    """

    scenario: str
    events: int
    log_bytes: int
    record_events_per_sec: float
    replay_events_per_sec: float
    live_events_per_sec: float
    state_hash: str
    replays: int
    replays_identical: bool
    matches_live: bool
    samples: int = 1

    def to_json(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class DisorderRecord:
    """The disorder-tolerance section of ``BENCH_engine.json``.

    Captures, on the dense-sharing scenario, what the watermark-driven
    reorder buffer (``docs/disorder.md``) costs and what it buys: engine
    throughput with no buffer vs with the buffer on an already-sorted
    arrival order (``reorder_overhead`` is their ratio — the pure cost of
    routing every event through the buffer), throughput on a
    bounded-disorder arrival order, and two correctness flags —
    ``shuffled_matches_sorted`` (the disordered run's results equal the
    sorted run's) and zero ``events_late``/``events_dropped`` (the shuffle
    honoured its ≤ ``max_lateness`` promise).  All three measurements feed
    plain event iterables so none of them benefits from the in-memory
    stream's column cache.  The gate in
    ``benchmarks/test_engine_throughput.py`` requires the flags and a
    reorder overhead ≤ 1.5× on the in-order stream.
    """

    scenario: str
    events: int
    max_lateness: int
    inorder_events_per_sec: float
    reordered_inorder_events_per_sec: float
    reordered_shuffled_events_per_sec: float
    reorder_overhead: float
    events_late: int
    events_dropped: int
    shuffled_matches_sorted: bool
    samples: int = 1

    def to_json(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class ShardedGroupsRecord:
    """The sharded-groups section of ``BENCH_engine.json``.

    Captures, on the many-group scenario (dozens of independent groups, so
    the stream splits into balanced per-group shards), the engine throughput
    with group-sharded process fan-out vs the in-process ``shards=1`` run,
    plus the shard plan's shape and the machine's CPU count.  The wall-clock
    win is parallelism: it requires real cores, so the gate in
    ``benchmarks/test_engine_throughput.py`` enforces the ≥1.5× speedup only
    where ``cpu_count >= shards`` can deliver it — the zero-divergence check
    (sharded ≡ unsharded results) is enforced unconditionally by
    :func:`run_sharding_benchmark` itself.
    """

    scenario: str
    events: int
    groups: int
    shards: int
    strategy: str
    cpu_count: int
    groups_per_shard: tuple[int, ...]
    shard_skew: float
    sharded_events_per_sec: float
    unsharded_events_per_sec: float
    samples: int = 1

    def to_json(self) -> dict:
        """The record as a JSON-serialisable dict (tuples become lists)."""
        payload = asdict(self)
        payload["groups_per_shard"] = list(self.groups_per_shard)
        return payload


def scaling_scenario(
    scale: int,
    duration: int = 60,
    base_events_per_second: float = 8.0,
    num_queries: int = 12,
    pattern_length: int = 4,
    num_types: int = 8,
    num_entities: int = 20,
    seed: int = 41,
) -> tuple[Workload, EventStream]:
    """The stream-scaling scenario at ``scale`` × the base rate.

    The rate multiplier scales both the stream length and the number of
    events per window (the paper's dominant cost factor), so a quadratic
    per-window engine shows its asymptotics here even at CI-friendly sizes.
    """
    config = ChainConfig(num_event_types=num_types)
    workload = chain_workload(
        num_queries,
        pattern_length,
        config=config,
        window=SlidingWindow(size=40, slide=20),
        seed=seed,
        offset_pool_size=3,
    )
    stream = chain_stream(
        duration=duration,
        events_per_second=base_events_per_second * scale,
        config=config,
        num_entities=num_entities,
        seed=seed + 1,
        name=f"scale-{scale}x",
    )
    return workload, stream


def dense_sharing_scenario(
    num_queries: int = 24,
    pattern_length: int = 5,
    num_types: int = 10,
    num_entities: int = 60,
    events_per_second: float = 60.0,
    duration: int = 90,
    seed: int = 47,
) -> tuple[Workload, EventStream]:
    """The Fig. 13 dense regime: many queries sharing long chain patterns."""
    config = ChainConfig(num_event_types=num_types)
    workload = chain_workload(
        num_queries,
        pattern_length,
        config=config,
        window=SlidingWindow(size=40, slide=20),
        seed=seed,
        offset_pool_size=2,
    )
    stream = chain_stream(
        duration=duration,
        events_per_second=events_per_second,
        config=config,
        num_entities=num_entities,
        seed=seed + 1,
        name="fig13-dense",
    )
    return workload, stream


def long_window_scenario(
    num_queries: int = 8,
    window: SlidingWindow | None = None,
    duration: int = 240,
) -> tuple[Workload, EventStream, SharingPlan]:
    """Long window, one anchor cohort per timestamp: the compaction regime.

    Every query shares the two-type prefix ``(A, B)``, so each sharing
    runner's carry is permanently the unit state and *all* anchor cohorts are
    mergeable.  Without compaction a scope accumulates one cohort per
    timestamp for the whole (long) window; with compaction it holds one.
    """
    window = window if window is not None else SlidingWindow(size=120, slide=60)
    suffix_types = tuple(f"T{i}" for i in range(num_queries))
    queries = [
        Query(Pattern(("A", "B", suffix)), window, name=f"lw{i}")
        for i, suffix in enumerate(suffix_types)
    ]
    workload = Workload(queries, name="long-window")
    plan = SharingPlan(
        [SharingCandidate(Pattern(("A", "B")), tuple(q.name for q in queries), 1.0)]
    )
    events = []
    event_id = 0
    for timestamp in range(duration):
        for event_type in ("A", "B", suffix_types[timestamp % num_queries]):
            events.append(Event(event_type, timestamp, {}, event_id))
            event_id += 1
    return workload, EventStream(events, name="long-window"), plan


def small_slide_scenario(
    num_queries: int = 6,
    pattern_length: int = 4,
    num_types: int = 8,
    num_entities: int = 30,
    events_per_second: float = 40.0,
    duration: int = 120,
    window: SlidingWindow | None = None,
    seed: int = 53,
) -> tuple[Workload, EventStream]:
    """Deep window-instance overlap: the pane-sharing regime.

    A window of size 40 sliding by 2 covers every timestamp with 20
    instances, so the per-instance engine processes each event 20 times;
    pane partitioning (pane width ``gcd(40, 2) = 2``) processes it once and
    folds each closed pane into the covering instances.
    """
    config = ChainConfig(num_event_types=num_types)
    window = window if window is not None else SlidingWindow(size=40, slide=2)
    workload = chain_workload(
        num_queries,
        pattern_length,
        config=config,
        window=window,
        seed=seed,
        offset_pool_size=2,
    )
    stream = chain_stream(
        duration=duration,
        events_per_second=events_per_second,
        config=config,
        num_entities=num_entities,
        seed=seed + 1,
        name="small-slide",
    )
    return workload, stream


def routing_scenario(
    num_event_types: int = 64,
    num_pattern_types: int = 4,
    num_queries: int = 6,
    pattern_length: int = 3,
    num_entities: int = 8,
    events_per_second: float = 200.0,
    duration: int = 90,
    value_range: int = 100,
    filter_threshold: int = 97,
    window: SlidingWindow | None = None,
    seed: int = 61,
) -> tuple[Workload, EventStream]:
    """Routing-bound regime: per-event dispatch dominates, aggregation is tiny.

    Only ``num_pattern_types`` of the ``num_event_types`` stream types appear
    in any pattern, and the shared filter predicate passes just
    ``(value_range - 1 - filter_threshold) / value_range`` of the remaining
    events (~2% by default), so virtually every event's cost *is* the routing
    decision: type dispatch, predicate evaluation, group-key construction,
    and metric counting.  This is the regime the columnar micro-batch path
    exists for — the scalar loop pays per-event Python calls for each of
    those steps, the columnar loop replaces them with a precomputed
    type-relevance selection, one compiled filter kernel pass, and
    pre-interned group keys.
    """
    rng = random.Random(seed)
    pattern_types = [f"T{i}" for i in range(num_pattern_types)]
    all_types = [f"T{i}" for i in range(num_event_types)]
    window = window if window is not None else SlidingWindow(size=40, slide=20)
    predicates = PredicateSet(
        equivalences=PredicateSet.same("entity").equivalences,
        filters=[FilterPredicate("value", ">", filter_threshold)],
    )
    queries = [
        Query(
            Pattern(tuple(rng.sample(pattern_types, pattern_length))),
            window,
            predicates=predicates,
            name=f"rt{index}",
        )
        for index in range(num_queries)
    ]
    workload = Workload(queries, name="columnar-routing")
    events = []
    event_id = 0
    for timestamp in range(duration):
        for _ in range(int(events_per_second)):
            events.append(
                Event(
                    rng.choice(all_types),
                    timestamp,
                    {
                        "entity": rng.randrange(num_entities),
                        "value": rng.randrange(value_range),
                    },
                    event_id,
                )
            )
            event_id += 1
    return workload, EventStream(events, name="columnar-routing")


def many_group_scenario(
    num_queries: int = 12,
    pattern_length: int = 4,
    num_types: int = 10,
    num_entities: int = 64,
    events_per_second: float = 320.0,
    duration: int = 120,
    window: SlidingWindow | None = None,
    seed: int = 71,
) -> tuple[Workload, EventStream]:
    """Many independent groups: the group-sharding regime.

    Dozens of entities (one group each, via the chain workload's equivalence
    predicate) generate balanced per-group load, and the per-group
    aggregation work dominates routing — exactly the shape where splitting
    groups across worker processes approaches a linear wall-clock win.  The
    scenario is deliberately group-heavy and routing-light: sharding cannot
    reduce total work (each shard re-runs the same engine over its slice),
    it can only spread it across cores.
    """
    config = ChainConfig(num_event_types=num_types)
    window = window if window is not None else SlidingWindow(size=40, slide=20)
    workload = chain_workload(
        num_queries,
        pattern_length,
        config=config,
        window=window,
        seed=seed,
        offset_pool_size=3,
    )
    stream = chain_stream(
        duration=duration,
        events_per_second=events_per_second,
        config=config,
        num_entities=num_entities,
        seed=seed + 1,
        name="many-group",
    )
    return workload, stream


def _timed_run(executor, stream: EventStream, repeats: int):
    """Best-of-``repeats`` wall-clock measurement of one executor."""
    elapsed_samples: list[float] = []
    report = None
    for _ in range(repeats):
        started = time.perf_counter()
        report = executor.run(stream)
        elapsed_samples.append(time.perf_counter() - started)
    return report, min(elapsed_samples), statistics.median(elapsed_samples)


def _measure(
    scenario: str,
    executor_name: str,
    workload: Workload,
    stream: EventStream,
    memory_sample_interval: int,
    repeats: int = 3,
) -> BenchRecord:
    # Sharon vs A-Seq is plan vs empty plan: both pin the per-instance
    # strategy, the one in which a sharing plan acts (as do the cohort
    # sections below — panes keep no cohorts).
    if executor_name == "Sharon":
        rates = RateCatalog.from_stream(stream, per="window", window_size=workload[0].window.size)
        executor = SharonExecutor(
            workload, rates=rates, memory_sample_interval=memory_sample_interval, panes=False
        )
    elif executor_name == "A-Seq":
        executor = ASeqExecutor(
            workload, memory_sample_interval=memory_sample_interval, panes=False
        )
    else:  # pragma: no cover - guarded by callers
        raise ValueError(f"unknown benchmark executor {executor_name!r}")
    report, best, median = _timed_run(executor, stream, repeats)
    total = len(stream)
    return BenchRecord(
        scenario=scenario,
        executor=executor_name,
        events=total,
        elapsed_seconds=round(best, 6),
        events_per_sec=round(total / best if best > 0 else float(total), 1),
        peak_mb=round(report.metrics.peak_memory_bytes / 1_000_000, 3),
        elapsed_median_seconds=round(median, 6),
        samples=repeats,
    )


def run_engine_benchmark(
    scales: tuple[int, ...] = SCALE_FACTORS,
    memory_sample_interval: int = 2,
    executors: tuple[str, ...] = ("Sharon", "A-Seq"),
    repeats: int = 3,
) -> list[BenchRecord]:
    """Run all scenarios × executors and return the measurement records."""
    records: list[BenchRecord] = []
    for scale in scales:
        workload, stream = scaling_scenario(scale)
        for executor_name in executors:
            records.append(
                _measure(
                    f"scale-{scale}x",
                    executor_name,
                    workload,
                    stream,
                    memory_sample_interval,
                    repeats,
                )
            )
    workload, stream = dense_sharing_scenario()
    for executor_name in executors:
        records.append(
            _measure("fig13-dense", executor_name, workload, stream, memory_sample_interval, repeats)
        )
    return records


def run_compaction_benchmark(repeats: int = 3) -> CohortCompactionRecord:
    """Measure cohort compaction on the long-window scenario.

    Runs the same workload/plan with compaction on and off and reports the
    cohort reduction of the on-run next to both throughputs.
    """
    workload, stream, plan = long_window_scenario()
    total = len(stream)

    on_report, on_best, _ = _timed_run(
        SharonExecutor(workload, plan=plan, compaction=True, panes=False), stream, repeats
    )
    off_report, off_best, _ = _timed_run(
        SharonExecutor(workload, plan=plan, compaction=False, panes=False), stream, repeats
    )
    if not on_report.results.matches(off_report.results):
        raise RuntimeError(
            "cohort compaction changed the long-window benchmark results; "
            "refusing to record its throughput"
        )
    return CohortCompactionRecord(
        scenario="long-window",
        events=total,
        cohorts_created=on_report.metrics.cohorts_created,
        cohorts_merged=on_report.metrics.cohorts_merged,
        cohorts_remaining=on_report.metrics.cohorts_created
        - on_report.metrics.cohorts_merged,
        compaction_on_events_per_sec=round(total / on_best if on_best > 0 else float(total), 1),
        compaction_off_events_per_sec=round(
            total / off_best if off_best > 0 else float(total), 1
        ),
        samples=repeats,
    )


def run_pane_benchmark(repeats: int = 3) -> PaneSharingRecord:
    """Measure pane partitioning on the small-slide scenario.

    Runs the same workload/plan with panes on and off, refuses to record a
    throughput if the two runs disagree on any result, and reports the pane
    work counters of the on-run next to both throughputs.
    """
    workload, stream = small_slide_scenario()
    window = workload[0].window
    total = len(stream)
    rates = RateCatalog.from_stream(stream, per="window", window_size=window.size)
    plan = SharonExecutor(workload, rates=rates).plan

    on_executor = SharonExecutor(workload, plan=plan, panes=True)
    if not on_executor.engine.uses_panes:  # pragma: no cover - scenario invariant
        raise RuntimeError("the small-slide scenario must run in pane mode")
    on_report, on_best, _ = _timed_run(on_executor, stream, repeats)
    off_report, off_best, _ = _timed_run(
        SharonExecutor(workload, plan=plan, panes=False), stream, repeats
    )
    if not on_report.results.matches(off_report.results):
        raise RuntimeError(
            "pane partitioning changed the small-slide benchmark results; "
            "refusing to record its throughput"
        )
    return PaneSharingRecord(
        scenario="small-slide",
        events=total,
        window_size=window.size,
        window_slide=window.slide,
        pane_width=window.pane_width,
        panes_per_window=window.panes_per_window,
        panes_created=on_report.metrics.panes_created,
        pane_merges=on_report.metrics.pane_merges,
        events_per_pane=round(on_report.metrics.events_per_pane, 2),
        panes_on_events_per_sec=round(total / on_best if on_best > 0 else float(total), 1),
        panes_off_events_per_sec=round(total / off_best if off_best > 0 else float(total), 1),
        samples=repeats,
    )


def run_routing_benchmark(repeats: int = COLUMNAR_BENCH_REPEATS) -> ColumnarRoutingRecord:
    """Measure columnar micro-batch ingestion on the routing-bound scenario.

    Runs the same workload with the columnar path on and off (scalar
    per-event reference), refuses to record a throughput if the two modes
    disagree on any result, and reports the routing shape counters of the
    on-run next to both throughputs.  Best-of-``repeats``: the columnar side
    is measured warm (the stream's column cache is built once, on the first
    run), matching the once-per-stream ingestion cost of a columnar source.
    """
    workload, stream = routing_scenario()
    total = len(stream)

    on_report, on_best, _ = _timed_run(
        SharonExecutor(workload, plan=SharingPlan(), columnar=True), stream, repeats
    )
    off_report, off_best, _ = _timed_run(
        SharonExecutor(workload, plan=SharingPlan(), columnar=False), stream, repeats
    )
    if not on_report.results.matches(off_report.results):
        raise RuntimeError(
            "columnar routing changed the routing-bound benchmark results; "
            "refusing to record its throughput"
        )
    metrics = on_report.metrics
    pattern_types = {
        event_type for query in workload for event_type in query.pattern.event_types
    }
    return ColumnarRoutingRecord(
        scenario="columnar-routing",
        events=total,
        event_types=len(stream.event_types()),
        pattern_event_types=len(pattern_types),
        groups=len({event.attribute("entity") for event in stream}),
        relevant_fraction=round(metrics.relevant_events / max(metrics.total_events, 1), 5),
        columnar_batches=metrics.columnar_batches,
        columnar_on_events_per_sec=round(total / on_best if on_best > 0 else float(total), 1),
        columnar_off_events_per_sec=round(
            total / off_best if off_best > 0 else float(total), 1
        ),
        samples=repeats,
    )


def run_sharding_benchmark(
    repeats: int = 3, shards: int = SHARD_BENCH_SHARDS
) -> ShardedGroupsRecord:
    """Measure group-sharded process fan-out on the many-group scenario.

    Runs the same workload/plan through the engine with ``shards`` worker
    processes and in-process (``shards=1``), refuses to record a throughput
    if the two runs disagree on any result (the in-harness zero-divergence
    check), and reports the shard plan's shape — plus the CPU count the
    measurement was taken on, because the sharded side can only win where
    real cores exist — next to both throughputs.
    """
    workload, stream = many_group_scenario()
    window = workload[0].window
    total = len(stream)
    rates = RateCatalog.from_stream(stream, per="window", window_size=window.size)
    plan = SharonExecutor(workload, rates=rates).plan

    sharded_report, sharded_best, _ = _timed_run(
        SharonExecutor(workload, plan=plan, shards=shards), stream, repeats
    )
    unsharded_report, unsharded_best, _ = _timed_run(
        SharonExecutor(workload, plan=plan), stream, repeats
    )
    if not sharded_report.results.matches(unsharded_report.results):
        raise RuntimeError(
            "group sharding changed the many-group benchmark results; "
            "refusing to record its throughput"
        )
    metrics = sharded_report.metrics
    if metrics.shards != shards:  # pragma: no cover - scenario invariant
        raise RuntimeError(
            f"the many-group scenario must fan out to {shards} shards, "
            f"got {metrics.shards}"
        )
    return ShardedGroupsRecord(
        scenario="many-group",
        events=total,
        groups=sum(metrics.groups_per_shard),
        shards=metrics.shards,
        strategy="greedy",
        cpu_count=os.cpu_count() or 1,
        groups_per_shard=metrics.groups_per_shard,
        shard_skew=metrics.shard_skew,
        sharded_events_per_sec=round(
            total / sharded_best if sharded_best > 0 else float(total), 1
        ),
        unsharded_events_per_sec=round(
            total / unsharded_best if unsharded_best > 0 else float(total), 1
        ),
        samples=repeats,
    )


def run_replay_benchmark(repeats: int = 3, replays: int = 3) -> ReplayBenchRecord:
    """Measure the durable event log and deterministic replay on the dense scenario.

    Writes the dense-sharing stream to a JSONL event log (timed: the durable
    recording cost), replays it ``repeats`` times through
    :class:`~repro.replay.runner.ReplayRunner` (best-of, warm log), runs the
    live in-memory engine for reference, then replays ``replays`` more times
    from scratch and records whether every replay reached the same final
    state hash and whether the replayed results equal the live run's.
    """
    import tempfile

    from ..events.log import EventLogReader, write_event_log
    from ..replay import ReplayRunner

    workload, stream = dense_sharing_scenario()
    window = workload[0].window
    total = len(stream)
    rates = RateCatalog.from_stream(stream, per="window", window_size=window.size)
    plan = SharonExecutor(workload, rates=rates).plan

    with tempfile.TemporaryDirectory() as tmpdir:
        log_path = Path(tmpdir) / "bench-events.jsonl"
        record_samples = []
        for _ in range(repeats):
            started = time.perf_counter()
            write_event_log(stream, log_path, stream_name=stream.name)
            record_samples.append(time.perf_counter() - started)
        record_best = min(record_samples)
        log_bytes = log_path.stat().st_size

        reader = EventLogReader(log_path)
        replay_samples = []
        replay_report = None
        for _ in range(repeats):
            runner = ReplayRunner(workload, plan=plan, name="Replay")
            started = time.perf_counter()
            replay_report = runner.run(reader)
            replay_samples.append(time.perf_counter() - started)
        replay_best = min(replay_samples)

        live_report, live_best, _ = _timed_run(
            SharonExecutor(workload, plan=plan), stream, repeats
        )

        hashes = {replay_report.state_hash}
        for _ in range(replays - 1):
            hashes.add(ReplayRunner(workload, plan=plan).run(reader).state_hash)

    return ReplayBenchRecord(
        scenario="dense-sharing-replay",
        events=total,
        log_bytes=log_bytes,
        record_events_per_sec=round(total / record_best if record_best > 0 else float(total), 1),
        replay_events_per_sec=round(total / replay_best if replay_best > 0 else float(total), 1),
        live_events_per_sec=round(total / live_best if live_best > 0 else float(total), 1),
        state_hash=replay_report.state_hash,
        replays=replays,
        replays_identical=len(hashes) == 1,
        matches_live=live_report.results.matches(replay_report.results),
        samples=repeats,
    )


def run_disorder_benchmark(repeats: int = 3, max_lateness: int = 8) -> DisorderRecord:
    """Measure bounded-disorder ingestion on the dense-sharing scenario.

    Runs the same workload/plan three ways — no reorder buffer on the sorted
    arrival order, buffer on the sorted order (the overhead measurement),
    and buffer on a ``bounded_shuffle`` arrival order — refuses to record a
    throughput if buffering or reordering changes any result, and reports
    all three throughputs plus the lateness counters of the shuffled run.
    Every run feeds a plain event iterable (fresh iterator per sample), so
    the comparison never mixes the in-memory stream's cached columnar path
    with per-run column construction.
    """
    from ..events.disorder import bounded_shuffle

    workload, stream = dense_sharing_scenario()
    window = workload[0].window
    events = list(stream)
    total = len(events)
    rates = RateCatalog.from_stream(stream, per="window", window_size=window.size)
    plan = SharonExecutor(workload, rates=rates).plan
    shuffled = bounded_shuffle(events, max_lateness, seed=83)

    def timed(order, **engine_kwargs):
        samples = []
        report = None
        for _ in range(repeats):
            executor = SharonExecutor(workload, plan=plan, **engine_kwargs)
            started = time.perf_counter()
            report = executor.run(iter(order))
            samples.append(time.perf_counter() - started)
        return report, min(samples)

    baseline_report, baseline_best = timed(events)
    buffered_report, buffered_best = timed(events, max_lateness=max_lateness)
    shuffled_report, shuffled_best = timed(shuffled, max_lateness=max_lateness)

    if not buffered_report.results.matches(baseline_report.results):
        raise RuntimeError(
            "the reorder buffer changed the dense-sharing benchmark results "
            "on an in-order stream; refusing to record its throughput"
        )
    matches = shuffled_report.results.matches(baseline_report.results)

    def events_per_sec(best: float) -> float:
        return round(total / best if best > 0 else float(total), 1)

    return DisorderRecord(
        scenario="dense-sharing-disorder",
        events=total,
        max_lateness=max_lateness,
        inorder_events_per_sec=events_per_sec(baseline_best),
        reordered_inorder_events_per_sec=events_per_sec(buffered_best),
        reordered_shuffled_events_per_sec=events_per_sec(shuffled_best),
        # Wall-clock slowdown factor of the buffer on an in-order stream
        # (> 1 means buffering cost; the gate allows up to 1.5×).
        reorder_overhead=round(
            buffered_best / baseline_best if baseline_best > 0 else 1.0, 3
        ),
        events_late=shuffled_report.metrics.events_late,
        events_dropped=shuffled_report.metrics.events_dropped,
        shuffled_matches_sorted=matches,
        samples=repeats,
    )


def write_bench_json(
    records: list[BenchRecord],
    path: "str | Path" = DEFAULT_BENCH_PATH,
    compaction: "CohortCompactionRecord | None" = None,
    pane_sharing: "PaneSharingRecord | None" = None,
    columnar_routing: "ColumnarRoutingRecord | None" = None,
    sharded_groups: "ShardedGroupsRecord | None" = None,
    replay: "ReplayBenchRecord | None" = None,
    disorder: "DisorderRecord | None" = None,
) -> Path:
    """Write the records as the machine-readable ``BENCH_engine.json``."""
    payload = {
        "benchmark": "engine-throughput",
        "python": platform.python_version(),
        "results": [record.to_json() for record in records],
    }
    if compaction is not None:
        payload["cohort_compaction"] = compaction.to_json()
    if pane_sharing is not None:
        payload["pane_sharing"] = pane_sharing.to_json()
    if columnar_routing is not None:
        payload["columnar_routing"] = columnar_routing.to_json()
    if sharded_groups is not None:
        payload["sharded_groups"] = sharded_groups.to_json()
    if replay is not None:
        payload["replay"] = replay.to_json()
    if disorder is not None:
        payload["disorder"] = disorder.to_json()
    target = Path(path)
    target.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")
    return target
