"""Benchmark scenarios: workload/stream pairs for the evaluation sweeps.

The paper's evaluation (Section 8.1) varies three cost factors — events per
window, number of queries, and pattern length — over three data sets (TX, LR,
EC).  The scenario builders here produce workload/stream pairs with the same
structure at a configurable, laptop-friendly scale.  They are used both by
the ``benchmarks/`` suite (one module per figure) and by the
``examples/reproduce_figures.py`` script.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass

from ..core.optimizer import GreedyOptimizer, SharonOptimizer
from ..core.plan import SharingPlan
from ..datasets.linear_road import LinearRoadConfig, generate_linear_road_stream
from ..datasets.synthetic import ChainConfig, chain_stream, chain_workload
from ..events.stream import EventStream
from ..events.windows import SlidingWindow
from ..executor.aseq import ASeqExecutor
from ..executor.engine import ExecutionReport
from ..executor.shared import SharonExecutor
from ..executor.twostep import FlinkLikeExecutor, SpassLikeExecutor
from ..queries.workload import Workload
from ..utils.rates import RateCatalog

__all__ = [
    "ExecutorRun",
    "lr_scenario",
    "tx_scenario",
    "ec_scenario",
    "dense_scenario",
    "optimize",
    "greedy_plan",
    "run_executor",
    "EXECUTOR_NAMES",
]


@dataclass
class ExecutorRun:
    """One executor measurement reduced to the metrics the figures plot."""

    name: str
    latency_ms: float
    throughput: float
    memory_bytes: int
    #: All latency samples when the run came from a best-of-N harness
    #: (empty for single-shot runs); ``latency_ms`` is then the minimum.
    latency_samples_ms: tuple[float, ...] = ()

    @classmethod
    def from_report(cls, report: ExecutionReport) -> "ExecutorRun":
        return cls(
            name=report.metrics.executor_name,
            latency_ms=report.metrics.avg_latency_ms,
            throughput=report.metrics.throughput_events_per_second,
            memory_bytes=report.metrics.peak_memory_bytes,
        )

    @property
    def latency_spread(self) -> dict[str, float]:
        """Min/median over the recorded samples (noise visibility in records)."""
        samples = self.latency_samples_ms or (self.latency_ms,)
        return {"min": min(samples), "median": statistics.median(samples)}


def lr_scenario(
    num_queries: int = 20,
    pattern_length: int = 6,
    events_per_second: float = 30.0,
    duration: int = 120,
    num_segments: int = 20,
    window: SlidingWindow | None = None,
    seed: int = 101,
) -> tuple[Workload, EventStream]:
    """Linear-Road-style scenario: route queries over expressway segments."""
    window = window or SlidingWindow(size=40, slide=20)
    chain = ChainConfig(num_event_types=num_segments, type_prefix="Seg", entity_attribute="car")
    workload = chain_workload(
        num_queries,
        pattern_length,
        config=chain,
        window=window,
        seed=seed,
        offset_pool_size=max(2, num_queries // 5),
    )
    config = LinearRoadConfig(
        num_segments=num_segments,
        num_cars=50,
        duration_seconds=duration,
        initial_rate=events_per_second,
        final_rate=events_per_second,
        seed=seed + 1,
    )
    return workload, generate_linear_road_stream(config)


def tx_scenario(
    num_queries: int = 20,
    pattern_length: int = 6,
    events_per_second: float = 30.0,
    duration: int = 120,
    window: SlidingWindow | None = None,
    seed: int = 201,
) -> tuple[Workload, EventStream]:
    """Taxi-style scenario built on the synthetic chain walker.

    The TX figures vary events per window and the number of queries; the
    chain generator gives precise control over both while keeping the same
    structure (vehicles moving along street sequences).
    """
    window = window or SlidingWindow(size=40, slide=20)
    chain = ChainConfig(num_event_types=16, type_prefix="St", entity_attribute="vehicle")
    workload = chain_workload(
        num_queries,
        pattern_length,
        config=chain,
        window=window,
        seed=seed,
        offset_pool_size=max(2, num_queries // 5),
    )
    stream = chain_stream(
        duration=duration,
        events_per_second=events_per_second,
        config=chain,
        num_entities=40,
        seed=seed + 1,
    )
    return workload, stream


def ec_scenario(
    num_queries: int = 20,
    pattern_length: int = 8,
    events_per_second: float = 30.0,
    duration: int = 120,
    num_items: int = 30,
    window: SlidingWindow | None = None,
    seed: int = 301,
) -> tuple[Workload, EventStream]:
    """E-commerce scenario: purchase-sequence queries over the item catalogue."""
    window = window or SlidingWindow(size=40, slide=20)
    chain = ChainConfig(
        num_event_types=num_items, type_prefix="Item", entity_attribute="customer"
    )
    workload = chain_workload(
        num_queries,
        pattern_length,
        config=chain,
        window=window,
        seed=seed,
        offset_pool_size=max(2, num_queries // 4),
    )
    stream = chain_stream(
        duration=duration,
        events_per_second=events_per_second,
        config=chain,
        num_entities=20,
        advance_probability=0.85,
        seed=seed + 1,
    )
    return workload, stream


def dense_scenario(
    events_per_second: float,
    num_queries: int = 7,
    pattern_length: int = 3,
    num_types: int = 6,
    num_entities: int = 3,
    duration: int = 60,
    window: SlidingWindow | None = None,
    seed: int = 131,
) -> tuple[Workload, EventStream]:
    """A scenario whose windows hold many events of every type per group.

    This is the regime in which the number of matched sequences is polynomial
    in the window content, i.e. where the two-step baselines collapse
    (Figure 13); the online approaches are unaffected.
    """
    window = window or SlidingWindow(size=30, slide=15)
    chain = ChainConfig(num_event_types=num_types, type_prefix="Seg", entity_attribute="car")
    workload = chain_workload(
        num_queries,
        pattern_length,
        config=chain,
        window=window,
        seed=seed,
        offset_pool_size=3,
    )
    stream = chain_stream(
        duration=duration,
        events_per_second=events_per_second,
        config=chain,
        num_entities=num_entities,
        advance_probability=0.6,
        seed=seed + 1,
    )
    return workload, stream


def optimize(workload: Workload, stream: EventStream, expand: bool = False) -> SharingPlan:
    """The Sharon optimizer's plan for a workload (with a safety time budget)."""
    rates = RateCatalog.from_stream(stream, per="time-unit")
    result = SharonOptimizer(rates, expand=expand, time_budget_seconds=5.0).optimize(workload)
    return result.plan


def greedy_plan(workload: Workload, stream: EventStream) -> SharingPlan:
    """The GWMIN (greedy optimizer) plan for a workload."""
    rates = RateCatalog.from_stream(stream, per="time-unit")
    return GreedyOptimizer(rates).optimize(workload).plan


# The figures compare the paper's executors, so Sharon and A-Seq are pinned to
# the per-instance strategy: under panes the sharing plan does not act and
# both would measure the same pane session.
_EXECUTOR_FACTORIES = {
    "Sharon": lambda workload, plan, mem: SharonExecutor(
        workload, plan=plan, memory_sample_interval=mem, panes=False
    ),
    "A-Seq": lambda workload, plan, mem: ASeqExecutor(
        workload, memory_sample_interval=mem, panes=False
    ),
    "Flink-like": lambda workload, plan, mem: FlinkLikeExecutor(
        workload, memory_sample_interval=mem
    ),
    "SPASS-like": lambda workload, plan, mem: SpassLikeExecutor(
        workload, plan=plan, memory_sample_interval=mem
    ),
}

#: Names accepted by :func:`run_executor`, in the order Figure 3 lists them.
EXECUTOR_NAMES = tuple(_EXECUTOR_FACTORIES)


def run_executor(
    name: str,
    workload: Workload,
    stream: EventStream,
    plan: SharingPlan | None = None,
    memory_sample_interval: int = 8,
) -> ExecutorRun:
    """Run one named executor over a scenario and reduce it to figure metrics."""
    if name not in _EXECUTOR_FACTORIES:
        raise ValueError(f"unknown executor {name!r}; choose from {EXECUTOR_NAMES}")
    factory = _EXECUTOR_FACTORIES[name]
    executor = factory(workload, plan if plan is not None else SharingPlan(), memory_sample_interval)
    report = executor.run(stream)
    return ExecutorRun.from_report(report)
