"""Runners regenerating the paper's evaluation figures at configurable scale.

Each ``run_figure*`` function sweeps the parameter the corresponding figure
varies, executes the relevant approaches, and returns a :class:`FigureResult`
holding the measured series plus a ready-to-print text rendering.  The
``benchmarks/`` suite uses the same scenarios through pytest-benchmark; these
runners exist so the figures can also be reproduced directly
(``examples/reproduce_figures.py`` or ``python -m repro.experiments``)
without pytest.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..core.optimizer import ExhaustiveOptimizer, GreedyOptimizer, SharonOptimizer
from ..events.windows import SlidingWindow
from ..executor.shared import SharonExecutor
from ..utils.rates import RateCatalog
from .render import format_table
from .scenarios import (
    dense_scenario,
    ec_scenario,
    greedy_plan,
    lr_scenario,
    optimize,
    run_executor,
    tx_scenario,
)

__all__ = [
    "FigureResult",
    "run_figure13",
    "run_figure14_events",
    "run_figure14_queries",
    "run_figure14_lengths",
    "run_figure15",
    "run_figure16",
    "run_all_figures",
]


@dataclass
class FigureResult:
    """Measured series of one reproduced figure."""

    figure: str
    description: str
    parameter_name: str
    parameter_values: list
    series: dict[str, dict[str, list[float]]] = field(default_factory=dict)

    def add(self, approach: str, metric: str, value: float) -> None:
        metric_series = self.series.setdefault(approach, {})
        metric_series.setdefault(metric, []).append(value)

    def metric_table(self, metric: str) -> str:
        """Render one metric of all approaches as an ASCII table."""
        headers = [self.parameter_name] + list(self.series)
        rows = []
        for index, parameter in enumerate(self.parameter_values):
            row = [parameter]
            for approach in self.series:
                values = self.series[approach].get(metric, [])
                row.append(values[index] if index < len(values) else None)
            rows.append(row)
        return format_table(headers, rows, title=f"{self.figure} — {metric} ({self.description})")

    def render(self) -> str:
        metrics = sorted({m for per_approach in self.series.values() for m in per_approach})
        return "\n\n".join(self.metric_table(metric) for metric in metrics)


def run_figure13(rates=(4.0, 8.0, 16.0), seed: int = 131) -> FigureResult:
    """Figure 13: two-step vs. online approaches vs. events per window (LR)."""
    result = FigureResult(
        figure="Figure 13",
        description="two-step vs online, Linear-Road-style dense windows",
        parameter_name="events/window",
        parameter_values=[rate * 30 for rate in rates],
    )
    for rate in rates:
        workload, stream = dense_scenario(events_per_second=rate, seed=seed)
        plan = optimize(workload, stream)
        for approach in ("Flink-like", "SPASS-like", "A-Seq", "Sharon"):
            run = run_executor(approach, workload, stream, plan)
            result.add(approach, "latency_ms", round(run.latency_ms, 2))
            result.add(approach, "throughput_ev_per_s", round(run.throughput, 1))
    return result


def run_figure14_events(rates=(10.0, 20.0, 40.0), seed: int = 141) -> FigureResult:
    """Figure 14(a,e): online approaches vs. events per window (TX)."""
    window = SlidingWindow(size=40, slide=20)
    result = FigureResult(
        figure="Figure 14(a,e)",
        description="online approaches vs events per window, taxi-style",
        parameter_name="events/window",
        parameter_values=[rate * window.size for rate in rates],
    )
    for rate in rates:
        workload, stream = tx_scenario(
            num_queries=16, pattern_length=6, events_per_second=rate, duration=100,
            window=window, seed=seed,
        )
        plan = optimize(workload, stream)
        for approach in ("Sharon", "A-Seq"):
            run = run_executor(approach, workload, stream, plan)
            result.add(approach, "latency_ms", round(run.latency_ms, 2))
            result.add(approach, "throughput_ev_per_s", round(run.throughput, 1))
    return result


def run_figure14_queries(query_counts=(8, 16, 32), seed: int = 143) -> FigureResult:
    """Figure 14(b,f,d): online approaches vs. number of queries, incl. memory (LR)."""
    result = FigureResult(
        figure="Figure 14(b,f,d)",
        description="online approaches vs number of queries, Linear-Road-style",
        parameter_name="queries",
        parameter_values=list(query_counts),
    )
    for num_queries in query_counts:
        workload, stream = lr_scenario(
            num_queries=num_queries, pattern_length=6, events_per_second=20.0,
            duration=100, seed=seed,
        )
        plan = optimize(workload, stream)
        for approach in ("Sharon", "A-Seq"):
            run = run_executor(approach, workload, stream, plan, memory_sample_interval=4)
            result.add(approach, "latency_ms", round(run.latency_ms, 2))
            result.add(approach, "throughput_ev_per_s", round(run.throughput, 1))
            result.add(approach, "peak_memory_kib", round(run.memory_bytes / 1024, 1))
    return result


def run_figure14_lengths(lengths=(4, 8, 12), seed: int = 147) -> FigureResult:
    """Figure 14(c,g,h): online approaches vs. pattern length, incl. memory (EC)."""
    result = FigureResult(
        figure="Figure 14(c,g,h)",
        description="online approaches vs pattern length, e-commerce-style",
        parameter_name="pattern length",
        parameter_values=list(lengths),
    )
    for length in lengths:
        workload, stream = ec_scenario(
            num_queries=16, pattern_length=length, events_per_second=20.0,
            duration=100, num_items=30, seed=seed,
        )
        plan = optimize(workload, stream)
        for approach in ("Sharon", "A-Seq"):
            run = run_executor(approach, workload, stream, plan, memory_sample_interval=4)
            result.add(approach, "latency_ms", round(run.latency_ms, 2))
            result.add(approach, "throughput_ev_per_s", round(run.throughput, 1))
            result.add(approach, "peak_memory_kib", round(run.memory_bytes / 1024, 1))
    return result


def run_figure15(query_counts=(4, 8, 12), seed: int = 151) -> FigureResult:
    """Figure 15: Sharon optimizer vs. greedy vs. exhaustive optimizer (EC).

    Conflict-resolution expansion (Section 7.1) is disabled here so that the
    exhaustive sweep stays feasible; its cost/benefit is measured by the
    expansion ablation benchmark instead.
    """
    result = FigureResult(
        figure="Figure 15",
        description="optimizer latency / plan score vs number of queries",
        parameter_name="queries",
        parameter_values=list(query_counts),
    )
    for num_queries in query_counts:
        workload, stream = ec_scenario(
            num_queries=num_queries, pattern_length=5, events_per_second=15.0,
            duration=60, num_items=40, seed=seed,
        )
        rates = RateCatalog.from_stream(stream, per="time-unit")
        optimizers = {
            "Greedy": GreedyOptimizer(rates),
            "Sharon": SharonOptimizer(rates, expand=False, time_budget_seconds=10.0),
            "Exhaustive": ExhaustiveOptimizer(rates, expand=False, max_candidates=22),
        }
        for name, optimizer in optimizers.items():
            try:
                outcome = optimizer.optimize(workload)
            except RuntimeError:
                result.add(name, "latency_ms", float("nan"))
                result.add(name, "plan_score", float("nan"))
                continue
            result.add(name, "latency_ms", round(outcome.total_seconds * 1000, 3))
            result.add(name, "plan_score", round(outcome.plan.score, 1))
            result.add(name, "peak_memory_kib", round(outcome.peak_bytes / 1024, 1))
    return result


def run_figure16(query_counts=(12, 24), seed: int = 161) -> FigureResult:
    """Figure 16: executor guided by a greedy vs. an optimal plan (TX)."""
    result = FigureResult(
        figure="Figure 16",
        description="executor under greedy vs optimal plan",
        parameter_name="queries",
        parameter_values=list(query_counts),
    )
    for num_queries in query_counts:
        workload, stream = tx_scenario(
            num_queries=num_queries, pattern_length=6, events_per_second=20.0,
            duration=100, seed=seed,
        )
        plans = {
            "greedy plan": greedy_plan(workload, stream),
            "optimal plan": optimize(workload, stream),
        }
        for label, plan in plans.items():
            # Plans are compared under the strategy in which a plan acts.
            report = SharonExecutor(
                workload, plan=plan, memory_sample_interval=4, panes=False
            ).run(stream)
            result.add(label, "latency_ms", round(report.metrics.avg_latency_ms, 2))
            result.add(label, "peak_memory_kib", round(report.metrics.peak_memory_bytes / 1024, 1))
            result.add(label, "plan_score", round(plan.score, 1))
    return result


def run_all_figures(quick: bool = True) -> list[FigureResult]:
    """Run every figure experiment; ``quick`` shrinks the sweeps further."""
    if quick:
        return [
            run_figure13(rates=(4.0, 8.0)),
            run_figure14_events(rates=(10.0, 20.0)),
            run_figure14_queries(query_counts=(8, 16)),
            run_figure14_lengths(lengths=(4, 8)),
            run_figure15(query_counts=(4, 8)),
            run_figure16(query_counts=(12,)),
        ]
    return [
        run_figure13(),
        run_figure14_events(),
        run_figure14_queries(),
        run_figure14_lengths(),
        run_figure15(),
        run_figure16(),
    ]
