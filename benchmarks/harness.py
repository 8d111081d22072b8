"""Shared helpers for the figure-reproduction benchmarks.

The heavy lifting — scenario construction, executor invocation, metric
reduction — lives in :mod:`repro.experiments` so that the same sweeps can be
reproduced outside pytest (``examples/reproduce_figures.py`` and
``python -m repro``).  This module re-exports those helpers for the benchmark
modules and adds the pytest-benchmark specific plumbing.

All benchmarks attach their measured series to ``benchmark.extra_info`` so
that ``pytest benchmarks/ --benchmark-only`` output doubles as the data
behind the reproduced figures recorded in ``EXPERIMENTS.md``.
"""

from __future__ import annotations

import os

import pytest

from repro.experiments import (
    EXECUTOR_NAMES,
    ExecutorRun,
    dense_scenario,
    ec_scenario,
    greedy_plan,
    lr_scenario,
    optimize,
    run_executor,
    tx_scenario,
)

__all__ = [
    "ExecutorRun",
    "EXECUTOR_NAMES",
    "PAPER_BENEFITS",
    "paper_benefit",
    "dense_scenario",
    "lr_scenario",
    "tx_scenario",
    "ec_scenario",
    "optimize",
    "greedy_plan",
    "run_executor",
    "run_best_of",
    "retry_shape",
    "record_series",
    "require_shape_cpus",
]

#: Minimum CPU count for the figure *shape* benchmarks: comparing two
#: executors' sub-millisecond latencies needs at least one core free of the
#: measuring process itself, or scheduler time-slicing dominates the ratio.
MIN_SHAPE_CPUS = 2

#: Default attempts of :func:`retry_shape` (re-measurements of a flaky shape
#: assertion before the failure is considered real).
SHAPE_RETRY_ATTEMPTS = 3


#: Vertex weights of the Sharon graph in Figure 4 (the paper's running
#: example), keyed by the shared pattern's event types.  Used by the ablation
#: benchmarks to reproduce the numbers of Examples 7-12 exactly.
PAPER_BENEFITS: dict[tuple[str, ...], float] = {
    ("OakSt", "MainSt"): 25.0,             # p1
    ("ParkAve", "OakSt"): 9.0,             # p2
    ("ParkAve", "OakSt", "MainSt"): 12.0,  # p3
    ("MainSt", "WestSt"): 15.0,            # p4
    ("OakSt", "MainSt", "WestSt"): 20.0,   # p5
    ("MainSt", "StateSt"): 8.0,            # p6
    ("ElmSt", "ParkAve"): 18.0,            # p7
}


def paper_benefit(candidate) -> float:
    """Benefit override reproducing the vertex weights of Figure 4."""
    return PAPER_BENEFITS.get(candidate.pattern.event_types, 0.0)


def record_series(benchmark, **series) -> None:
    """Attach a reproduced figure series to the pytest-benchmark record."""
    for key, value in series.items():
        benchmark.extra_info[key] = value


def run_best_of(
    name: str,
    workload,
    stream,
    plan,
    repeats: int = 3,
    **kwargs,
) -> ExecutorRun:
    """Run one executor ``repeats`` times and keep the lowest-latency run.

    The figure *shape* assertions compare sub-millisecond latencies of two
    executors; taking the best of a few runs removes scheduler noise without
    changing what is asserted (minimum runtime is the standard robust
    estimator for micro-benchmarks).

    The returned run carries *all* latency samples in ``latency_samples_ms``
    (and hence ``latency_spread``), so callers can record the min/median of
    the sample set next to the best run — the figure benchmarks attach it to
    their ``record_series`` output.
    """
    if repeats < 1:
        raise ValueError("repeats must be at least 1")
    best: ExecutorRun | None = None
    samples: list[float] = []
    for _ in range(repeats):
        run = run_executor(name, workload, stream, plan, **kwargs)
        samples.append(run.latency_ms)
        if best is None or run.latency_ms < best.latency_ms:
            best = run
    best.latency_samples_ms = tuple(samples)
    return best


def require_shape_cpus(minimum: int = MIN_SHAPE_CPUS) -> None:
    """Skip a latency-ratio *shape* assertion on CPU-starved machines.

    The figure shape benchmarks divide two sub-millisecond executor
    latencies.  On a machine with fewer than ``minimum`` CPUs every
    measurement time-slices against the harness itself, so the ratio
    reflects scheduler contention rather than engine work and even
    ``retry_shape`` cannot de-flake it.  Correctness is unaffected — the
    oracle differential and zero-divergence gates run unconditionally —
    so on such boxes the shape comparison is skipped rather than asserted
    on noise.
    """
    cpus = os.cpu_count() or 1
    if cpus < minimum:
        pytest.skip(
            f"figure shape comparison needs >= {minimum} CPUs for a stable "
            f"latency ratio; this machine has {cpus}"
        )


def retry_shape(measure_and_check, attempts: int = SHAPE_RETRY_ATTEMPTS):
    """Re-run a contention-sensitive shape assertion up to ``attempts`` times.

    The figure *shape* benchmarks compare sub-millisecond latencies of two
    executors; even with best-of-N sampling, a single unlucky scheduling
    burst on a loaded CI machine can invert a ratio.  ``measure_and_check``
    must perform the *whole* measurement and its assertions (fresh samples
    every attempt — retrying a cached measurement would be a no-op) and
    return the payload to record.  A real regression fails every attempt and
    the final ``AssertionError`` propagates unchanged; transient contention
    gets ``attempts - 1`` chances to clear.
    """
    for attempt in range(attempts):
        try:
            return measure_and_check()
        except AssertionError:
            if attempt == attempts - 1:
                raise
    raise AssertionError("unreachable")  # pragma: no cover
