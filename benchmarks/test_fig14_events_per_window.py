"""Figure 14(a)/(e): online approaches while varying events per window (TX).

The paper reports that Sharon's advantage over A-Seq grows linearly with the
number of events per window (5- to 7-fold between 200k and 1200k events).
The reproduction sweeps the stream rate of the taxi-style scenario, measures
latency and throughput of both online executors, and asserts the qualitative
shape: Sharon is at least as fast as A-Seq everywhere and the speed-up does
not shrink as windows grow.

The same axis carries the engine's asymptotics gate: scaling a chain stream
1x -> 16x multiplies the events per window by 16, and the events/sec of each
online executor may drop by at most ``MAX_SLOWDOWN_AT_16X``.  A quadratic
per-window engine (per-anchor state rescanned on every extension) loses about
the scale factor; the incremental engine stays within a small constant.
"""

from __future__ import annotations

import pytest

from repro.datasets import ChainConfig, chain_stream, chain_workload
from repro.events import SlidingWindow

from .harness import (
    optimize,
    record_series,
    require_shape_cpus,
    retry_shape,
    run_best_of,
    run_executor,
    tx_scenario,
)

EVENT_RATES = [10.0, 20.0, 40.0]
WINDOW = SlidingWindow(size=40, slide=20)

#: Stream-scale multipliers of the scaling gate, and its bound: events/sec at
#: the largest scale may fall at most this factor below the smallest.  The
#: linear engine does not slow down at all here (fixed per-run costs dominate
#: the 1x run); 4 leaves headroom for noise while still failing any
#: reintroduced per-anchor scan (~16x).
SCALES = (1, 16)
MAX_SLOWDOWN_AT_16X = 4.0
SCALING_CHAIN = ChainConfig(num_event_types=8)


def scenario_for(rate: float):
    return tx_scenario(
        num_queries=16,
        pattern_length=6,
        events_per_second=rate,
        duration=100,
        window=WINDOW,
        seed=141,
    )


@pytest.mark.parametrize("rate", EVENT_RATES)
@pytest.mark.parametrize("approach", ["Sharon", "A-Seq"])
def test_fig14_events_per_window(benchmark, approach, rate):
    """One point of Figure 14(a)/(e) for one online approach."""
    workload, stream = scenario_for(rate)
    plan = optimize(workload, stream)

    def run_once():
        return run_executor(approach, workload, stream, plan)

    result = benchmark.pedantic(run_once, rounds=1, iterations=1)
    record_series(
        benchmark,
        figure="14ae",
        approach=approach,
        events_per_window=rate * WINDOW.size,
        latency_ms=result.latency_ms,
        throughput_events_per_second=result.throughput,
    )


def test_fig14_speedup_grows_with_window_content(benchmark):
    """Sharon's gain over A-Seq does not shrink as events per window grow.

    Contention-hardened: each attempt re-measures every point best-of-5 and
    the whole measurement is retried via ``retry_shape`` — sub-millisecond
    latency ratios on a loaded CI machine can transiently invert even with
    best-of-N sampling, while a real regression fails every attempt.
    """

    require_shape_cpus()

    def measure_and_check():
        speedups = []
        spreads = None
        for rate in EVENT_RATES:
            workload, stream = scenario_for(rate)
            plan = optimize(workload, stream)
            sharon = run_best_of("Sharon", workload, stream, plan, repeats=5)
            aseq = run_best_of("A-Seq", workload, stream, plan, repeats=5)
            speedups.append(aseq.latency_ms / max(sharon.latency_ms, 1e-9))
            spreads = (sharon.latency_spread, aseq.latency_spread)
        # Tolerance: Sharon must not be meaningfully slower at any point
        # (0.95 absorbs residual timer noise on equal-latency points).
        assert all(s >= 0.95 for s in speedups), speedups
        # The paper reports the speed-up growing from 5x to 7x over a 6x
        # window-content increase; at reproduction scale we require that the
        # advantage at least does not collapse as windows grow.
        assert speedups[-1] >= speedups[0] * 0.7, speedups
        return [round(s, 2) for s in speedups], spreads

    measured, (sharon_spread, aseq_spread) = benchmark.pedantic(
        lambda: retry_shape(measure_and_check), rounds=1, iterations=1
    )
    record_series(
        benchmark,
        figure="14ae-shape",
        events_per_window=[r * WINDOW.size for r in EVENT_RATES],
        sharon_speedup_over_aseq=measured,
        sharon_latency_spread_ms_at_largest=sharon_spread,
        aseq_latency_spread_ms_at_largest=aseq_spread,
    )


def scaling_scenario_for(scale: int):
    """Twelve length-4 chain queries over a stream at ``scale`` x 8 events/s."""
    workload = chain_workload(
        12, 4, config=SCALING_CHAIN, window=WINDOW, seed=41, offset_pool_size=3
    )
    stream = chain_stream(
        duration=60,
        events_per_second=8.0 * scale,
        config=SCALING_CHAIN,
        num_entities=20,
        seed=42,
        name=f"scale-{scale}x",
    )
    return workload, stream


@pytest.mark.parametrize("approach", ["Sharon", "A-Seq"])
def test_throughput_scales_subquadratically(benchmark, approach):
    """Events/sec at 16x the stream rate stay within 4x of the 1x rate (best of 3)."""

    def measure():
        throughput = {}
        for scale in SCALES:
            workload, stream = scaling_scenario_for(scale)
            plan = optimize(workload, stream)
            throughput[scale] = run_best_of(approach, workload, stream, plan).throughput
        return throughput

    throughput = benchmark.pedantic(measure, rounds=1, iterations=1)
    base, scaled = throughput[SCALES[0]], throughput[SCALES[-1]]
    slowdown = base / scaled if scaled > 0 else float("inf")
    record_series(
        benchmark,
        figure="14ae-scaling",
        approach=approach,
        scales=list(SCALES),
        throughput_events_per_second=[throughput[scale] for scale in SCALES],
        slowdown_at_16x=round(slowdown, 2),
    )
    assert slowdown <= MAX_SLOWDOWN_AT_16X, (
        f"{approach} events/sec degraded {slowdown:.1f}x from 1x to 16x stream "
        f"scale ({base:,.0f} -> {scaled:,.0f} ev/s): the engine is super-linear "
        "in the events per window again"
    )
