"""Traffic monitoring: route-popularity counts over a Linear-Road-style stream.

This example reproduces the urban-transportation scenario of the paper's
introduction at a larger scale than the quickstart:

* a workload of 20 route queries over 20 expressway segments (patterns of
  length 6, heavily overlapping — the sharing-rich regime);
* a Linear Road position-report stream whose rate ramps up over time;
* a comparison of the Sharon executor guided by the optimizer's plan against
  the non-shared A-Seq baseline, including the optimizer's own statistics.

Run with::

    python examples/traffic_monitoring.py
"""

from __future__ import annotations

from repro import RateCatalog, SharonOptimizer
from repro.datasets import (
    LinearRoadConfig,
    generate_linear_road_stream,
    traffic_workload_scaled,
)
from repro.events import SlidingWindow
from repro.executor import ASeqExecutor, SharonExecutor


def main() -> None:
    config = LinearRoadConfig(
        num_segments=20,
        num_cars=60,
        duration_seconds=240,
        initial_rate=10.0,
        final_rate=40.0,
        seed=19,
    )
    workload = traffic_workload_scaled(
        num_queries=20,
        pattern_length=6,
        config=config,
        window=SlidingWindow(size=40, slide=20),
    )
    stream = generate_linear_road_stream(config)
    print(f"{len(workload)} route queries over {config.num_segments} segments, "
          f"{len(stream)} position reports")

    # --- optimize -----------------------------------------------------------
    rates = RateCatalog.from_stream(stream, per="time-unit")
    optimizer = SharonOptimizer(rates, expand=False)
    optimization = optimizer.optimize(workload)
    print(
        f"\nOptimizer: {optimization.candidates_total} candidates, "
        f"{optimization.candidates_after_reduction} after reduction, "
        f"{optimization.plans_considered} plans considered, "
        f"{optimization.total_seconds * 1000:.1f} ms"
    )
    print(f"Sharing plan score {optimization.plan.score:.1f} with {len(optimization.plan)} candidates:")
    for candidate in optimization.plan:
        print(f"  share {candidate.pattern!r} among {len(candidate.query_names)} queries")

    # --- execute -------------------------------------------------------------
    # Sharon vs A-Seq is plan vs no plan, so both pin the per-instance strategy
    # in which a sharing plan acts (the default would run panes on this window).
    sharon = SharonExecutor(
        workload, plan=optimization.plan, memory_sample_interval=4, panes=False
    )
    aseq = ASeqExecutor(workload, memory_sample_interval=4, panes=False)
    sharon_report = sharon.run(stream)
    aseq_report = aseq.run(stream)

    print("\nExecutor comparison:")
    print(f"  {sharon_report.metrics.summary()}")
    print(f"  {aseq_report.metrics.summary()}")
    if sharon_report.metrics.elapsed_seconds > 0:
        speedup = aseq_report.metrics.elapsed_seconds / sharon_report.metrics.elapsed_seconds
        print(f"  Sharon speed-up over A-Seq: {speedup:.2f}x")

    assert sharon_report.results.matches(aseq_report.results)

    # --- a glimpse at the answers ------------------------------------------------
    print("\nMost popular routes (largest trip counts in any window):")
    top = sorted(
        sharon_report.results.nonzero(), key=lambda r: r.value, reverse=True
    )[:5]
    for row in top:
        print(f"  {row.query_name} window {row.window} car-group {row.group}: {row.value} trips")


if __name__ == "__main__":
    main()
