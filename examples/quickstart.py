"""Quickstart: optimize and execute a small event-sequence-aggregation workload.

Run with::

    python examples/quickstart.py

The script builds the paper's traffic-monitoring workload (queries q1-q7 of
Figure 1), generates a synthetic taxi position-report stream, lets the Sharon
optimizer choose a sharing plan, executes the workload with both the shared
(Sharon) and the non-shared (A-Seq) online executors, and prints a few
results together with runtime metrics.
"""

from __future__ import annotations

from repro import RateCatalog, SharonOptimizer
from repro.datasets import TaxiConfig, generate_taxi_stream, traffic_workload
from repro.events import SlidingWindow
from repro.executor import ASeqExecutor, SharonExecutor


def main() -> None:
    # 1. The workload: count trips per route in a sliding window.
    #    (Window scaled down so the example runs in a couple of seconds.)
    workload = traffic_workload(window=SlidingWindow(size=60, slide=20))
    print(f"Workload {workload.name!r} with {len(workload)} queries:")
    for query in workload:
        print(f"  {query.name}: SEQ{query.pattern!r}")

    # 2. A synthetic stream of vehicle position reports.
    stream = generate_taxi_stream(
        TaxiConfig(duration_seconds=180, reports_per_second=12, num_vehicles=10, seed=7)
    )
    print(f"\nStream: {len(stream)} position reports over {stream.duration} seconds")

    # 3. Optimize: estimate rates from the stream, build the Sharon graph,
    #    prune, and search for the optimal sharing plan.
    rates = RateCatalog.from_stream(stream, per="time-unit")
    result = SharonOptimizer(rates).optimize(workload)
    print(f"\nSharing plan (score {result.plan.score:.2f}):")
    for candidate in result.plan:
        print(f"  share {candidate.pattern!r} among {set(candidate.query_names)}")
    if result.plan.is_empty:
        print("  (no sharing is beneficial for this stream - Sharon falls back to A-Seq)")

    # 4. Execute with and without sharing and compare.  panes=False pins the
    #    paper's per-instance executor, the strategy in which a sharing plan
    #    acts (the default would run panes on this window, where both
    #    executors do the same work; docs/engine.md, "Choosing the window strategy").
    shared_report = SharonExecutor(workload, plan=result.plan, panes=False).run(stream)
    non_shared_report = ASeqExecutor(workload, panes=False).run(stream)

    print("\nSample results (Sharon executor):")
    for result_row in list(shared_report.results.nonzero())[:8]:
        print(f"  {result_row}")

    print("\nMetrics:")
    print(f"  {shared_report.metrics.summary()}")
    print(f"  {non_shared_report.metrics.summary()}")
    assert shared_report.results.matches(non_shared_report.results), (
        "shared and non-shared executors must agree"
    )
    print("\nShared and non-shared executors produced identical results.")


if __name__ == "__main__":
    main()
