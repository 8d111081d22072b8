"""Dynamic workloads: rate drift, re-optimization, and plan migration (Section 7.4).

A sharing plan is chosen for the rates observed when the optimizer runs; if
the stream's composition changes (rush hour begins, a flash sale starts), the
plan can become sub-optimal.  The adaptive executor monitors per-type rates
at runtime, re-runs the Sharon optimizer when they drift beyond a threshold,
and migrates to the new plan without losing any window's results.

The executor is a policy on the engine's batch loop: each plan switch it
decides is a ``plan`` churn op, applied like an attach or a detach.  The
example builds a stream whose rate quadruples halfway through, runs the
adaptive executor over tumbling windows (the per-instance strategy, where a
plan acts), and prints the start plan and the plan ops it decided — then
verifies that the adaptively computed results are identical to a static
A-Seq run, and that replaying the start plan and ops reproduces the run.

Run with::

    python examples/dynamic_workload.py
"""

from __future__ import annotations

from repro.core import AdaptiveSharonExecutor
from repro.datasets import ChainConfig, chain_stream, chain_workload
from repro.events import Event, EventStream, SlidingWindow, merge_streams
from repro.executor import ASeqExecutor
from repro.replay import ReplayRunner


def build_drifting_stream(config: ChainConfig) -> EventStream:
    """A stream whose rate quadruples halfway through the run."""
    calm = chain_stream(
        duration=120, events_per_second=8, config=config, num_entities=10, seed=51
    )
    busy_raw = chain_stream(
        duration=120, events_per_second=32, config=config, num_entities=10, seed=52
    )
    # Shift the busy phase so it starts right after the calm phase ends.
    busy = EventStream(
        [
            Event(event.event_type, event.timestamp + 120, event.attributes, event.event_id)
            for event in busy_raw
        ],
        name="busy",
    )
    return merge_streams(calm, busy, name="drifting")


def main() -> None:
    config = ChainConfig(num_event_types=12, entity_attribute="car")
    workload = chain_workload(
        12, 5, config=config, window=SlidingWindow(size=30, slide=30), seed=53,
        offset_pool_size=3,
    )
    stream = build_drifting_stream(config)
    print(f"{len(workload)} queries over a drifting stream of {len(stream)} events "
          f"({stream.duration} time units)")

    executor = AdaptiveSharonExecutor(
        workload,
        check_interval=30,
        drift_threshold=0.4,
    )
    report = executor.run(stream)

    print(f"\n{report.metrics.summary()}")
    plan = executor.plan
    print(f"\nStart plan: {len(plan)} shared patterns, score {plan.score:.1f}")
    print(f"Plan ops decided: {len(executor.ops)}")
    for op in executor.ops:
        print(f"  plan@{op.at}: {len(op.plan)} shared patterns, score {op.plan.score:.1f}")

    baseline = ASeqExecutor(workload).run(stream)
    assert report.results.matches(baseline.results), report.results.differences(
        baseline.results
    )[:5]
    print("\nAdaptive execution produced exactly the same results as the static baseline.")
    replay = ReplayRunner(workload, plan=executor.plan, churn=executor.ops).run(stream)
    assert replay.report.metrics.state_updates == report.metrics.state_updates
    print(
        f"Replaying the start plan and {len(executor.ops)} plan ops repeats the run: "
        f"{replay.report.metrics.state_updates} state updates, state hash {replay.state_hash[:12]}."
    )


if __name__ == "__main__":
    main()
