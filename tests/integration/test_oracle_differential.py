"""Fixed-seed differential checks beside the random-run grid.

The grid (``test_random_runs.py``) checks each draw against the oracle.
Four properties need more than one run of a draw, or a hand-built stream:

* any ≤L permutation of a stream reaches a final session export
  byte-identical to the sorted run's, under both window strategies;
* arrivals *beyond* the bound land in the ``events_late`` /
  ``events_dropped`` counters, the side channel, or a ``DisorderError``,
  never in the results (``docs/disorder.md``);
* the engine's own strategy choice (``panes=None``) is always one of the
  two pinned variants, so it adds no grid axis;
* START-batch coalescing fires on a stream built to need it.
"""

from __future__ import annotations

import pytest

from repro.datasets import random_run
from repro.datasets.workloads import RUN_WINDOWS, random_maximal_plan
from repro.events import DisorderError, Event, EventStream, SlidingWindow, bounded_shuffle
from repro.executor import OracleExecutor, SharonExecutor, StreamingEngine
from repro.queries import Pattern, Query, Workload
from repro.replay import ReplayRunner


@pytest.mark.parametrize("seed", [2, 9, 17])
@pytest.mark.parametrize("panes", [True, False], ids=["panes", "instances"])
def test_bounded_permutations_are_byte_identical_to_sorted(panes, seed):
    """Any ≤L permutation reaches a byte-identical final session export.

    Stronger than result equality: the state hash covers results, metrics
    counters, and all residual engine state, so the reorder buffer must leave
    *no* trace of the arrival order behind — under both window strategies,
    because each snapshots state through different layers.
    """
    max_lateness = 5
    run = random_run(seed)
    workload, events = run.workload, list(run.stream)
    plan = random_maximal_plan(workload, seed)

    def final_hash(order):
        runner = ReplayRunner(workload, plan=plan, panes=panes, max_lateness=max_lateness)
        return runner.run(iter(order)).state_hash

    sorted_hash = final_hash(events)
    for shuffle_seed in range(3):
        shuffled = bounded_shuffle(events, max_lateness, seed=shuffle_seed)
        assert final_hash(shuffled) == sorted_hash, (
            f"seed {seed}, shuffle {shuffle_seed}: a ≤{max_lateness}-late "
            f"arrival order left a different final state (panes={panes})"
        )


def test_beyond_bound_arrivals_land_in_the_lateness_counters():
    """Arrivals behind the watermark hit the policy, never the results.

    A wide shuffle is ingested under a much tighter bound: ``drop`` must
    count every late event in ``events_late``/``events_dropped`` (and keep
    total + dropped accounting exact), a side-channel callback must receive
    exactly the late events without dropping them, and ``raise`` must refuse
    the same arrival order outright.
    """
    late_total = 0
    for seed in range(8):
        run = random_run(seed)
        workload, events = run.workload, list(run.stream)
        shuffled = bounded_shuffle(events, 15, seed=seed)
        plan = random_maximal_plan(workload, seed)

        dropped_report = SharonExecutor(
            workload, plan=plan, max_lateness=1, late_policy="drop"
        ).run(iter(shuffled))
        metrics = dropped_report.metrics
        assert metrics.events_late == metrics.events_dropped
        assert metrics.total_events + metrics.events_dropped == len(events)

        side_channel = []
        callback_report = SharonExecutor(
            workload, plan=plan, max_lateness=1, late_policy=side_channel.append
        ).run(iter(shuffled))
        assert callback_report.metrics.events_late == len(side_channel)
        assert callback_report.metrics.events_dropped == 0
        assert callback_report.metrics.total_events + len(side_channel) == len(events)
        assert callback_report.metrics.events_late == metrics.events_late

        if metrics.events_late:
            late_total += metrics.events_late
            with pytest.raises(DisorderError, match="behind watermark"):
                SharonExecutor(workload, plan=plan, max_lateness=1).run(iter(shuffled))

    assert late_total > 0, (
        "no scenario produced a single beyond-bound arrival — the policy "
        "paths were never exercised"
    )


@pytest.mark.parametrize("size,slide", RUN_WINDOWS)
def test_default_strategy_is_one_of_the_two_pinned_variants(size, slide):
    """``panes=None`` adds no third grid axis: it *is* one of the variants the grid pins."""
    workload = Workload([Query(Pattern(("A", "B")), SlidingWindow(size, slide), name="g")])
    default = StreamingEngine(workload)
    pinned = StreamingEngine(workload, panes=default.uses_panes)
    assert type(default.new_session()) is type(pinned.new_session())
    assert ReplayRunner(workload).engine_config == ReplayRunner(
        workload, panes=default.uses_panes
    ).engine_config
    # The rule can only pick panes where the forced variant would run them too.
    assert not default.uses_panes or StreamingEngine(workload, panes=True).uses_panes


def test_coalescing_fires_during_differential_runs():
    """The grid would be toothless if no START batch were ever coalesced.

    Both queries *start* with the shared two-type pattern, so no runner
    holds a carry and every scope must end with exactly one cohort however
    many START timestamps it saw — and still agree with the oracle.
    """
    window = SlidingWindow(size=30, slide=15)
    queries = [
        Query(Pattern(("A", "B", extra)), window, name=f"cq{index}")
        for index, extra in enumerate(("C", "D"))
    ]
    workload = Workload(queries, name="compaction-differential")
    events = []
    event_id = 0
    for timestamp in range(40):
        for event_type in ("A", "B", "C", "D"):
            events.append(Event(event_type, timestamp, {}, event_id))
            event_id += 1
    stream = EventStream(events, name="compaction-differential")

    plan = random_maximal_plan(workload, seed=0)
    assert any(candidate.pattern == Pattern(("A", "B")) for candidate in plan)
    report = SharonExecutor(workload, plan=plan, panes=False).run(stream)
    oracle = OracleExecutor(workload).run(stream).results
    assert report.results.matches(oracle), report.results.differences(oracle)[:5]
    metrics = report.metrics
    # Every scope saw an A at each of its timestamps: many START batches per scope...
    assert metrics.cohorts_created > 2 * metrics.windows_finalized
    # ...and one materialised cohort per scope (one shared state each).
    assert metrics.cohorts_created - metrics.cohorts_merged == metrics.windows_finalized
