"""Differential harness: every executor must match the brute-force oracle.

:func:`repro.datasets.random_scenario` draws randomized scenarios over a grid
of window/slide/group/predicate/aggregate/pattern combinations; this module
replays each of them through the optimised executors — Sharon (shared online,
in both per-instance and pane-partitioned mode), A-Seq (non-shared online),
and the two-step baselines (Flink-like, SPASS-like) — and compares every
result against the deliberately naive :class:`repro.executor.OracleExecutor`.

A second, pane-targeted grid replays scenarios drawn from the pane-stressing
window regime (``random_scenario(..., pane_stress=True)``: deep overlap,
slide∤size shapes, gcd=1 unit panes, the tumbling fallback) through the
engine with panes on *and* off, so the pane refactor is differentially pinned
exactly where it is most fragile.

The engine routes every batch as columns (interned type ids, one compiled
filter kernel, pre-interned group keys); a routing grid replays the same
scenarios' batches against the per-event reference
(``CompiledWorkload.is_relevant``/``group_key``), so a routing fault is
named at the batch where it happens rather than as a wrong aggregate.

When a divergence is found the harness *shrinks* it: events and queries are
removed greedily while the divergence persists, and the failure message
prints the minimal reproducer so it can be checked into
:class:`TestRegressionCorpus` (learning from failures: every bug becomes a
permanent regression case).

A third, disorder-targeted grid delivers each scenario's events in a
bounded-disorder *arrival* order (``repro.events.bounded_shuffle``) and runs
them through executors configured with ``max_lateness``
(``docs/disorder.md``): the watermark-driven reorder buffer must reproduce
the oracle exactly with zero late events, any ≤L permutation must reach a
session export byte-identical to the sorted run under both window
strategies, and arrivals *beyond* the bound must land in the
``events_late``/``events_dropped`` counters (or the raise/side-channel
policies) rather than corrupting results.

Grid sizes are controlled by the ``ORACLE_DIFF_SCENARIOS`` (default 240),
``PANE_DIFF_SCENARIOS`` (default 120), and ``DISORDER_DIFF_SCENARIOS``
(default 60) environment variables; CI may reduce them.  Seeds are fixed so
every run is reproducible.
"""

from __future__ import annotations

import os

import pytest

from repro.core import SharingPlan
from repro.datasets import describe_scenario, random_scenario
from repro.datasets.workloads import PANE_STRESS_WINDOWS
from repro.events import (
    DisorderError,
    Event,
    EventStream,
    SlidingWindow,
    bounded_shuffle,
    timestamp_batches,
)
from repro.executor import (
    ASeqExecutor,
    FlinkLikeExecutor,
    OracleExecutor,
    SharonExecutor,
    SpassLikeExecutor,
    StreamingEngine,
)
from repro.queries import AggregateSpec, Pattern, PredicateSet, Query, Workload
from repro.replay import ReplayRunner

from ..conftest import random_maximal_plan

#: Total randomized scenarios checked per full run (acceptance: >= 200).
NUM_SCENARIOS = int(os.environ.get("ORACLE_DIFF_SCENARIOS", "240"))

#: Pane-stressed scenarios replayed with panes on and off per full run.
NUM_PANE_SCENARIOS = int(os.environ.get("PANE_DIFF_SCENARIOS", "120"))

#: Scenarios delivered in bounded-disorder arrival orders per full run.
NUM_DISORDER_SCENARIOS = int(os.environ.get("DISORDER_DIFF_SCENARIOS", "60"))

#: Scenarios are split into parametrized blocks so failures localise.
NUM_BLOCKS = 8


def deterministic_plan(workload: Workload, seed: int) -> SharingPlan:
    """The harness's plan for a scenario (shared builder, seeded by scenario)."""
    return random_maximal_plan(workload, seed)


def executors_under_test(workload: Workload, seed: int):
    """The optimised executors, freshly constructed per evaluation."""
    plan = deterministic_plan(workload, seed)
    return (
        ("A-Seq", ASeqExecutor(workload, panes=False)),
        ("Sharon", SharonExecutor(workload, plan=plan, panes=False)),
        ("Sharon-panes", SharonExecutor(workload, plan=plan, panes=True)),
        ("Flink-like", FlinkLikeExecutor(workload)),
        ("SPASS-like", SpassLikeExecutor(workload)),
    )


def pane_executors_under_test(workload: Workload, seed: int):
    """Both pane modes of the engine (the pane-stress grid's executor set)."""
    plan = deterministic_plan(workload, seed)
    return (
        ("Sharon-panes-on", SharonExecutor(workload, plan=plan, panes=True)),
        ("Sharon-panes-off", SharonExecutor(workload, plan=plan, panes=False)),
        ("A-Seq-panes-on", ASeqExecutor(workload, panes=True)),
    )


def find_divergence(
    workload: Workload, stream: EventStream, seed: int, executors=executors_under_test
):
    """First (executor name, differences) mismatching the oracle, or ``None``."""
    oracle = OracleExecutor(workload).run(stream).results
    for name, executor in executors(workload, seed):
        results = executor.run(stream).results
        if not results.matches(oracle):
            return name, results.differences(oracle)[:5]
    return None


def shrink_divergence(
    workload: Workload, stream: EventStream, seed: int, executors=executors_under_test
):
    """Greedy delta-debugging: drop queries/events while the divergence persists."""
    queries = list(workload)
    events = list(stream)
    shrinking = True
    while shrinking:
        shrinking = False
        for index in range(len(queries)):
            if len(queries) <= 1:
                break
            candidate = Workload(queries[:index] + queries[index + 1 :], name=workload.name)
            if find_divergence(candidate, EventStream(events), seed, executors):
                queries = list(candidate)
                shrinking = True
                break
        if shrinking:
            continue
        for index in range(len(events)):
            candidate = EventStream(events[:index] + events[index + 1 :], name=stream.name)
            if find_divergence(Workload(queries, name=workload.name), candidate, seed, executors):
                events = list(candidate)
                shrinking = True
                break
    return Workload(queries, name=workload.name), EventStream(events, name=stream.name)


def check_scenario(seed: int, pane_stress: bool = False, executors=executors_under_test) -> None:
    workload, stream = random_scenario(seed, pane_stress=pane_stress)
    divergence = find_divergence(workload, stream, seed, executors)
    if divergence is None:
        return
    minimal_workload, minimal_stream = shrink_divergence(workload, stream, seed, executors)
    name, differences = (
        find_divergence(minimal_workload, minimal_stream, seed, executors) or divergence
    )
    pytest.fail(
        f"scenario seed={seed} (pane_stress={pane_stress}): "
        f"executor {name} diverges from the oracle.\n"
        f"first differences (key, executor value, oracle value): {differences}\n"
        f"minimal reproducer:\n{describe_scenario(minimal_workload, minimal_stream)}\n"
        f"plan seed: {seed} (rebuild with deterministic_plan)"
    )


@pytest.mark.parametrize("block", range(NUM_BLOCKS))
def test_executors_match_oracle_on_randomized_grid(block):
    """Sharon (both pane modes), A-Seq, and the two-step baselines equal the oracle."""
    per_block = (NUM_SCENARIOS + NUM_BLOCKS - 1) // NUM_BLOCKS
    for offset in range(per_block):
        seed = block * per_block + offset
        if seed >= NUM_SCENARIOS:
            break
        check_scenario(seed)


@pytest.mark.parametrize("block", range(NUM_BLOCKS))
def test_pane_modes_match_oracle_on_pane_stress_grid(block):
    """Panes on and panes off agree with the oracle on pane-hostile windows."""
    per_block = (NUM_PANE_SCENARIOS + NUM_BLOCKS - 1) // NUM_BLOCKS
    for offset in range(per_block):
        seed = block * per_block + offset
        if seed >= NUM_PANE_SCENARIOS:
            break
        check_scenario(seed, pane_stress=True, executors=pane_executors_under_test)


def per_event_routes(engine: StreamingEngine, stream: EventStream):
    """``(timestamp, batch size, groups)`` per batch, routed one event at a time."""
    compiled = engine.compiled
    routes = []
    for timestamp, batch in timestamp_batches(stream):
        groups: dict = {}
        for event in batch:
            if compiled.is_relevant(event):
                groups.setdefault(compiled.group_key(event), []).append(event)
        routes.append((timestamp, len(batch), groups or None))
    return routes


@pytest.mark.parametrize("block", range(NUM_BLOCKS))
def test_routing_matches_the_per_event_reference_on_randomized_grid(block):
    """Column routing of cached and iterable sources equals per-event routing."""
    per_block = (NUM_SCENARIOS + NUM_BLOCKS - 1) // NUM_BLOCKS
    for seed in range(block * per_block, min((block + 1) * per_block, NUM_SCENARIOS)):
        workload, stream = random_scenario(seed)
        engine = StreamingEngine(workload, panes=False)
        expected = per_event_routes(engine, stream)
        for source in (stream, iter(list(stream))):
            collector = engine.new_session().collector
            routes = [
                (timestamp, len(batch), groups)
                for timestamp, batch, groups in engine.routed_batches(source, collector)
            ]
            scenario = describe_scenario(workload, stream)
            assert routes == expected, f"scenario seed={seed}\n{scenario}"


def disorder_executors_under_test(workload: Workload, seed: int, max_lateness: int):
    """Executors with the reorder buffer on, fed *arrival*-ordered events.

    The set spans the sessions the buffer feeds into: per-instance and
    pane-partitioned mode, and the non-shared A-Seq engine.
    """
    plan = deterministic_plan(workload, seed)
    return (
        (
            "Sharon-disorder",
            SharonExecutor(workload, plan=plan, panes=False, max_lateness=max_lateness),
        ),
        (
            "Sharon-disorder-panes",
            SharonExecutor(workload, plan=plan, panes=True, max_lateness=max_lateness),
        ),
        ("A-Seq-disorder", ASeqExecutor(workload, panes=False, max_lateness=max_lateness)),
    )


def check_disorder_scenario(seed: int) -> None:
    """Bounded-shuffled arrivals must equal the oracle with zero late events."""
    workload, stream = random_scenario(seed)
    events = list(stream)
    max_lateness = 1 + seed % 7
    shuffled = bounded_shuffle(events, max_lateness, seed=seed * 31 + 7)
    oracle = OracleExecutor(workload).run(stream).results
    for name, executor in disorder_executors_under_test(workload, seed, max_lateness):
        report = executor.run(iter(shuffled))
        assert report.metrics.events_late == 0, (
            f"scenario seed={seed}: {name} counted late events inside the "
            f"≤{max_lateness} bound — the watermark admits too little"
        )
        if not report.results.matches(oracle):
            pytest.fail(
                f"scenario seed={seed}: {name} over a ≤{max_lateness}-late "
                f"arrival order diverges from the oracle.\n"
                f"first differences (key, executor value, oracle value): "
                f"{report.results.differences(oracle)[:5]}\n"
                f"scenario:\n{describe_scenario(workload, stream)}"
            )


@pytest.mark.parametrize("block", range(NUM_BLOCKS))
def test_disordered_arrivals_match_oracle_on_randomized_grid(block):
    """Reorder-buffered ingestion of ≤L-late arrivals equals the oracle."""
    per_block = (NUM_DISORDER_SCENARIOS + NUM_BLOCKS - 1) // NUM_BLOCKS
    for offset in range(per_block):
        seed = block * per_block + offset
        if seed >= NUM_DISORDER_SCENARIOS:
            break
        check_disorder_scenario(seed)


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
    workload, stream = random_scenario(seed, pane_stress=panes)
    plan = deterministic_plan(workload, seed)
    events = list(stream)

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
        workload, stream = random_scenario(seed)
        events = list(stream)
        shuffled = bounded_shuffle(events, 15, seed=seed)
        plan = deterministic_plan(workload, seed)

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


def test_pane_stress_grid_exercises_pane_mode():
    """The pane grid is toothless if every scenario falls back: most must not."""
    from repro.executor.engine import StreamingEngine

    pane_runs = 0
    total = min(NUM_PANE_SCENARIOS, 40) or 40
    for seed in range(total):
        workload, _stream = random_scenario(seed, pane_stress=True)
        if StreamingEngine(workload, panes=True).uses_panes:
            pane_runs += 1
    assert pane_runs >= total // 2


#: Every window geometry the oracle, pane, churn and replay grids can draw.
GRID_GEOMETRIES = sorted(
    {(size, slide) for size in (4, 6, 8, 10, 12) for slide in (2, 3, 4, 6, size) if slide <= size}
    | set(PANE_STRESS_WINDOWS)
)


@pytest.mark.parametrize("size,slide", GRID_GEOMETRIES)
def test_default_strategy_is_one_of_the_two_pinned_variants(size, slide):
    """``panes=None`` adds no third grid axis: it *is* one of the variants the grids name."""
    from repro.executor.engine import StreamingEngine

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

    plan = deterministic_plan(workload, seed=0)
    assert any(candidate.pattern == Pattern(("A", "B")) for candidate in plan)
    report = SharonExecutor(workload, plan=plan, panes=False).run(stream)
    oracle = OracleExecutor(workload).run(stream).results
    assert report.results.matches(oracle), report.results.differences(oracle)[:5]
    metrics = report.metrics
    # Every scope saw an A at each of its timestamps: many START batches per scope...
    assert metrics.cohorts_created > 2 * metrics.windows_finalized
    # ...and one materialised cohort per scope (one shared state each).
    assert metrics.cohorts_created - metrics.cohorts_merged == metrics.windows_finalized


class TestRegressionCorpus:
    """Minimal scenarios distilled from harness development.

    Each case is the shrunk form of a scenario family the randomized grid
    exercises; they run on every test invocation even when the grid is
    reduced (e.g. in CI), so past divergence shapes stay pinned.
    """

    def _assert_matches_oracle(self, workload: Workload, stream: EventStream, seed: int = 0):
        divergence = find_divergence(workload, stream, seed)
        assert divergence is None, divergence

    def test_same_timestamp_batch_with_shared_prefix(self):
        window = SlidingWindow(size=8, slide=4)
        workload = Workload(
            [
                Query(Pattern(("A", "B", "C")), window, name="r1"),
                Query(Pattern(("A", "B", "D")), window, name="r2"),
            ]
        )
        stream = EventStream.from_tuples(
            [("A", 1), ("A", 1), ("B", 1), ("B", 2), ("C", 3), ("D", 3), ("C", 7)]
        )
        self._assert_matches_oracle(workload, stream)

    def test_sliding_window_boundary_match(self):
        """A match whose START lies in one window and END in the next."""
        window = SlidingWindow(size=4, slide=2)
        workload = Workload(
            [
                Query(Pattern(("A", "B")), window, name="r3"),
                Query(Pattern(("B", "A")), window, name="r4"),
            ]
        )
        stream = EventStream.from_tuples([("A", 1), ("B", 3), ("A", 4), ("B", 5)])
        self._assert_matches_oracle(workload, stream)

    def test_mixed_aggregates_share_one_pattern(self):
        window = SlidingWindow(size=10, slide=10)
        queries = [
            Query(
                Pattern(("A", "B", "C")),
                window,
                aggregate=AggregateSpec.sum("B", "value"),
                name="r5",
            ),
            Query(
                Pattern(("A", "B", "D")),
                window,
                aggregate=AggregateSpec.count_star(),
                name="r6",
            ),
            Query(
                Pattern(("A", "B")),
                window,
                aggregate=AggregateSpec.avg("A", "value"),
                name="r7",
            ),
        ]
        workload = Workload(queries)
        stream = EventStream.from_tuples(
            [
                ("A", 0, 4), ("B", 1, 7), ("C", 2, 1), ("D", 2, 2),
                ("A", 3, 9), ("B", 4, 0), ("C", 5, 5), ("B", 9, 3),
            ],
            ["value"],
        )
        self._assert_matches_oracle(workload, stream)

    def test_equivalence_predicate_with_grouping(self):
        window = SlidingWindow(size=6, slide=3)
        predicates = PredicateSet.same("entity")
        queries = [
            Query(
                Pattern(("A", "B")),
                window,
                predicates=predicates,
                group_by=("region",),
                name="r8",
            ),
            Query(
                Pattern(("B", "C")),
                window,
                predicates=predicates,
                group_by=("region",),
                name="r9",
            ),
        ]
        workload = Workload(queries)
        rows = [
            ("A", 0, {"entity": 0, "region": 1}),
            ("B", 1, {"entity": 0, "region": 1}),
            ("B", 1, {"entity": 1, "region": 0}),
            ("C", 2, {"entity": 1, "region": 0}),
            ("A", 4, {"entity": 1, "region": 1}),
            ("B", 5, {"entity": 1, "region": 1}),
            ("C", 5, {"entity": 0, "region": 0}),
        ]
        events = [Event(t, ts, attrs, i) for i, (t, ts, attrs) in enumerate(rows)]
        self._assert_matches_oracle(workload, EventStream(events))

    def test_repeated_type_pattern(self):
        window = SlidingWindow(size=10, slide=5)
        workload = Workload(
            [
                Query(Pattern(("A", "A")), window, name="r10"),
                Query(Pattern(("A", "A", "B")), window, name="r11"),
            ]
        )
        stream = EventStream.from_tuples(
            [("A", 0), ("A", 1), ("A", 1), ("B", 2), ("A", 3), ("B", 4)]
        )
        self._assert_matches_oracle(workload, stream)

    def _assert_pane_modes_match_oracle(self, workload, stream, seed: int = 0):
        divergence = find_divergence(workload, stream, seed, pane_executors_under_test)
        assert divergence is None, divergence

    def test_pane_boundary_batch(self):
        """Same-timestamp batches sitting exactly on pane boundaries.

        Window (10, 4) has pane width 2; matches must chain across the
        boundary but never within a boundary batch, in both pane modes.
        """
        window = SlidingWindow(size=10, slide=4)
        workload = Workload(
            [
                Query(Pattern(("A", "B", "C")), window, name="p1"),
                Query(Pattern(("A", "B")), window, name="p2"),
            ]
        )
        stream = EventStream.from_tuples(
            [("A", 2), ("B", 2), ("A", 3), ("B", 4), ("C", 4), ("C", 6), ("A", 8), ("B", 9), ("C", 10)]
        )
        self._assert_pane_modes_match_oracle(workload, stream)

    def test_pane_gcd_one_with_repeated_types(self):
        """Unit-width panes (gcd = 1): every pane holds one timestamp batch."""
        window = SlidingWindow(size=7, slide=3)
        workload = Workload(
            [
                Query(Pattern(("A", "A", "B")), window, name="p3"),
                Query(Pattern(("B", "A")), window, name="p4"),
            ]
        )
        stream = EventStream.from_tuples(
            [("A", 0), ("A", 1), ("A", 1), ("B", 3), ("A", 5), ("B", 6), ("A", 7), ("B", 9)]
        )
        self._assert_pane_modes_match_oracle(workload, stream)

    def test_pane_mixed_aggregates_and_grouping(self):
        """Attribute aggregates + grouping across panes narrower than the slide."""
        window = SlidingWindow(size=9, slide=6)  # pane width 3
        predicates = PredicateSet.same("entity")
        queries = [
            Query(
                Pattern(("A", "B")),
                window,
                aggregate=AggregateSpec.sum("B", "value"),
                predicates=predicates,
                name="p5",
            ),
            Query(
                Pattern(("A", "B")),
                window,
                aggregate=AggregateSpec.avg("A", "value"),
                predicates=predicates,
                name="p6",
            ),
            Query(
                Pattern(("B", "A", "B")),
                window,
                aggregate=AggregateSpec.min("B", "value"),
                predicates=predicates,
                name="p7",
            ),
        ]
        workload = Workload(queries)
        rows = [
            ("A", 0, {"entity": 0, "value": 4}),
            ("B", 2, {"entity": 0, "value": 7}),
            ("B", 2, {"entity": 1, "value": 1}),
            ("A", 3, {"entity": 1, "value": 9}),
            ("B", 5, {"entity": 1, "value": 2}),
            ("A", 6, {"entity": 0, "value": 5}),
            ("B", 8, {"entity": 0, "value": 3}),
            ("B", 11, {"entity": 1, "value": 6}),
        ]
        events = [Event(t, ts, attrs, i) for i, (t, ts, attrs) in enumerate(rows)]
        self._assert_pane_modes_match_oracle(workload, EventStream(events))
