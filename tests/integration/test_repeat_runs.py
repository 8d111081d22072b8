"""A run owns what it changes: every driver runs any number of times.

The engine is configuration; each run's session holds the workload, the
compilation and the window strategy its churn ops migrate.  So running the
same executor, runner or engine again over the same events — with an attach,
a detach and a plan op in the schedule, under either window strategy —
reproduces the first run byte for byte, sessions of one engine do not see
each other's migrations, a resume leaves nothing behind for the next fresh
run, and ``vars(engine)`` is the same before and after every run.
"""

from __future__ import annotations

from itertools import zip_longest

import pytest

from repro.core import AdaptiveSharonExecutor, SharingCandidate, SharingPlan
from repro.datasets import ChainConfig, chain_stream, chain_workload
from repro.events import Event, EventStream, SlidingWindow, merge_streams
from repro.executor import ChurnOp, SharonExecutor, StreamingEngine
from repro.executor.results import encode_result_lines
from repro.queries import Pattern, Query, Workload
from repro.replay import RESULTS_LOG_NAME, ReplayRunner, load_checkpoint, state_hash

WINDOW = SlidingWindow(size=20, slide=10)


def make_query(name: str, types: tuple) -> Query:
    return Query(Pattern(types), WINDOW, name=name)


WORKLOAD = Workload([make_query("q1", ("A", "B", "C")), make_query("q2", ("B", "C", "D"))])
PLAN = SharingPlan([SharingCandidate(Pattern(("B", "C")), ("q1", "q2"), 1.0)])
#: One op of each kind; the plan op shares (A, B) between the survivors.
OPS = (
    ChurnOp("attach", 20, query=make_query("q3", ("A", "B"))),
    ChurnOp("detach", 45, query_name="q2"),
    ChurnOp("plan", 60, plan=SharingPlan([SharingCandidate(Pattern(("A", "B")), ("q1", "q3"))])),
)
STREAM = EventStream.from_tuples(
    [("ABCD"[(t + k) % 4], t, t % 3) for t in range(100) for k in range(2)], ["g"]
)
STRATEGIES = pytest.mark.parametrize("panes", [False, True], ids=["instances", "panes"])


def lines(report) -> bytes:
    return encode_result_lines(report.results)


def directory_bytes(directory) -> dict:
    """Every file a checkpointing run wrote, by name."""
    return {path.name: path.read_bytes() for path in sorted(directory.iterdir())}


@STRATEGIES
def test_an_executor_runs_its_churn_schedule_again(panes):
    executor = SharonExecutor(WORKLOAD, plan=PLAN, panes=panes, churn=OPS)
    engine = executor.engine
    before = dict(vars(engine))
    first, second = executor.run(STREAM), executor.run(STREAM)
    assert {result.query_name for result in first.results} == {"q1", "q2", "q3"}
    assert lines(second) == lines(first)
    assert second.metrics.state_updates == first.metrics.state_updates
    assert first.plan == second.plan == OPS[-1].plan
    # The same schedule through the engine, twice: the same final state.
    hashes = []
    for _ in range(2):
        session = engine.new_session()
        engine.run(STREAM, session=session, churn=OPS)
        hashes.append(state_hash(session))
    assert hashes[0] == hashes[1]
    assert vars(engine) == before


@STRATEGIES
def test_a_runner_replays_its_churn_schedule_again_with_checkpoints(panes, tmp_path):
    runner = ReplayRunner(WORKLOAD, plan=PLAN, panes=panes, churn=OPS)
    before = dict(vars(runner.engine))
    first, second = (
        runner.run(STREAM, checkpoint_every=7, checkpoint_dir=tmp_path / str(index))
        for index in range(2)
    )
    last = load_checkpoint(first.checkpoints[-1])
    assert len(last.engine_state["churn"]["history"]) == len(OPS)
    assert second.state_hash == first.state_hash
    assert second.metrics.state_updates == first.metrics.state_updates
    assert directory_bytes(tmp_path / "1") == directory_bytes(tmp_path / "0")
    assert lines(second) == lines(first)
    assert vars(runner.engine) == before


@STRATEGIES
def test_sessions_of_one_engine_are_independent(panes):
    """One session migrates before and during its run; the other runs the engine's workload."""
    engine = StreamingEngine(WORKLOAD, plan=PLAN, panes=panes)
    before = dict(vars(engine))
    reference = StreamingEngine(WORKLOAD, plan=PLAN, panes=panes).run(STREAM)
    churned = SharonExecutor(WORKLOAD, plan=PLAN, panes=panes, churn=OPS).run(STREAM)

    detached = engine.new_session()
    detached.detach_query("q2", at=1)
    plain = engine.run(STREAM)
    assert lines(plain) == lines(reference)
    assert {result.query_name for result in plain.results} == {"q1", "q2"}
    assert {result.query_name for result in engine.run(STREAM, session=detached).results} == {"q1"}

    # Interleaved batch by batch: the migrating session's ops reach only it.
    migrating, steady = engine.new_session(), engine.new_session()
    for _ in zip_longest(migrating.drive(STREAM, OPS), steady.drive(STREAM)):
        pass
    assert lines(migrating.finish()) == lines(churned)
    assert lines(steady.finish()) == lines(reference)
    assert steady.compiled is engine.compiled and steady.workload is WORKLOAD
    assert migrating.compiled.plan == OPS[-1].plan
    assert vars(engine) == before


def shifting_setup(window: SlidingWindow):
    """A chain workload whose stream drops half its types, four times as fast, at t = 60."""
    config = ChainConfig(num_event_types=8, entity_attribute="car")
    workload = chain_workload(8, 4, config=config, window=window, seed=61, offset_pool_size=2)
    calm = chain_stream(duration=60, events_per_second=4, config=config, num_entities=5, seed=62)
    busy = chain_stream(duration=60, events_per_second=16, config=config, num_entities=5, seed=63)
    kept = sorted({event.event_type for event in busy})[::2]
    shifted = EventStream(
        [
            Event(event.event_type, event.timestamp + 60, event.attributes, event.event_id)
            for event in busy
            if event.event_type in kept
        ]
    )
    return workload, merge_streams(calm, shifted, name="shift")


@pytest.mark.parametrize(
    "window", [SlidingWindow(size=20, slide=20), WINDOW], ids=["tumbling", "overlapping"]
)
def test_an_adaptive_executor_decides_the_same_ops_again(window):
    """Each run watches the stream with a fresh monitor, not the last run's busy tail."""
    workload, stream = shifting_setup(window)
    adaptive = AdaptiveSharonExecutor(workload, check_interval=10, drift_threshold=0.2)
    first = adaptive.run(stream)
    decided, monitor = [(op.at, op.plan) for op in adaptive.ops], adaptive.monitor
    second = adaptive.run(stream)
    assert len(decided) == 2
    assert [(op.at, op.plan) for op in adaptive.ops] == decided
    assert adaptive.monitor is not monitor
    assert second.metrics.state_updates == first.metrics.state_updates
    assert lines(second) == lines(first)


def test_a_resume_in_the_other_strategy_leaves_the_runner_as_it_was(tmp_path):
    """Resume a per-instance checkpoint on a default runner (panes for this window),
    then run it fresh: the fresh run is the default strategy's full run."""
    pinned = ReplayRunner(WORKLOAD, plan=PLAN, panes=False, churn=OPS).run(
        STREAM, checkpoint_every=7, checkpoint_dir=tmp_path / "pinned"
    )
    checkpoint = next(
        path
        for path in pinned.checkpoints
        if len(load_checkpoint(path).engine_state.get("churn", {}).get("history", [])) == 2
    )
    runner = ReplayRunner(WORKLOAD, plan=PLAN, churn=OPS)
    before = dict(vars(runner.engine))
    resumed = runner.run(
        STREAM, resume_from=checkpoint, checkpoint_every=7, checkpoint_dir=tmp_path / "resumed"
    )
    assert resumed.session.mode == "instances" and resumed.state_hash == pinned.state_hash
    resumed_log = (tmp_path / "resumed" / RESULTS_LOG_NAME).read_bytes()
    assert resumed_log == (tmp_path / "pinned" / RESULTS_LOG_NAME).read_bytes()

    fresh = runner.run(STREAM, checkpoint_every=7, checkpoint_dir=tmp_path / "fresh")
    reference = ReplayRunner(WORKLOAD, plan=PLAN, churn=OPS).run(
        STREAM, checkpoint_every=7, checkpoint_dir=tmp_path / "reference"
    )
    assert fresh.session.mode == "panes" and fresh.state_hash == reference.state_hash
    assert directory_bytes(tmp_path / "fresh") == directory_bytes(tmp_path / "reference")
    assert vars(runner.engine) == before
