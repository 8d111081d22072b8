"""Churn differential harness: live attach/detach must match a fresh-run oracle.

:func:`repro.datasets.random_churn_scenario` splits a randomized scenario
(:func:`repro.datasets.random_scenario`) into an initial workload plus a
timestamped :class:`~repro.executor.churn.ChurnSchedule` of mid-run attach
and detach ops.  This module replays each schedule through the engine's
churn surface (``SharonExecutor(..., churn=...)``, per-instance and
pane-partitioned, plus non-shared A-Seq) and pins every query against the
churn oracle (``docs/churn.md``):

* a query attached at ``t`` must emit exactly what a fresh run of that
  query alone over the full stream emits for windows with ``start >= t``;
* a query detached at ``t`` must emit exactly what a fresh run over the
  stream truncated to events before ``t`` emits (open windows yield their
  partial values at detach time);
* queries never touched by the schedule must match the plain oracle.

When a divergence is found the harness *shrinks* it: churn ops, initial
queries, and events are removed greedily while the divergence persists
(each candidate schedule is re-validated so shrinking never produces an
inapplicable program), and the failure message prints the minimal
reproducer for :class:`TestChurnRegressionCorpus`.

A second section pins churn × crash recovery: replaying a churned schedule
through :class:`~repro.replay.ReplayRunner` with periodic checkpoints, a
resume from *every* checkpoint — including ones taken between an attach and
its first gated window — must reach a final session export byte-identical
to the uninterrupted run, and checkpoints must refuse to resume under a
different churn script (mismatching schedule descriptor or tampered
applied-op history).

The grid size is controlled by the ``CHURN_DIFF_SCENARIOS`` environment
variable (default 60; CI reduces it).  Seeds are fixed so every run is
reproducible.
"""

from __future__ import annotations

import json
import os

import pytest

from repro.datasets import describe_scenario, random_churn_scenario
from repro.events import Event, EventStream, SlidingWindow
from repro.executor import (
    ASeqExecutor,
    ChurnOp,
    ChurnSchedule,
    OracleExecutor,
    ResultSet,
    SharonExecutor,
)
from repro.queries import Pattern, Query, Workload
from repro.replay import CheckpointError, ReplayRunner, load_checkpoint, save_checkpoint

from ..conftest import random_maximal_plan

#: Randomized churn schedules checked per full run (CI may reduce this).
NUM_CHURN_SCENARIOS = int(os.environ.get("CHURN_DIFF_SCENARIOS", "60"))

#: Scenarios are split into parametrized blocks so failures localise.
NUM_BLOCKS = 8


def deterministic_plan(workload: Workload, seed: int):
    """The harness's plan for a scenario's *initial* workload."""
    return random_maximal_plan(workload, seed)


def churn_executors_under_test(workload: Workload, seed: int, schedule: ChurnSchedule):
    """The churn-capable executors, freshly constructed per evaluation.

    Spans what the churn surface sits under: per-instance scopes (recompiled
    layouts must re-route mid-stream; zombie scopes keep their cohorts),
    pane mode (pane-matrix migration plus detach partials folded from the
    open pane), and the non-shared A-Seq decomposition.
    """
    plan = deterministic_plan(workload, seed)
    return [
        ("Sharon-churn", SharonExecutor(workload, plan=plan, panes=False, churn=schedule)),
        (
            "Sharon-churn-panes",
            SharonExecutor(workload, plan=plan, panes=True, churn=schedule),
        ),
        ("A-Seq-churn", ASeqExecutor(workload, panes=False, churn=schedule)),
    ]


def query_lifetimes(workload: Workload, schedule: ChurnSchedule):
    """Per-query ``(query, attach_at, detach_at)`` over the whole run.

    ``attach_at`` is ``None`` for initial queries (no emission gate);
    ``detach_at`` is ``None`` for queries that run to end-of-stream.  The
    generator never re-attaches a name, so this flat model is complete.
    """
    lifetimes: dict[str, list] = {
        query.name: [query, None, None] for query in workload
    }
    for op in schedule:
        if op.kind == "attach":
            lifetimes[op.query_name] = [op.query, op.at, None]
        else:
            lifetimes[op.query_name][2] = op.at
    return {name: tuple(entry) for name, entry in lifetimes.items()}


def churn_oracle(workload: Workload, stream: EventStream, schedule: ChurnSchedule):
    """Fresh-run expectation per query: truncate at detach, gate at attach."""
    events = list(stream)
    expected: dict[str, ResultSet] = {}
    for name, (query, attach_at, detach_at) in query_lifetimes(workload, schedule).items():
        visible = (
            events
            if detach_at is None
            else [event for event in events if event.timestamp < detach_at]
        )
        results = OracleExecutor(Workload((query,))).run(EventStream(visible)).results
        if attach_at is not None:
            results = ResultSet(r for r in results if r.window.start >= attach_at)
        expected[name] = results
    return expected


def find_churn_divergence(
    workload: Workload,
    stream: EventStream,
    schedule: ChurnSchedule,
    seed: int,
    executors=churn_executors_under_test,
):
    """First (executor, query, differences) mismatching the churn oracle, or ``None``."""
    expected = churn_oracle(workload, stream, schedule)
    for executor_name, executor in executors(workload, seed, schedule):
        results = executor.run(stream).results
        for query_name, oracle in expected.items():
            mine = ResultSet(r for r in results if r.query_name == query_name)
            if not mine.matches(oracle):
                return executor_name, query_name, mine.differences(oracle)[:5]
        extra = {r.query_name for r in results} - set(expected)
        if extra:
            return executor_name, sorted(extra)[0], [("unexpected query emitted", None, None)]
    return None


def _schedule_applies(initial: list[Query], ops: list[ChurnOp]) -> bool:
    """Whether a candidate (initial workload, op list) is a valid program."""
    if not initial:
        return False
    active = {query.name for query in initial}
    for op in ChurnSchedule(ops):
        if op.kind == "attach":
            if op.query_name in active:
                return False
            active.add(op.query_name)
        else:
            if op.query_name not in active or len(active) == 1:
                return False
            active.remove(op.query_name)
    return True


def shrink_churn_divergence(
    workload: Workload,
    stream: EventStream,
    schedule: ChurnSchedule,
    seed: int,
    executors=churn_executors_under_test,
):
    """Greedy delta-debugging: drop ops, queries, and events while it diverges.

    Dropping an attach op removes its query from the run entirely; dropping
    an initial query may orphan a detach op — every candidate is re-checked
    with :func:`_schedule_applies` so the shrunk program stays valid.
    """
    queries = list(workload)
    ops = list(schedule)
    events = list(stream)

    def diverges(queries, ops, events) -> bool:
        if not _schedule_applies(queries, ops):
            return False
        candidate = Workload(queries, name=workload.name)
        return bool(
            find_churn_divergence(
                candidate, EventStream(events, name=stream.name), ChurnSchedule(ops), seed, executors
            )
        )

    shrinking = True
    while shrinking:
        shrinking = False
        for index in range(len(ops)):
            candidate = ops[:index] + ops[index + 1 :]
            if diverges(queries, candidate, events):
                ops = candidate
                shrinking = True
                break
        if shrinking:
            continue
        for index in range(len(queries)):
            candidate = queries[:index] + queries[index + 1 :]
            if diverges(candidate, ops, events):
                queries = candidate
                shrinking = True
                break
        if shrinking:
            continue
        for index in range(len(events)):
            candidate = events[:index] + events[index + 1 :]
            if diverges(queries, ops, candidate):
                events = candidate
                shrinking = True
                break
    return (
        Workload(queries, name=workload.name),
        EventStream(events, name=stream.name),
        ChurnSchedule(ops),
    )


def describe_churn_scenario(
    workload: Workload, stream: EventStream, schedule: ChurnSchedule
) -> str:
    lines = [describe_scenario(workload, stream), "schedule:"]
    for op in schedule:
        suffix = f"  {op.query!r}" if op.kind == "attach" else ""
        lines.append(f"  {op.kind}@{op.at}: {op.query_name}{suffix}")
    return "\n".join(lines)


def check_churn_scenario(seed: int) -> None:
    workload, stream, schedule = random_churn_scenario(seed)
    divergence = find_churn_divergence(workload, stream, schedule, seed)
    if divergence is None:
        return
    minimal_workload, minimal_stream, minimal_schedule = shrink_churn_divergence(
        workload, stream, schedule, seed
    )
    divergence = (
        find_churn_divergence(minimal_workload, minimal_stream, minimal_schedule, seed)
        or divergence
    )
    executor_name, query_name, differences = divergence
    pytest.fail(
        f"churn scenario seed={seed}: executor {executor_name} diverges from "
        f"the churn oracle on query {query_name!r}.\n"
        f"first differences (key, executor value, oracle value): {differences}\n"
        f"minimal reproducer:\n"
        f"{describe_churn_scenario(minimal_workload, minimal_stream, minimal_schedule)}\n"
        f"plan seed: {seed} (rebuild with deterministic_plan on the initial workload)"
    )


@pytest.mark.parametrize("block", range(NUM_BLOCKS))
def test_churned_executors_match_fresh_run_oracle(block):
    """Attach gates, detach truncation, and untouched queries all equal fresh runs."""
    per_block = (NUM_CHURN_SCENARIOS + NUM_BLOCKS - 1) // NUM_BLOCKS
    for offset in range(per_block):
        seed = block * per_block + offset
        if seed >= NUM_CHURN_SCENARIOS:
            break
        check_churn_scenario(seed)


def test_churn_grid_exercises_attach_and_detach():
    """The grid is toothless if schedules never matter: most must move results.

    An attach "matters" when the attached query emits at least one nonzero
    gated result (so the recompiled routing is actually exercised), and the
    generator must produce detach ops in a healthy fraction of scenarios.
    """
    total = min(NUM_CHURN_SCENARIOS, 40) or 40
    attaches_matter = 0
    detaches = 0
    for seed in range(total):
        workload, stream, schedule = random_churn_scenario(seed)
        expected = churn_oracle(workload, stream, schedule)
        if any(op.kind == "detach" for op in schedule):
            detaches += 1
        if any(
            len(expected[op.query_name].nonzero()) > 0
            for op in schedule
            if op.kind == "attach"
        ):
            attaches_matter += 1
    assert attaches_matter >= total // 3, (
        f"only {attaches_matter}/{total} scenarios have an attach that emits "
        f"anything — the gate is never really tested"
    )
    assert detaches >= total // 6, (
        f"only {detaches}/{total} scenarios contain a detach op — truncation "
        f"semantics are barely exercised"
    )


# -- churn × crash recovery ---------------------------------------------------


def _checkpointed_run(runner: ReplayRunner, stream: EventStream, tmp_path, every: int = 3):
    full = runner.run(stream, checkpoint_every=every, checkpoint_dir=tmp_path)
    assert full.checkpoints, "the scenario is too short to write a single checkpoint"
    return full


def test_resume_from_every_checkpoint_matches_full_churned_run(tmp_path):
    """Resume at any point of a churned replay is byte-identical to running through.

    Checkpoints land before, between, and after the schedule's ops, so this
    covers snapshots carrying zero, some, and all of the applied history —
    each resume re-applies exactly the checkpoint's churn prefix.
    """
    checked = 0
    for seed in (1, 5, 11):
        workload, stream, schedule = random_churn_scenario(seed)
        plan = deterministic_plan(workload, seed)
        runner = ReplayRunner(workload, plan=plan, churn=schedule)
        directory = tmp_path / f"seed-{seed}"
        full = _checkpointed_run(runner, stream, directory)
        for path in full.checkpoints:
            resumed = ReplayRunner(workload, plan=plan, churn=schedule).run(
                stream, resume_from=path
            )
            assert resumed.state_hash == full.state_hash, (
                f"seed {seed}: resume from {path.name} diverged from the "
                f"uninterrupted churned run"
            )
            checked += 1
    assert checked >= 6


def test_resume_between_attach_and_first_gated_window_matches_full_run(tmp_path):
    """A checkpoint after an attach but before its first emitting window resumes exactly.

    The attach applies at t=5 inside the window [0, 12); its gate admits
    only windows starting at slide multiples >= 5, so every window the new
    query emits opens *after* the attach.  Checkpointing every batch
    guarantees snapshots in the gap where the attach is applied but has
    emitted nothing — the fragile region for gate restoration.
    """
    window = SlidingWindow(size=12, slide=6)
    workload = Workload([Query(Pattern(("A", "B")), window, name="base")])
    joiner = Query(Pattern(("C", "D")), window, name="joiner")
    schedule = ChurnSchedule([ChurnOp("attach", 5, query=joiner)])
    stream = EventStream.from_tuples(
        [("A", 0), ("B", 2), ("C", 4), ("C", 5), ("D", 6), ("A", 7),
         ("B", 8), ("C", 9), ("D", 10), ("A", 13), ("B", 14), ("D", 15)]
    )
    runner = ReplayRunner(workload, churn=schedule)
    full = _checkpointed_run(runner, stream, tmp_path, every=1)
    gap_checkpoints = 0
    for path in full.checkpoints:
        checkpoint = load_checkpoint(path)
        history = (checkpoint.engine_state.get("churn") or {}).get("history", [])
        if history and checkpoint.last_timestamp < 6:
            gap_checkpoints += 1
        resumed = ReplayRunner(workload, churn=schedule).run(stream, resume_from=path)
        assert resumed.state_hash == full.state_hash, path.name
    assert gap_checkpoints > 0, (
        "no checkpoint landed between the attach and its first gated window; "
        "the test lost its teeth"
    )
    # The gate itself: the joiner emits only windows starting at t >= 5.
    joiner_results = ResultSet(
        r for r in full.report.results if r.query_name == "joiner"
    ).nonzero()
    assert joiner_results, "the attached query never emitted — nothing was gated"
    assert all(r.window.start >= 5 for r in joiner_results)


def test_checkpoint_refuses_resume_under_a_different_churn_script(tmp_path):
    """The full schedule is part of the determinism contract: mismatch → refusal."""
    workload, stream, schedule = random_churn_scenario(3)
    plan = deterministic_plan(workload, 3)
    runner = ReplayRunner(workload, plan=plan, churn=schedule)
    full = _checkpointed_run(runner, stream, tmp_path)
    path = full.checkpoints[-1]

    # A churn-free runner must refuse a churned checkpoint outright.
    with pytest.raises(CheckpointError, match="engine config"):
        ReplayRunner(workload, plan=plan).run(stream, resume_from=path)

    # A runner with a shifted schedule is a different program.
    shifted = ChurnSchedule(
        [
            ChurnOp(op.kind, op.at + 1, query=op.query, query_name=op.query_name)
            for op in schedule
        ]
    )
    with pytest.raises(CheckpointError, match="engine config"):
        ReplayRunner(workload, plan=plan, churn=shifted).run(stream, resume_from=path)


def test_checkpoint_refuses_tampered_churn_history(tmp_path):
    """A snapshot whose applied-op history disagrees with the schedule is refused.

    The engine-config check catches *declared* schedule mismatches; this
    pins the deeper guard — the per-op history verification that re-applies
    the prefix — by tampering with a checkpoint's recorded history while
    leaving its declared config intact.
    """
    workload, stream, schedule = random_churn_scenario(1)
    plan = deterministic_plan(workload, 1)
    runner = ReplayRunner(workload, plan=plan, churn=schedule)
    full = _checkpointed_run(runner, stream, tmp_path, every=2)
    churned = None
    for path in full.checkpoints:
        checkpoint = load_checkpoint(path)
        if (checkpoint.engine_state.get("churn") or {}).get("history"):
            churned = path, checkpoint
            break
    assert churned is not None, "no checkpoint captured an applied churn op"
    path, checkpoint = churned

    tampered = json.loads(json.dumps(checkpoint.engine_state))
    tampered["churn"]["history"][0]["at"] += 1
    bad = type(checkpoint)(
        events_consumed=checkpoint.events_consumed,
        last_timestamp=checkpoint.last_timestamp,
        workload_fingerprint=checkpoint.workload_fingerprint,
        engine_config=checkpoint.engine_config,
        engine_state=tampered,
    )
    bad_path = tmp_path / "tampered.json"
    save_checkpoint(bad, bad_path)
    with pytest.raises(CheckpointError, match="churn history"):
        ReplayRunner(workload, plan=plan, churn=schedule).run(stream, resume_from=bad_path)


class TestChurnRegressionCorpus:
    """Minimal churn scenarios distilled from harness development.

    Each case is the shrunk form of a divergence family found while building
    the churn surface; they run on every invocation even when the grid is
    reduced in CI, so past divergence shapes stay pinned.
    """

    def _assert_matches_oracle(self, workload, stream, schedule, seed: int = 0):
        divergence = find_churn_divergence(workload, stream, schedule, seed)
        assert divergence is None, divergence

    def test_attach_routes_its_own_trigger_batch(self):
        """Events at exactly the attach timestamp must reach the new query.

        The original churn loop applied due ops *after* the trigger batch
        was routed, so a batch at the attach timestamp was filtered under
        the old workload's type-relevance and the attached query silently
        missed its first events (grid seeds 5 and 25).  The op must apply
        before its trigger batch is routed.
        """
        window = SlidingWindow(size=12, slide=4)
        workload = Workload([Query(Pattern(("A", "B")), window, name="base")])
        joiner = Query(Pattern(("C", "D")), window, name="joiner")
        schedule = ChurnSchedule([ChurnOp("attach", 4, query=joiner)])
        stream = EventStream.from_tuples(
            [("A", 0), ("B", 2), ("C", 4), ("D", 5), ("C", 8), ("D", 9), ("A", 10), ("B", 11)]
        )
        self._assert_matches_oracle(workload, stream, schedule)

    def test_detach_emits_partial_values_of_open_windows(self):
        """Detach mid-window equals a run truncated at the detach timestamp."""
        window = SlidingWindow(size=10, slide=5)
        workload = Workload(
            [
                Query(Pattern(("A", "B")), window, name="keep"),
                Query(Pattern(("A", "C")), window, name="drop"),
            ]
        )
        schedule = ChurnSchedule([ChurnOp("detach", 7, query_name="drop")])
        stream = EventStream.from_tuples(
            [("A", 1), ("C", 2), ("B", 3), ("A", 6), ("C", 8), ("B", 9), ("A", 11), ("C", 12)]
        )
        self._assert_matches_oracle(workload, stream, schedule)

    def test_pane_detach_folds_the_open_pane_into_the_partial(self):
        """In pane mode the detach partial must include the still-open pane."""
        window = SlidingWindow(size=8, slide=4)  # pane width 4
        workload = Workload(
            [
                Query(Pattern(("A", "B")), window, name="keep"),
                Query(Pattern(("B", "C")), window, name="drop"),
            ]
        )
        schedule = ChurnSchedule([ChurnOp("detach", 6, query_name="drop")])
        stream = EventStream.from_tuples(
            [("B", 0), ("C", 1), ("A", 2), ("B", 4), ("C", 5), ("A", 6), ("B", 7), ("C", 9)]
        )
        self._assert_matches_oracle(workload, stream, schedule)

    def test_attach_then_detach_same_query(self):
        """A query living only in the middle of the stream is gated *and* truncated."""
        window = SlidingWindow(size=6, slide=3)
        workload = Workload([Query(Pattern(("A", "B")), window, name="base")])
        guest = Query(Pattern(("C", "D")), window, name="guest")
        schedule = ChurnSchedule(
            [ChurnOp("attach", 3, query=guest), ChurnOp("detach", 10, query_name="guest")]
        )
        stream = EventStream.from_tuples(
            [("C", 1), ("D", 2), ("A", 3), ("C", 4), ("D", 5), ("B", 6),
             ("C", 7), ("D", 8), ("C", 10), ("D", 11), ("A", 12), ("B", 13)]
        )
        self._assert_matches_oracle(workload, stream, schedule)

    def test_trailing_ops_apply_before_finish(self):
        """A detach scheduled past end-of-stream equals the full run for that query."""
        window = SlidingWindow(size=8, slide=4)
        workload = Workload(
            [
                Query(Pattern(("A", "B")), window, name="keep"),
                Query(Pattern(("B", "C")), window, name="late-drop"),
            ]
        )
        schedule = ChurnSchedule([ChurnOp("detach", 99, query_name="late-drop")])
        stream = EventStream.from_tuples([("A", 0), ("B", 1), ("C", 2), ("A", 5), ("B", 6), ("C", 7)])
        self._assert_matches_oracle(workload, stream, schedule)
