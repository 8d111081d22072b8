"""Churn × crash recovery: checkpoints of churned runs resume exactly, or refuse.

The random-run grid (``test_random_runs.py``) checks churned runs against
the fresh-run churn oracle and resumes each from a drawn checkpoint.  This
module pins what needs a chosen checkpoint: a resume taken between an
attach and its first gated window, and refusals to resume under a
different churn script (a mismatching schedule, or a tampered applied-op
history).
"""

from __future__ import annotations

import json

import pytest

from repro.datasets import random_run
from repro.datasets.workloads import random_maximal_plan
from repro.events import EventStream, SlidingWindow
from repro.executor import ChurnOp, ChurnSchedule, ResultSet
from repro.queries import Pattern, Query, Workload
from repro.replay import CheckpointError, ReplayRunner, load_checkpoint, save_checkpoint


def churned_draw():
    """``(workload, stream, schedule)`` of a draw that attaches twice, then detaches twice."""
    run = random_run(1)
    assert [op.kind for op in run.churn] == ["attach", "attach", "detach", "detach"]
    return run.workload, run.stream, run.churn


def _checkpointed_run(runner: ReplayRunner, stream: EventStream, tmp_path, every: int = 3):
    full = runner.run(stream, checkpoint_every=every, checkpoint_dir=tmp_path)
    assert full.checkpoints, "the scenario is too short to write a single checkpoint"
    return full


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
    workload, stream, schedule = churned_draw()
    plan = random_maximal_plan(workload, 1)
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
    workload, stream, schedule = churned_draw()
    plan = random_maximal_plan(workload, 1)
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
