"""An adaptive run (Section 7.4) is a start plan plus plan ops: it replays and resumes.

:class:`~repro.core.AdaptiveSharonExecutor` records what it decided as
``executor.plan`` and ``executor.ops``, a churn schedule of ``plan`` ops.
Handed to :class:`~repro.replay.ReplayRunner`, they must reproduce the
adaptive run's result lines and ``state_updates`` under checkpoints, and
every checkpoint must resume to the uninterrupted replay's bytes and state
hash — on a tumbling window, where the plan acts, and on an overlapping one
under the engine's resolved strategy (panes).
"""

from __future__ import annotations

import pytest

from repro.core import AdaptiveSharonExecutor
from repro.events import SlidingWindow
from repro.executor.results import encode_result_lines
from repro.replay import RESULTS_LOG_NAME, ReplayRunner, load_checkpoint

from ..unit.test_dynamic import drifting_setup


@pytest.mark.parametrize(
    ("window", "mode"),
    [(SlidingWindow(size=20, slide=20), "instances"), (SlidingWindow(size=20, slide=10), "panes")],
    ids=["tumbling", "overlapping"],
)
def test_an_adaptive_run_replays_and_resumes(tmp_path, window, mode):
    workload, stream = drifting_setup(window)
    adaptive = AdaptiveSharonExecutor(workload, check_interval=10, drift_threshold=0.2)
    report = adaptive.run(stream)
    assert adaptive.ops and all(op.kind == "plan" for op in adaptive.ops)
    if mode == "instances":
        assert report.metrics.cohorts_created > 0

    def runner() -> ReplayRunner:
        return ReplayRunner(workload, plan=adaptive.plan, churn=adaptive.ops)

    replay = runner()
    full = replay.run(stream, checkpoint_every=3, checkpoint_dir=tmp_path / "full")
    assert replay.engine.uses_panes == (mode == "panes")
    body = (tmp_path / "full" / RESULTS_LOG_NAME).read_bytes()
    assert body.partition(b"\n")[2] == encode_result_lines(report.results)
    assert full.report.metrics.state_updates == report.metrics.state_updates

    def plan_ops_in(path) -> int:
        history = load_checkpoint(path).engine_state.get("churn", {}).get("history", [])
        return sum(entry["op"] == "plan" for entry in history)

    # Checkpoints before, between and after plan ops: resume re-applies a prefix.
    applied = [plan_ops_in(path) for path in full.checkpoints]
    assert applied[0] < applied[-1]
    for index, checkpoint in enumerate(full.checkpoints):
        directory = tmp_path / f"resumed-{index}"
        resumed = runner().run(
            stream, resume_from=checkpoint, checkpoint_every=3, checkpoint_dir=directory
        )
        assert resumed.state_hash == full.state_hash, checkpoint.name
        assert (directory / RESULTS_LOG_NAME).read_bytes() == body, checkpoint.name
