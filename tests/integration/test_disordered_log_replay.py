"""Replaying a disordered log written by the version 3 writer, and its version 4 re-recording.

``tests/fixtures/disordered_v3/events.jsonl`` holds the events of
``tests/fixtures/aggregates_v2`` in a bounded-disorder arrival order,
recorded by the version 3 writer, which cut a frame at every timestamp
change.  It was written by::

    events = list(EventLogReader("tests/fixtures/aggregates_v2/events.jsonl"))
    write_event_log(bounded_shuffle(events, 4, seed=45), path, stream_name="aggregates-disordered")

Version 4 frames the same arrivals across timestamps.  Through the reorder
feed (``max_lateness=4``) both logs must write the ordered fixture's
``results.jsonl``, reach one state hash, and write the same checkpoint files,
names and bytes: a checkpoint's ``events_consumed`` counts log rows, so a
frame that spans timestamps must not move it.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.cli import load_workload
from repro.datasets.workloads import random_maximal_plan
from repro.events import Event, EventLogReader, write_event_log
from repro.events.log import LOG_VERSION
from repro.replay import RESULTS_LOG_NAME, ReplayRunner

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"
V3_LOG = FIXTURES / "disordered_v3" / "events.jsonl"
ORDERED = FIXTURES / "aggregates_v2"
STRATEGIES = {"panes": True, "instances": False}


def runner(panes: bool) -> ReplayRunner:
    workload = load_workload(ORDERED / "workload.sase")
    return ReplayRunner(workload, plan=random_maximal_plan(workload, 0), panes=panes, max_lateness=4)


def replay(panes: bool, log: Path, directory: Path, **options) -> tuple:
    """``(state hash, results.jsonl bytes, {checkpoint name: bytes})`` of one checkpointing replay."""
    report = runner(panes).run(log, checkpoint_every=5, checkpoint_dir=directory, **options)
    assert report.metrics.events_late == 0
    checkpoints = {path.name: path.read_bytes() for path in sorted(directory.glob("checkpoint-*.json"))}
    return report.state_hash, (directory / RESULTS_LOG_NAME).read_bytes(), checkpoints


def test_the_fixture_is_a_version_3_log_of_disordered_arrivals(tmp_path):
    reader = EventLogReader(V3_LOG)
    assert reader.header["version"] == 3
    timestamps = [event.timestamp for event in reader]
    assert timestamps != sorted(timestamps)
    again = tmp_path / "v4.jsonl"
    write_event_log(reader, again)
    assert EventLogReader(again).header["version"] == LOG_VERSION
    assert list(EventLogReader(again)) == list(reader)
    assert EventLogReader(again).count_lines() < reader.count_lines()
    assert '"t":[' in again.read_text(encoding="utf-8") and '"t":[' not in V3_LOG.read_text(encoding="utf-8")


@pytest.mark.parametrize("mode", STRATEGIES)
def test_version_3_and_version_4_recordings_replay_to_the_same_bytes(mode, tmp_path):
    v4_log = tmp_path / "v4.jsonl"
    write_event_log(EventLogReader(V3_LOG), v4_log)
    panes = STRATEGIES[mode]
    v3 = replay(panes, V3_LOG, tmp_path / "v3")
    v4 = replay(panes, v4_log, tmp_path / "v4")
    assert len(v4[2]) > 2
    assert v4 == v3
    # Reordered within the bound is sorted: the ordered fixture's results, byte for byte.
    assert v4[1] == (ORDERED / f"results-{mode}.jsonl").read_bytes()
    # Every checkpoint of the v4 replay resumes to the uninterrupted run.
    for name in v4[2]:
        resumed = replay(panes, v4_log, tmp_path / f"resume-{name}", resume_from=tmp_path / "v4" / name)
        assert resumed[:2] == v4[:2], name


@pytest.mark.parametrize("mode", STRATEGIES)
def test_the_reorder_feed_builds_no_event(mode, tmp_path, monkeypatch):
    """Rows go from the log through the buffer to routing as columns, in either version."""
    v4_log = tmp_path / "v4.jsonl"
    write_event_log(EventLogReader(V3_LOG), v4_log)
    built = [0]
    check = Event.__post_init__

    def counting(event):
        built[0] += 1
        check(event)

    monkeypatch.setattr(Event, "__post_init__", counting)
    for log in (V3_LOG, v4_log):
        report = runner(STRATEGIES[mode]).run(log)
        assert report.metrics.total_events == 470 and report.metrics.relevant_events > 0
    assert built[0] == 0
