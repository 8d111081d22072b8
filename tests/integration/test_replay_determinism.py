"""Replay determinism suite: recorded logs must replay byte-identically.

The replay subsystem (:mod:`repro.replay`) promises four things, each pinned
here on top of the unit-level codec tests:

1. **Replay is a pure function of the log.**  Replaying the same recorded
   event log through a freshly built engine 100 times must reach the same
   final state hash every single time (the hash covers results, metrics
   counters, and all residual engine state — see ``docs/replay.md``).
2. **Resume ≡ full replay.**  Restoring any mid-run checkpoint and
   consuming the rest of the log must land in a final state byte-identical
   to an uninterrupted replay — under both window strategies, because each
   routes state through different snapshot layers (pane cells and prefix
   vectors vs window scopes with their cohort columns).
3. **Zero divergence vs the oracle.**  Results replayed from a log equal
   the brute-force :class:`repro.executor.OracleExecutor` on the in-memory
   stream; the random-run grid (``test_random_runs.py``) checks this on
   every draw it replays from a log.
4. **Results leave the session.**  A checkpointing run appends what it
   emits to ``results.jsonl`` next to the checkpoints; the log of a run
   resumed from *any* checkpoint — into a new directory or on top of its own,
   longer, log — is byte-identical to the uninterrupted run's, its digest is
   the one in the final state, and checkpoint files do not grow with the run.

Seeds are fixed so every run is reproducible.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import random
import shutil
import time

import pytest

from repro.datasets import random_run
from repro.datasets.workloads import random_maximal_plan
from repro.events import Event, EventStream, SlidingWindow, bounded_shuffle
from repro.events.log import EventLogReader, write_event_log
from repro.executor.results import encode_result_lines
from repro.queries import Pattern, PredicateSet, Query, Workload
from repro.replay import (
    RESULTS_LOG_NAME,
    CheckpointError,
    ReplayRunner,
    ReplayTrace,
    first_divergence,
    load_checkpoint,
    state_hash,
)

from ..conftest import make_events, write_v1_log

#: Full replays of one log in the determinism stress test.
NUM_IDENTICAL_REPLAYS = 100


def scenario_with_log(seed: int, tmp_path):
    """One recorded draw: (workload, plan, log path)."""
    run = random_run(seed)
    log_path = tmp_path / f"scenario-{seed}.jsonl"
    write_event_log(run.stream, log_path, stream_name=run.stream.name)
    return run.workload, random_maximal_plan(run.workload, seed), log_path


def test_replay_hash_identical_100_times(tmp_path):
    """One log, 100 fresh engines, exactly one distinct final state hash."""
    workload, plan, log_path = scenario_with_log(3, tmp_path)
    reader = EventLogReader(log_path)
    hashes = {
        ReplayRunner(workload, plan=plan).run(reader).state_hash
        for _ in range(NUM_IDENTICAL_REPLAYS)
    }
    assert len(hashes) == 1, (
        f"{NUM_IDENTICAL_REPLAYS} replays of the same log produced "
        f"{len(hashes)} distinct final states: {sorted(hashes)}"
    )


def counters(report) -> dict:
    """A run's stream-determined ``RunMetrics`` (everything but wall clock and memory)."""
    measured = dataclasses.asdict(report.metrics)
    return {k: v for k, v in measured.items() if k not in ("elapsed_seconds", "peak_memory_bytes")}


def results_log_body(directory) -> bytes:
    """The result lines of a checkpoint directory's ``results.jsonl`` (header checked)."""
    header, _, body = (directory / RESULTS_LOG_NAME).read_bytes().partition(b"\n")
    assert header == b'{"format":"repro-results-log","version":1}'
    return body


@pytest.mark.parametrize("churned", [False, True], ids=["static", "churn"])
@pytest.mark.parametrize("max_lateness", [None, 4], ids=["in-order", "late4"])
@pytest.mark.parametrize("panes", [False, True], ids=["instances", "panes"])
def test_results_log_is_identical_after_resume_from_every_checkpoint(
    panes, max_lateness, churned, tmp_path
):
    """Where checkpoints and resumes fall changes nothing anyone can read.

    An uninterrupted checkpointing run is compared with (a) a run that writes
    no checkpoints at all, (b) a plain engine session over the same log and
    (c) a resume from every one of its checkpoints, both into a fresh
    directory and on top of a copy of its own directory, whose log is then
    *longer* than the checkpoint's offset (what a kill after the last log
    append leaves).  Resumed runs checkpoint on their own cadence, so their
    snapshots fall between different batches than the full run's.  The source
    changes nothing either: (d) a version 1 log of the same arrival order and
    the in-memory stream give the same bytes, hash and counters as the
    version 2 log, whose frames a checkpoint may fall inside.
    """
    seed = 61  # attach, two detaches; grouped; overlapping windows
    run = random_run(seed)
    workload, schedule = run.workload, run.churn
    plan = random_maximal_plan(workload, seed)
    events = list(run.stream)
    if max_lateness is not None:
        events = bounded_shuffle(events, max_lateness, seed=seed)
    log_path = tmp_path / "events.jsonl"
    write_event_log(events, log_path, stream_name=run.stream.name)

    def runner():
        return ReplayRunner(
            workload,
            plan=plan,
            panes=panes,
            max_lateness=max_lateness,
            churn=schedule if churned else None,
        )

    plain = runner().run(log_path, trace=True)
    full = runner().run(log_path, checkpoint_every=3, checkpoint_dir=tmp_path / "full")
    assert full.state_hash == plain.state_hash
    assert len(full.checkpoints) >= 4
    body = results_log_body(tmp_path / "full")
    assert body == encode_result_lines(full.results) == encode_result_lines(plain.results)

    v1_path = tmp_path / "events-v1.jsonl"
    write_v1_log(events, v1_path)
    assert list(EventLogReader(v1_path)) == list(EventLogReader(log_path)) == events
    for name, source in (("v1", v1_path), ("stream", EventStream(events))):
        seen: list = []
        other = runner().run(
            source,
            checkpoint_every=3,
            checkpoint_dir=tmp_path / name,
            on_batch=lambda _t, batch: seen.extend(batch),
        )
        assert other.state_hash == full.state_hash, name
        assert results_log_body(tmp_path / name) == body, name
        assert counters(other) == counters(full), name
        # on_batch is handed every event of every batch, not just the routed ones.
        assert sorted(e.event_id for e in seen) == sorted(e.event_id for e in events), name
    # events_consumed is the same event index under either log version: a
    # checkpoint taken on the v1 log resumes on the v2 log, and the reverse.
    for taken_on, resumed_on in (("v1", log_path), ("full", v1_path)):
        for checkpoint_path in sorted((tmp_path / taken_on).glob("checkpoint-*.json")):
            crossed = runner().run(resumed_on, resume_from=checkpoint_path)
            assert crossed.state_hash == full.state_hash, (taken_on, checkpoint_path.name)
    frame_ends = {0}
    for line in log_path.read_text(encoding="utf-8").splitlines()[1:]:
        kind = json.loads(line)["type"]
        frame_ends.add(max(frame_ends) + (len(kind) if isinstance(kind, list) else 1))
    consumed = {load_checkpoint(path).events_consumed for path in full.checkpoints}
    if max_lateness is not None:
        assert consumed - frame_ends, "no checkpoint fell inside a frame"

    # The digest in the final state is the sha256 of the log's result lines.
    engine = runner().engine
    session = engine.new_session()
    engine.run(EventLogReader(log_path), session=session, churn=schedule if churned else None)
    assert state_hash(session) == full.state_hash
    assert session.export_state()["results"] == {
        "count": body.count(b"\n"),
        "digest": hashlib.sha256(body).hexdigest(),
    }

    emitted_before = set()
    for index, checkpoint_path in enumerate(full.checkpoints):
        checkpoint = load_checkpoint(checkpoint_path)
        emitted_before.add(checkpoint.engine_state["results"]["count"])
        fresh_dir = tmp_path / f"fresh-{index}"
        own_dir = tmp_path / f"own-{index}"
        shutil.copytree(tmp_path / "full", own_dir)
        assert (own_dir / RESULTS_LOG_NAME).stat().st_size >= checkpoint.results_offset
        for resume_from, directory in (
            (checkpoint_path, fresh_dir),
            (own_dir / checkpoint_path.name, own_dir),
        ):
            resumed = runner().run(
                log_path,
                resume_from=resume_from,
                checkpoint_every=2,
                checkpoint_dir=directory,
                trace=True,
            )
            assert resumed.state_hash == full.state_hash
            assert results_log_body(directory) == body, (
                f"resume from {checkpoint_path.name} into {directory.name} wrote a "
                f"different results log"
            )
            # The report is complete: the prefix came back from the log.
            assert encode_result_lines(resumed.results) == body
            # Still the exact tail of the uninterrupted run's per-batch trace.
            tail = ReplayTrace(plain.trace.entries[len(plain.trace) - len(resumed.trace):])
            assert first_divergence(tail, resumed.trace) is None
            assert checkpoint.events_consumed + resumed.events_replayed == full.events_replayed
    assert len(emitted_before) > 1, "every checkpoint fell before the first emitted result"


def steady_events(timestamps: int, seed: int = 20260927) -> list:
    """A stationary stream: same rate, types and groups at every timestamp."""
    rng = random.Random(seed)
    events = []
    for timestamp in range(timestamps):
        for _ in range(3):
            events.append(
                Event(rng.choice("ABC"), timestamp, {"entity": rng.randint(0, 3)}, len(events))
            )
    return events


def test_checkpoint_size_does_not_grow_with_the_run(tmp_path):
    """Same cadence on N and 4N events: the largest file stays the same size.

    A snapshot holds live scopes, the reorder buffer and counters; before the
    results log it also held every result emitted so far, so the last file of
    the 4N run was about four times the last file of the N run.
    """
    window = SlidingWindow(size=10, slide=5)
    predicates = PredicateSet.same("entity")
    workload = Workload(
        [
            Query(Pattern(["A", "B"]), window, predicates=predicates, name="q1"),
            Query(Pattern(["A", "B", "C"]), window, predicates=predicates, name="q2"),
        ]
    )
    largest = {}
    emitted = {}
    for timestamps in (150, 600):
        directory = tmp_path / f"cks-{timestamps}"
        report = ReplayRunner(workload, max_lateness=2).run(
            steady_events(timestamps), checkpoint_every=10, checkpoint_dir=directory
        )
        assert len(report.checkpoints) == timestamps // 10
        largest[timestamps] = max(path.stat().st_size for path in report.checkpoints)
        emitted[timestamps] = len(report.results)
    assert emitted[600] > 3.5 * emitted[150]
    assert largest[600] <= 1.5 * largest[150], largest


def test_paced_replay_matches_instant(tmp_path):
    """Pacing (Nx sleeps) must not change what the engine computes."""
    workload, plan, log_path = scenario_with_log(5, tmp_path)
    instant = ReplayRunner(workload, plan=plan).run(log_path)
    paced = ReplayRunner(workload, plan=plan).run(log_path, speed="1000000x")
    assert paced.state_hash == instant.state_hash


def test_paced_replay_subtracts_processing_time(tmp_path):
    """Pacing must follow an absolute schedule, not drift by processing time.

    The historical bug: the runner slept the full inter-batch gap *after*
    processing each batch, so every batch's processing time was added on top
    of the schedule and the drift accumulated over the run.  Here each batch
    is made artificially slow through ``on_batch``; the paced run must still
    finish close to the ideal wall-clock duration (span × seconds-per-unit),
    not ideal + the summed processing delays.
    """
    span = 20
    events = make_events([("A", t) for t in range(span + 1)])
    log_path = tmp_path / "paced.jsonl"
    write_event_log(events, log_path)
    window = SlidingWindow(size=10, slide=5)
    workload = Workload(
        [Query(pattern=Pattern(["A", "B"]), window=window, predicates=PredicateSet(), name="q")]
    )

    sleep_per_unit = 0.02  # "50x"
    ideal = span * sleep_per_unit
    delay = 0.015
    total_delay = delay * (span + 1)
    assert total_delay < ideal  # the schedule can absorb the simulated work

    start = time.perf_counter()
    report = ReplayRunner(workload).run(
        log_path, speed="50x", on_batch=lambda _ts, _batch: time.sleep(delay)
    )
    elapsed = time.perf_counter() - start

    assert report.batches == span + 1
    # With the drift bug this takes ideal + total_delay (~0.7s); the absolute
    # schedule lands near ideal.  Generous slack for loaded CI machines.
    assert elapsed < ideal + total_delay * 0.5, (
        f"paced replay took {elapsed:.3f}s for an ideal schedule of {ideal:.3f}s "
        f"— batch processing time is being added to the sleeps instead of "
        f"subtracted from them"
    )
    assert elapsed >= ideal * 0.9


class TestDisorderedReplay:
    """Checkpoints of a bounded-disorder log hold the reorder buffer."""

    MAX_LATENESS = 4

    def scenario(self, tmp_path, seed=13):
        """A draw recorded in a bounded-shuffled order: (workload, plan, log)."""
        run = random_run(seed)
        events = list(run.stream)
        shuffled = bounded_shuffle(events, self.MAX_LATENESS, seed=seed)
        assert shuffled != events, "seed produced an already-sorted shuffle"
        shuffled_log = tmp_path / "shuffled.jsonl"
        write_event_log(shuffled, shuffled_log)
        return run.workload, random_maximal_plan(run.workload, seed), shuffled_log

    def runner(self, workload, plan, **overrides):
        kwargs = dict(plan=plan, max_lateness=self.MAX_LATENESS)
        kwargs.update(overrides)
        return ReplayRunner(workload, **kwargs)

    def test_resume_with_buffered_events_matches_full_replay(self, tmp_path):
        """Checkpoints taken while the reorder buffer is non-empty must resume
        exactly: the buffer snapshot travels inside the session export and
        ``events_consumed`` counts log events *read*, including buffered ones."""
        workload, plan, shuffled_log = self.scenario(tmp_path)
        full = self.runner(workload, plan).run(shuffled_log)
        checkpointed = self.runner(workload, plan).run(
            shuffled_log, checkpoint_every=1, checkpoint_dir=tmp_path / "cks"
        )
        assert checkpointed.state_hash == full.state_hash
        assert checkpointed.checkpoints

        buffered_seen = 0
        for checkpoint_path in checkpointed.checkpoints:
            checkpoint = load_checkpoint(checkpoint_path)
            reorder = checkpoint.engine_state["reorder"]
            assert reorder["max_lateness"] == self.MAX_LATENESS
            buffered_seen += sum(len(batch) for _ts, batch in reorder["batches"])
            resumed = self.runner(workload, plan).run(
                shuffled_log, resume_from=checkpoint_path
            )
            assert resumed.state_hash == full.state_hash, (
                f"resume from {checkpoint_path.name} diverged from the full "
                f"disordered replay"
            )
            assert checkpoint.events_consumed + resumed.events_replayed == full.events_replayed
        assert buffered_seen > 0, (
            "no checkpoint ever held a non-empty reorder buffer — the scenario "
            "does not exercise buffered-state snapshots"
        )

    def test_resume_refuses_mismatched_disorder_config(self, tmp_path):
        workload, plan, shuffled_log = self.scenario(tmp_path)
        checkpointed = self.runner(workload, plan).run(
            shuffled_log, checkpoint_every=2, checkpoint_dir=tmp_path / "cks"
        )
        checkpoint = checkpointed.checkpoints[0]
        with pytest.raises(CheckpointError, match="engine config"):
            self.runner(workload, plan, max_lateness=None).run(
                shuffled_log, resume_from=checkpoint
            )
        with pytest.raises(CheckpointError, match="engine config"):
            self.runner(workload, plan, max_lateness=9).run(
                shuffled_log, resume_from=checkpoint
            )
