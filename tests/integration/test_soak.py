"""Soak: an unbounded stream does not make the process grow with its output.

The engine's memory contract is "bounded by the open scopes, not the stream
length"; since results leave through the session ledger as canonical lines
it also covers what was already *said*:

* results leave the session at every batch boundary: while the caller
  handles a batch the ledger holds exactly the blocks that step emitted —
  one per closed window × group, never one per result — and never a
  backlog;
* the ledger keeps no line: they go to the results log when one is attached
  (``ReplayRunner`` with ``checkpoint_every``) and to an anonymous spill file
  otherwise, and either way ``tracemalloc``'s live size stays flat over
  hundreds of window closes;
* without a results log the spilled lines are all there is: no result row,
  no ``QueryResult`` and no ``ResultSet`` index exists until somebody reads
  ``report.results``, and no moment of the run — its final state hash
  included — encodes the whole output at once (``tracemalloc``'s peak stays
  near its final size);
* ``repro replay`` samples the optimizer's rates in one pass over the log
  and does not load it: its ``tracemalloc`` peak on a log four times as long
  stays where it was.

All cases are in the tier-1 fast suite with a hard wall-clock budget
(``SOAK_BUDGET_SECONDS``); ``make soak`` (and CI) additionally runs this file
under ``PYTHONHASHSEED=0`` and ``PYTHONHASHSEED=random``, with
``-W error::ResourceWarning`` so that an unclosed spill file fails.
"""

from __future__ import annotations

import gc
import itertools
import time
import tracemalloc

import pytest

from repro.cli import main
from repro.events import Event, SlidingWindow, write_event_log
from repro.executor import results as results_module
from repro.executor.results import QueryResult, ResultSet, _SpillLog
from repro.queries import AggregateSpec, Pattern, PredicateSet, Query, Workload
from repro.replay import RESULTS_LOG_NAME, ReplayRunner
from repro.replay.checkpoint import ResultsLogWriter

SOAK_BUDGET_SECONDS = 5.0
ENTITIES = 8
WINDOW = SlidingWindow(size=8, slide=4)
#: Stream time the soak runs for: one window closes every ``slide`` units.
SOAK_UNITS = 220 * WINDOW.slide
CHECKPOINT_EVERY = 80


def soak_workload() -> Workload:
    same = PredicateSet.same("entity")
    count = AggregateSpec.count_star()
    return Workload(
        [
            Query(Pattern(["A", "B"]), WINDOW, count, same, name="ab"),
            Query(Pattern(["A", "B", "C"]), WINDOW, count, same, name="abc"),
            Query(Pattern(["B", "C"]), WINDOW, AggregateSpec.sum("C", "value"), same, name="bc"),
        ]
    )


def unbounded_events():
    """An endless timestamp-ordered stream: every entity reports once per time unit."""
    event_id = 0
    for timestamp in itertools.count():
        for entity in range(ENTITIES):
            attributes = {"entity": f"e{entity}", "value": (timestamp * 7 + entity) % 11}
            yield Event("ABC"[(timestamp + entity) % 3], timestamp, attributes, event_id)
            event_id += 1


def until(units: int):
    """The unbounded stream, cut off where the test stops watching."""
    return itertools.takewhile(lambda event: event.timestamp < units, unbounded_events())


def capture_session(runner: ReplayRunner) -> list:
    """Make ``runner`` report the session it creates (returned list, filled by ``run``)."""
    sessions = []
    new_session = runner.engine.new_session

    def capturing(mode=None):
        sessions.append(new_session(mode))
        return sessions[-1]

    runner.engine.new_session = capturing
    return sessions


class StepWatch:
    """An ``on_batch`` observer comparing, per batch, the results the ledger's
    pending blocks stand for with the results that step emitted (the
    ``results_emitted`` delta), and the blocks with the windows × groups
    that step closed: each block carries every query's result.

    It keeps only the mismatches, so it does not grow with the run itself.
    """

    def __init__(self, sessions: list, queries: int) -> None:
        self.sessions = sessions
        self.queries = queries
        self.batches = self.emitted = self.most_pending = 0
        self.mismatches: list[tuple[int, int, int, int]] = []

    def __call__(self, timestamp, _events) -> None:
        ledger = self.sessions[0].ledger
        pending, emitted = ledger.pending_rows, self.sessions[0].collector.results_emitted
        blocks = len(ledger.pending)
        if pending != emitted - self.emitted or pending != blocks * self.queries:
            self.mismatches.append((timestamp, pending, emitted - self.emitted, blocks))
        self.emitted = emitted
        self.most_pending = max(self.most_pending, pending)
        self.batches += 1

    def assert_pending_is_one_step(self) -> None:
        assert not self.mismatches, self.mismatches[:5]
        assert self.most_pending > 0


def sample_live_bytes(watch: StepWatch, live_bytes: list) -> None:
    """Every ``CHECKPOINT_EVERY`` batches, the live size ``tracemalloc`` traces.

    Sampled at a fixed phase (with a results log: the batch whose checkpoint
    is about to be written).
    """
    if watch.batches % CHECKPOINT_EVERY == 0:
        gc.collect()  # garbage awaiting the collector is not growth
        live_bytes.append(tracemalloc.get_traced_memory()[0])


def assert_flat(live_bytes: list) -> None:
    """The second half of the samples stays within 5% of its smallest."""
    second_half = live_bytes[len(live_bytes) // 2 :]
    assert len(second_half) >= 5
    assert max(second_half) <= 1.05 * min(second_half), live_bytes


def test_memory_is_flat_while_results_leave_through_the_log(tmp_path):
    runner = ReplayRunner(soak_workload())
    sessions = capture_session(runner)
    watch = StepWatch(sessions, len(soak_workload()))
    live_bytes: list[int] = []

    def on_batch(timestamp, events) -> None:
        watch(timestamp, events)
        # Lines go to the results log, which replaced the spill file.
        assert type(sessions[0].ledger.log) is ResultsLogWriter
        sample_live_bytes(watch, live_bytes)

    started = time.perf_counter()
    tracemalloc.start()
    try:
        replay = runner.run(
            until(SOAK_UNITS),
            checkpoint_every=CHECKPOINT_EVERY,
            checkpoint_dir=tmp_path,
            on_batch=on_batch,
        )
    finally:
        tracemalloc.stop()
    elapsed = time.perf_counter() - started

    metrics = replay.metrics
    assert metrics.windows_finalized >= 200 * ENTITIES
    assert len(replay.checkpoints) == SOAK_UNITS // CHECKPOINT_EVERY == len(live_bytes)
    ledger = sessions[0].ledger
    # Everything emitted is in the log and nowhere else.
    assert not ledger.pending and type(ledger.log) is ResultsLogWriter
    # At every batch the ledger holds that step's blocks, not a backlog.
    watch.assert_pending_is_one_step()
    assert watch.most_pending == ENTITIES * len(soak_workload())
    assert_flat(live_bytes)

    # The report reads the log back: same rows, decoded only now.
    lines = (tmp_path / RESULTS_LOG_NAME).read_bytes().splitlines()[1:]
    assert len(replay.results) == metrics.results_emitted == len(lines)
    assert elapsed < SOAK_BUDGET_SECONDS, f"soak took {elapsed:.1f}s"


@pytest.mark.parametrize("panes", [True, False], ids=["panes", "instances"])
def test_without_a_log_rows_are_all_there_is_until_results_are_read(panes, monkeypatch):
    """Without a results log the ledger's spill file holds the run's canonical lines.

    The run builds no per-result tuple — decoding lines is the only place
    rows come from, and it runs only when ``results`` is read — no
    ``QueryResult`` and no ``ResultSet`` index.
    """
    built = {"rows": 0, "results": 0, "indexes": 0}
    decode = results_module.decode_result_lines
    as_result, keyed = results_module._as_result, ResultSet._keyed

    def counting_decode(lines):
        rows = decode(lines)
        built["rows"] += len(rows)
        return rows

    def counting_as_result(row):
        built["results"] += 1
        return as_result(row)

    def counting_keyed(self):
        if self._index is None:
            built["indexes"] += 1
        return keyed(self)

    monkeypatch.setattr(results_module, "decode_result_lines", counting_decode)
    monkeypatch.setattr(results_module, "_as_result", counting_as_result)
    monkeypatch.setattr(ResultSet, "_keyed", counting_keyed)

    started = time.perf_counter()
    runner = ReplayRunner(soak_workload(), panes=panes)
    sessions = capture_session(runner)
    watch = StepWatch(sessions, len(soak_workload()))
    replay = runner.run(until(SOAK_UNITS), on_batch=watch)
    emitted = replay.metrics.results_emitted
    assert replay.metrics.windows_finalized >= 200 * ENTITIES
    watch.assert_pending_is_one_step()

    # The run (and the state hash it ends with) built no row, result or index.
    assert built == {"rows": 0, "results": 0, "indexes": 0}
    ledger = sessions[0].ledger
    assert not ledger.pending and type(ledger.log) is _SpillLog
    kept = ledger.log.body()
    assert kept.count(b"\n") == emitted

    results = replay.results
    assert built == {"rows": emitted, "results": 0, "indexes": 0}  # rows appear on read
    first = next(iter(results))
    assert type(first) is QueryResult and first == decode(kept.partition(b"\n")[0])[0]
    assert sum(1 for _ in results) == emitted
    assert built == {"rows": emitted, "results": 1 + emitted, "indexes": 0}  # never indexes
    assert len(results) == emitted and first.key in results
    assert built["indexes"] == 1  # the first keyed call does, once
    assert time.perf_counter() - started < SOAK_BUDGET_SECONDS


def test_without_a_log_no_moment_encodes_the_whole_output():
    """The run's output dwarfs its live state; it leaves, and no transient may approach it.

    24 COUNT(*) queries over two patterns emit 24 rows per entity and window
    (42 240 in all) from a few dozen open scopes.  The lines go to the spill
    file, so the live size stays flat as they pile up there.  If the rows
    were encoded in one go — say by the state hash that ends the run —
    ``tracemalloc``'s peak would sit several times the encoded output above
    its final size.
    """
    same, count = PredicateSet.same("entity"), AggregateSpec.count_star()
    patterns = (Pattern(["A", "B"]), Pattern(["A", "B", "C"]))
    workload = Workload(
        [Query(patterns[i % 2], WINDOW, count, same, name=f"q{i}") for i in range(24)]
    )
    runner = ReplayRunner(workload)
    sessions = capture_session(runner)
    watch = StepWatch(sessions, len(workload))
    live_bytes: list[int] = []

    def on_batch(timestamp, events) -> None:
        watch(timestamp, events)
        sample_live_bytes(watch, live_bytes)

    started = time.perf_counter()
    tracemalloc.start()
    try:
        replay = runner.run(until(SOAK_UNITS), on_batch=on_batch)
        final, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    elapsed = time.perf_counter() - started

    spill = sessions[0].ledger.log
    kept = spill.body()
    assert replay.metrics.results_emitted == kept.count(b"\n") >= 24 * ENTITIES * 200
    output = len(kept)
    assert spill.file._rolled  # the lines are in the file, out of the process
    assert_flat(live_bytes)
    assert peak - final < output / 4, (peak - final, output)
    assert elapsed < SOAK_BUDGET_SECONDS, f"soak took {elapsed:.1f}s"


#: :func:`soak_workload`'s two COUNT(*) queries as a workload file.
SOAK_WORKLOAD_FILE = """\
name: ab
RETURN COUNT(*)
PATTERN SEQ(A, B)
WHERE [entity]
WITHIN 8 SLIDE 4

name: abc
RETURN COUNT(*)
PATTERN SEQ(A, B, C)
WHERE [entity]
WITHIN 8 SLIDE 4
"""


def test_replay_does_not_load_the_log(tmp_path, capsys):
    """The CLI's peak does not grow with the log: rates come from one pass over its runs.

    Loading the log into a stream to sample them cost about 100 bytes per
    event, so the four-times log peaked at about four times the one-times one.
    """
    workload = tmp_path / "workload.sase"
    workload.write_text(SOAK_WORKLOAD_FILE, encoding="utf-8")
    logs = {}
    for scale in (1, 4):
        logs[scale] = tmp_path / f"events-{scale}x.jsonl"
        write_event_log(until(scale * 500), logs[scale])

    def replay(scale: int) -> int:
        """``tracemalloc``'s peak over one ``repro replay`` of the ``scale``-times log."""
        tracemalloc.start()
        try:
            argv = ["replay", "--log", str(logs[scale]), "--workload-file", str(workload)]
            assert main(argv) == 0
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
            capsys.readouterr()

    started = time.perf_counter()
    replay(1)  # imports and first-call caches are not the log's
    small, large = replay(1), replay(4)
    assert large < 1.25 * small, (small, large)
    assert time.perf_counter() - started < SOAK_BUDGET_SECONDS
