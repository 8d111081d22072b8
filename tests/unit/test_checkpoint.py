"""Unit tests for engine checkpointing (export/restore across state layers),
the result ledger, and the checkpoint file + results log formats
(repro.replay.checkpoint)."""

from __future__ import annotations

import copy
import hashlib
import json
import os
import subprocess
import sys

import pytest

from repro.core import SharingCandidate, SharingPlan
from repro.events import EventStream, SlidingWindow, WindowCursor
from repro.events.windows import WindowInstance
from repro.executor import ChurnOp, StreamingEngine
from repro.executor.metrics import MetricsCollector
from repro.executor.prefix_agg import _CountColumns
from repro.executor.results import (
    _SPILL_BYTES,
    QueryResult,
    _SpillLog,
    ResultLedger,
    decode_result_lines,
    encode_result_lines,
)
from repro.queries import AggregateSpec, AggregateState, Pattern, PredicateSet, Query, Workload
from repro.replay import (
    RESULTS_LOG_NAME,
    Checkpoint,
    CheckpointError,
    ReplayRunner,
    canonical_json,
    load_checkpoint,
    save_checkpoint,
    state_hash,
    workload_fingerprint,
)

from repro.replay.checkpoint import ResultsLogWriter, upgrade_snapshot

from ..conftest import make_events
from ..reference import row_blocks


def make_workload(window=None, predicates=None):
    window = window or SlidingWindow(size=10, slide=5)
    predicates = predicates if predicates is not None else PredicateSet()
    queries = [
        Query(pattern=Pattern(["A", "B"]), window=window, predicates=predicates, name="q1"),
        Query(pattern=Pattern(["A", "B", "C"]), window=window, predicates=predicates, name="q2"),
    ]
    return Workload(queries)


def make_plan():
    return SharingPlan([SharingCandidate(Pattern(["A", "B"]), ("q1", "q2"), 1.0)])


def make_stream():
    return EventStream(
        make_events(
            [
                ("A", 1),
                ("B", 2),
                ("A", 4),
                ("C", 4),
                ("B", 6),
                ("A", 8),
                ("C", 9),
                ("B", 11),
                ("C", 12),
                ("A", 14),
                ("B", 16),
                ("C", 17),
            ]
        ),
        name="ck",
    )


def make_sum_workload():
    """``make_workload`` with q2 summing B's float ``value`` (boxed state columns)."""
    window = SlidingWindow(size=10, slide=5)
    queries = [
        Query(pattern=Pattern(["A", "B"]), window=window, name="q1"),
        Query(
            pattern=Pattern(["A", "B", "C"]),
            window=window,
            aggregate=AggregateSpec.sum("B", "value"),
            name="q2",
        ),
    ]
    return Workload(queries)


def make_valued_stream():
    """``make_stream``'s events with float values: negatives and a zero."""
    values = [1.5, -2.25, 0.0, 7.0, 3.5, -0.5, 2.0, 4.75, 1.0, 6.5, -1.0, 0.25]
    rows = [(e.event_type, e.timestamp, {"value": v}) for e, v in zip(make_stream(), values)]
    return EventStream(make_events(rows), name="ck-valued")


class TestAggregateStateSnapshot:
    def test_round_trip(self):
        state = AggregateState(count=3, target_count=2, total=7.5, minimum=1.0, maximum=4.0)
        assert AggregateState.from_tuple(state.as_tuple()) == state

    def test_zero_restores_the_singleton(self):
        zero = AggregateState.zero()
        assert AggregateState.from_tuple(zero.as_tuple()) is zero


class TestCountColumnsSnapshot:
    def test_round_trip_compact(self):
        columns = _CountColumns(3)
        columns.append_cohort(AggregateState(count=1))
        columns.append_cohort(AggregateState(count=5))
        dump = columns.export_columns()
        restored = _CountColumns(3)
        restored.restore_columns(dump)
        assert restored.export_columns() == dump

    def test_round_trip_preserves_bigint_promotion(self):
        """Counts past 2**63-1 must survive export/restore exactly."""
        columns = _CountColumns(2)
        columns.append_cohort(AggregateState(count=2**63 - 1 + 12345))
        dump = columns.export_columns()
        assert dump[0][0] == 2**63 - 1 + 12345
        restored = _CountColumns(2)
        restored.restore_columns(dump)
        assert isinstance(restored.columns[0], list)  # promoted storage restored
        assert restored.columns[0][0] == 2**63 - 1 + 12345
        assert restored.export_columns() == dump


class TestWindowCursorSnapshot:
    def test_round_trip_mid_stream(self):
        window = SlidingWindow(size=10, slide=5)
        cursor = WindowCursor(window)
        live = list(cursor.advance(12))
        resumed = WindowCursor(window)
        resumed.restore_state(cursor.export_state())
        assert resumed.export_state() == cursor.export_state()
        assert list(resumed.advance(12)) == live
        # Advancing both past the restore point stays in lockstep.
        assert list(resumed.advance(17)) == list(cursor.advance(17))

    def test_fresh_cursor_round_trips(self):
        window = SlidingWindow(size=10, slide=5)
        cursor = WindowCursor(window)
        resumed = WindowCursor(window)
        resumed.restore_state(cursor.export_state())
        assert resumed.export_state() == cursor.export_state()


class TestMetricsSnapshot:
    def test_counters_round_trip(self):
        collector = MetricsCollector("m")
        collector.total_events = 10
        collector.relevant_events = 7
        collector.results_emitted = 3
        counters = collector.export_counters()
        restored = MetricsCollector("m")
        restored.restore_counters(counters)
        assert restored.export_counters() == counters

    def test_counters_exclude_environment_observations(self):
        counters = MetricsCollector("m").export_counters()
        assert "elapsed" not in canonical_json(counters)
        assert "memory" not in canonical_json(counters)


class TestSegmentStateGuards:
    def test_private_segment_refuses_mid_batch_export(self):
        from repro.executor.prefix_agg import PrivateSegmentState

        state = PrivateSegmentState(Pattern(["A", "B"]), AggregateSpec.count_star())
        state._staged = [None, None]  # simulate a staged (uncommitted) batch
        with pytest.raises(RuntimeError, match="between batches"):
            state.export_state()


@pytest.mark.parametrize("damage", ["carry", "column cell"])
def test_restore_names_a_shared_pattern_whose_cohort_counts_disagree(damage):
    """Columns and runner carries index one cohort list: a snapshot short of one is refused."""
    window = SlidingWindow(size=10, slide=5)
    workload = Workload(
        [
            Query(pattern=Pattern(["A", "B", "C"]), window=window, name="q1"),
            Query(pattern=Pattern(["D", "B", "C"]), window=window, name="q2"),
        ]
    )
    plan = SharingPlan([SharingCandidate(Pattern(["B", "C"]), ("q1", "q2"), 1.0)])
    rows = [("A", 1), ("D", 1), ("B", 2), ("A", 3), ("B", 4), ("C", 5)]
    engine = StreamingEngine(workload, plan=plan, panes=False)
    session = engine.new_session()
    for timestamp, batch, groups in session.routed_batches(make_events(rows)):
        session.step(timestamp, batch, groups)
    snapshot = session.export_state()
    scope = snapshot["scopes"][0]
    assert scope["window"] == [0, 10]
    shared_runner = scope["chains"][0][1]
    assert len(shared_runner["carries"]) == 2  # q1's carry moved between the B batches
    if damage == "carry":
        shared_runner["carries"].pop()
    else:
        scope["shared"][0]["families"][0][0].pop()
    fresh = StreamingEngine(workload, plan=plan, panes=False).new_session()
    with pytest.raises(ValueError, match=r"shared pattern \(B, C\) disagrees on its cohort count"):
        fresh.restore_state(snapshot, encode_result_lines(session.results))


#: COUNT(*) only (count columns), or COUNT(*) next to a float SUM (state columns).
SNAPSHOT_SCENARIOS = {
    "count": (make_workload, make_stream),
    "count+sum": (make_sum_workload, make_valued_stream),
}


@pytest.mark.parametrize("panes", [False, True], ids=["instances", "panes"])
@pytest.mark.parametrize("scenario", list(SNAPSHOT_SCENARIOS))
class TestSessionSnapshot:
    def _engine(self, panes, scenario):
        workload = SNAPSHOT_SCENARIOS[scenario][0]()
        return StreamingEngine(workload, plan=make_plan(), panes=panes)

    @staticmethod
    def _stream(scenario):
        return SNAPSHOT_SCENARIOS[scenario][1]()

    def _run_until(self, panes, scenario, events_wanted):
        """A session stepped until it consumed ``events_wanted`` events."""
        engine = self._engine(panes, scenario)
        session = engine.new_session()
        consumed = 0
        batches = session.routed_batches(iter(self._stream(scenario)))
        for timestamp, batch, groups in batches:
            session.step(timestamp, batch, groups)
            consumed += len(batch)
            if consumed >= events_wanted:
                break
        return session, consumed

    @pytest.mark.parametrize("events_wanted", [6, 9], ids=["no-results-yet", "results-emitted"])
    def test_mid_run_snapshot_resumes_to_full_run_state(self, panes, scenario, events_wanted):
        stream = self._stream(scenario)
        full_engine = self._engine(panes, scenario)
        full_session = full_engine.new_session()
        full_report = full_engine.run(stream, session=full_session)

        first, consumed = self._run_until(panes, scenario, events_wanted)
        snapshot = first.export_state()
        assert (snapshot["results"]["count"] > 0) == (events_wanted == 9)
        # The snapshot holds no results: whoever restores it passes them in.
        prior = encode_result_lines(first.results)

        resume_engine = self._engine(panes, scenario)
        resumed = resume_engine.new_session()
        resumed.restore_state(snapshot, prior)
        tail = iter(list(stream)[consumed:])
        for timestamp, batch, groups in resumed.routed_batches(tail):
            resumed.step(timestamp, batch, groups)
        resumed_report = resumed.finish()

        assert state_hash(resumed) == state_hash(full_session)
        assert encode_result_lines(resumed_report.results) == encode_result_lines(
            full_report.results
        )

    def test_snapshot_holds_a_summary_of_the_results_not_the_results(self, panes, scenario):
        engine = self._engine(panes, scenario)
        session = engine.new_session()
        report = engine.run(self._stream(scenario), session=session)
        lines = encode_result_lines(report.results)
        assert len(report.results) > 0
        assert session.export_state()["results"] == {
            "count": len(report.results),
            "digest": hashlib.sha256(lines).hexdigest(),
        }

    def test_restore_refuses_results_that_do_not_match_the_summary(self, panes, scenario):
        first, _ = self._run_until(panes, scenario, 9)
        snapshot = first.export_state()
        results = list(first.results)
        assert len(results) >= 2
        for wrong in (b"", encode_result_lines(results[:-1]), encode_result_lines(results[::-1])):
            fresh = self._engine(panes, scenario).new_session()
            with pytest.raises(ValueError, match="emitted results"):
                fresh.restore_state(snapshot, wrong)

    def test_snapshot_is_json_safe_and_mode_tagged(self, panes, scenario):
        engine = self._engine(panes, scenario)
        session = engine.new_session()
        engine.run(self._stream(scenario), session=session)
        snapshot = session.export_state()
        assert snapshot["mode"] == ("panes" if panes else "instances")
        canonical_json(snapshot)  # raises if anything non-JSON leaked in

    def test_restore_rejects_wrong_mode(self, panes, scenario):
        engine = self._engine(panes, scenario)
        session = engine.new_session()
        engine.run(self._stream(scenario), session=session)
        snapshot = session.export_state()
        other = self._engine(not panes, scenario).new_session()
        with pytest.raises(ValueError, match="mode"):
            other.restore_state(snapshot)


def sample_results():
    """Results with every value and group shape a line must carry."""
    from repro.events import WindowInstance

    first, second = WindowInstance(0, 10), WindowInstance(5, 15)
    return [
        QueryResult("q1", first, (), 3),
        QueryResult("q2", first, (), 2.5),
        QueryResult('q"3\\', first, ("a", 1), None),
        QueryResult("q1", second, ("é", None, 1.5), 2**70),
        QueryResult("q2", second, ("é", None, 1.5), -1),
        QueryResult("q2", second, (True,), 0.1 + 0.2),
    ]


class TestResultLines:
    def test_lines_are_compact_json_one_per_result(self):
        results = sample_results()
        expected = b"".join(
            json.dumps(
                [r.query_name, [r.window.start, r.window.end], list(r.group), r.value],
                separators=(",", ":"),
                allow_nan=False,
            ).encode("utf-8")
            + b"\n"
            for r in results
        )
        assert encode_result_lines(results) == expected
        assert encode_result_lines([]) == b""

    def test_decode_inverts_encode(self):
        results = sample_results()
        assert decode_result_lines(encode_result_lines(results)) == results
        assert decode_result_lines(b"") == []

    def test_non_finite_values_are_refused(self):
        from repro.events import WindowInstance

        with pytest.raises(ValueError):
            encode_result_lines([QueryResult("q", WindowInstance(0, 1), (), float("nan"))])

    @pytest.mark.parametrize("panes", [True, False], ids=["panes", "instances"])
    def test_a_non_finite_result_stops_the_run_naming_query_window_group_and_value(self, panes):
        from repro.events import Event

        window = SlidingWindow(size=10, slide=5)
        spend = AggregateSpec.sum("B", "value")
        same = PredicateSet.same("vehicle")
        query = Query(Pattern(["A", "B"]), window, spend, same, name="spend")
        events = [
            Event("A", 1, {"vehicle": "v1", "value": 1.0}, 0),
            Event("B", 2, {"vehicle": "v1", "value": float("nan")}, 1),
            Event("A", 30, {"vehicle": "v1", "value": 1.0}, 2),  # closes [0, 10) mid-run
        ]
        engine = StreamingEngine(Workload([query]), panes=panes)
        with pytest.raises(
            ValueError, match=r"query 'spend' .* result nan for window \[0,10\), group \('v1',\)"
        ):
            engine.run(events)


def many_results(rows: int) -> list[QueryResult]:
    """``rows`` distinct results of about 40 bytes a line."""
    return [
        QueryResult(f"q{row % 3}", WindowInstance(row, row + 10), (f"g{row % 17}",), row * 7)
        for row in range(rows)
    ]


class RecordingLog:
    """The two calls a ledger makes on its results log, kept in memory."""

    def __init__(self, body=b""):
        self.blocks = [body] if body else []

    def append(self, lines):
        self.blocks.append(lines)

    def body(self):
        return b"".join(self.blocks)


class TestResultLedger:
    def test_digest_does_not_depend_on_when_it_is_read(self):
        results = sample_results()
        lines = encode_result_lines(results)
        expected = {"count": len(results), "digest": hashlib.sha256(lines).hexdigest()}

        at_the_end = ResultLedger()
        at_the_end.pending.extend(row_blocks(results))
        assert at_the_end.summary() == expected

        every_time = ResultLedger()
        log = RecordingLog()
        every_time.attach_log(log)
        assert every_time.summary() == {"count": 0, "digest": hashlib.sha256().hexdigest()}
        for result in results:
            every_time.pending.extend(row_blocks([result]))
            every_time.summary()
        assert every_time.summary() == expected
        # The log received exactly the digested bytes, in as many blocks as reads.
        assert len(log.blocks) == len(results) and log.body() == lines

    def test_results_are_complete_without_summarising(self):
        results = sample_results()
        ledger = ResultLedger()
        ledger.pending.extend(row_blocks(results[:2]))
        assert list(ledger.results) == results[:2]
        ledger.pending.extend(row_blocks(results[2:]))
        assert list(ledger.results) == results
        assert ledger.summary()["count"] == len(results)
        assert list(ledger.results) == results and not ledger.pending

    def test_plain_rows_come_back_as_query_results(self):
        ledger = ResultLedger()
        ledger.pending.extend(row_blocks(tuple(result) for result in sample_results()))
        read = list(ledger.results)
        assert read == sample_results()
        assert all(type(result) is QueryResult for result in read)
        assert read[3].key == ("q1", read[3].window, ("é", None, 1.5))

    def test_a_results_log_is_the_only_copy_of_summarised_rows(self):
        results = sample_results()
        ledger = ResultLedger()
        spill, log = ledger.log, RecordingLog()
        ledger.attach_log(log)
        assert ledger.log is log and spill.file.closed  # the spill file it replaced is gone
        ledger.pending.extend(row_blocks(results[:4]))
        ledger.summary()
        assert not ledger.pending and log.body() == encode_result_lines(results[:4])
        ledger.pending.extend(row_blocks(results[4:]))
        # Summarised lines are read back from the log, pending blocks encoded on read.
        assert list(ledger.results) == results
        ledger.summary()
        assert not ledger.pending and log.body() == encode_result_lines(results)
        assert list(ledger.results) == results

    def test_a_log_cannot_be_attached_after_a_summary_kept_rows(self):
        ledger = ResultLedger()
        ledger.pending.extend(row_blocks(sample_results()))
        ledger.summary()
        with pytest.raises(ValueError, match="spill file before the results log"):
            ledger.attach_log(RecordingLog())

    def test_restore_continues_the_digest(self):
        results = sample_results()
        head = ResultLedger()
        head.pending.extend(row_blocks(results[:4]))
        recorded = head.summary()

        resumed = ResultLedger()
        resumed.restore(recorded, encode_result_lines(results[:4]))
        resumed.pending.extend(row_blocks(results[4:]))
        whole = ResultLedger()
        whole.pending.extend(row_blocks(results))
        assert resumed.summary() == whole.summary()
        assert list(resumed.results) == results

    def test_restore_counts_and_hashes_bytes_without_decoding(self, monkeypatch):
        from repro.executor import results as results_module

        decoded = []
        real_decode = results_module.decode_result_lines

        def counting_decode(lines):
            decoded.append(len(lines))
            return real_decode(lines)

        monkeypatch.setattr(results_module, "decode_result_lines", counting_decode)
        results = sample_results()
        head = ResultLedger()
        head.pending.extend(row_blocks(results[:4]))
        recorded = head.summary()
        prefix = encode_result_lines(results[:4])

        resumed = ResultLedger()
        tail = row_blocks(results[4:])
        resumed.pending.extend(tail)
        for wrong in (b"", prefix[:-1] + b" \n", encode_result_lines(results[:3])):
            with pytest.raises(ValueError, match="snapshot records 4 emitted results"):
                resumed.restore(recorded, wrong)
        # A refused restore decoded nothing and left the ledger as it was.
        assert not decoded and resumed.pending == tail

        resumed.restore(recorded, prefix)
        resumed.pending.extend(row_blocks(results[4:]))
        assert resumed.summary()["count"] == len(results) and not decoded
        # Read once, the restored prefix and the lines written since decode together.
        assert list(resumed.results) == results
        assert decoded == [len(encode_result_lines(results))]

    def test_restore_then_attach_reads_the_prefix_from_the_log(self):
        results = sample_results()
        prefix = encode_result_lines(results[:4])
        head = ResultLedger()
        head.pending.extend(row_blocks(results[:4]))
        resumed = ResultLedger()
        resumed.restore(head.summary(), prefix)
        spill = resumed.log
        assert spill.body() == prefix  # the restored prefix is all the spill log holds
        resumed.attach_log(RecordingLog(prefix))
        assert spill.file.closed  # the log has them
        resumed.pending.extend(row_blocks(results[4:]))
        resumed.summary()
        assert list(resumed.results) == results

    @pytest.mark.parametrize("rows", [40, 4000], ids=["in-memory", "spilled"])
    def test_lines_read_back_byte_identical_on_either_side_of_the_spill(self, rows):
        results = many_results(rows)
        lines = encode_result_lines(results)
        assert (len(lines) > _SPILL_BYTES) == (rows > 40)
        ledger = ResultLedger()
        for start in range(0, rows, 7):  # a flush per batch, as a driven session does
            ledger.pending.extend(row_blocks(results[start : start + 7]))
            ledger.flush()
        # Past the threshold the lines live in the (unlinked) file, not in memory.
        assert ledger.log.file._rolled == (rows > 40)
        assert ledger.summary() == {"count": rows, "digest": hashlib.sha256(lines).hexdigest()}
        assert ledger.log.body() == lines
        assert list(ledger.results) == results
        ledger.pending.extend(row_blocks(results[:1]))  # appends continue after a read
        ledger.flush()
        assert ledger.log.body() == lines + encode_result_lines(results[:1])

    @pytest.mark.parametrize("rows", [40, 4000], ids=["in-memory", "spilled"])
    def test_a_restored_ledger_without_a_log_reads_prefix_plus_new_lines(self, rows):
        results = many_results(rows)
        prefix = encode_result_lines(results[: rows // 2])
        head = ResultLedger()
        head.pending.extend(row_blocks(results[: rows // 2]))
        resumed = ResultLedger()
        resumed.restore(head.summary(), prefix)
        resumed.pending.extend(row_blocks(results[rows // 2 :]))
        resumed.flush()
        assert resumed.log.body() == encode_result_lines(results)
        assert list(resumed.results) == results
        whole = ResultLedger()
        whole.pending.extend(row_blocks(results))
        assert resumed.summary() == whole.summary()

    def test_an_unread_dropped_report_closes_its_spill_file(self):
        """No ``ResourceWarning``: the file closes when the report's ledger is collected."""
        code = (
            "import gc\n"
            "from repro.events import Event, SlidingWindow\n"
            "from repro.executor import StreamingEngine\n"
            "from repro.queries import AggregateSpec, Pattern, PredicateSet, Query, Workload\n"
            "window = SlidingWindow(size=8, slide=4)\n"
            "workload = Workload([Query(Pattern(['A', 'B']), window, AggregateSpec.count_star(),\n"
            "                     PredicateSet.same('entity'), name=f'q{i}') for i in range(4)])\n"
            "events = [Event('AB'[(t + e) % 2], t, {'entity': e}, t * 8 + e)\n"
            "          for t in range(800) for e in range(8)]\n"
            "report = StreamingEngine(workload).run(events)\n"
            "spill = report._results.log\n"
            "assert spill.file._rolled, 'the output stayed below the spill threshold'\n"
            "del report\n"
            "gc.collect()\n"
            "assert spill.file.closed\n"
        )
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
        done = subprocess.run(
            [sys.executable, "-W", "error::ResourceWarning", "-c", code],
            env=env,
            capture_output=True,
            text=True,
        )
        assert done.returncode == 0, done.stderr
        assert done.stderr == ""


class TestWorkloadFingerprint:
    def test_stable_for_equal_workloads(self):
        assert workload_fingerprint(make_workload(), make_plan()) == workload_fingerprint(
            make_workload(), make_plan()
        )

    def test_sensitive_to_window(self):
        assert workload_fingerprint(make_workload()) != workload_fingerprint(
            make_workload(window=SlidingWindow(size=20, slide=5))
        )

    def test_sensitive_to_plan(self):
        assert workload_fingerprint(make_workload(), make_plan()) != workload_fingerprint(
            make_workload(), SharingPlan()
        )

    def test_sensitive_to_predicates(self):
        assert workload_fingerprint(make_workload()) != workload_fingerprint(
            make_workload(predicates=PredicateSet.same("vehicle"))
        )


class TestCheckpointFile:
    def _checkpoint(self):
        return Checkpoint(
            events_consumed=6,
            last_timestamp=8,
            workload_fingerprint=workload_fingerprint(make_workload(), make_plan()),
            engine_config={"mode": "instances", "max_lateness": None, "late_policy": "raise"},
            engine_state={
                "mode": "instances",
                "results": ResultLedger().summary(),
                "metrics": MetricsCollector("ck").export_counters(),
            },
        )

    def test_save_load_round_trip(self, tmp_path):
        path = tmp_path / "ck.json"
        save_checkpoint(self._checkpoint(), path)
        loaded = load_checkpoint(path)
        assert loaded == self._checkpoint()
        assert loaded.version == 2

    def test_load_remembers_the_directory_without_serialising_it(self, tmp_path):
        assert self._checkpoint().directory is None
        path = save_checkpoint(self._checkpoint(), tmp_path / "ck.json")
        assert load_checkpoint(path).directory == tmp_path
        assert "directory" not in json.loads(path.read_text(encoding="utf-8"))

    def test_version_1_file_loads_and_its_inline_list_is_the_prefix(self, tmp_path):
        rows = [["q1", [0, 10], [], 3], ["q2", [0, 10], ["g"], 1.5]]
        payload = self._checkpoint().as_payload()
        payload["version"] = 1
        del payload["results_offset"]
        payload["engine_state"]["results"] = rows
        path = tmp_path / "v1.json"
        path.write_text(json.dumps(payload), encoding="utf-8")
        loaded = load_checkpoint(path)
        assert loaded.version == 1 and loaded.results_offset == 0
        body = loaded.results_body()
        assert [json.loads(line) for line in body.splitlines()] == rows

    def test_interrupted_save_keeps_the_previous_checkpoint(self, tmp_path, monkeypatch):
        """A write that dies part-way never tears the file at ``path``."""
        path = tmp_path / "ck.json"
        save_checkpoint(self._checkpoint(), path)
        newer = self._checkpoint()
        newer.events_consumed = 12
        self._die_mid_write(monkeypatch, path)
        with pytest.raises(KeyboardInterrupt):
            save_checkpoint(newer, path)
        monkeypatch.undo()
        assert load_checkpoint(path) == self._checkpoint()
        assert sorted(p.name for p in tmp_path.iterdir()) == ["ck.json", "ck.json.tmp"]
        # The next save replaces both the checkpoint and the stray temporary.
        save_checkpoint(newer, path)
        assert load_checkpoint(path) == newer
        assert [p.name for p in tmp_path.iterdir()] == ["ck.json"]

    @staticmethod
    def _die_mid_write(monkeypatch, path):
        """Make the next ``write_bytes`` on a path write half its data and die."""
        real_write_bytes = type(path).write_bytes

        def dying_write_bytes(self, data):
            real_write_bytes(self, data[: len(data) // 2])
            raise KeyboardInterrupt

        monkeypatch.setattr(type(path), "write_bytes", dying_write_bytes)

    def test_interrupted_results_log_start_keeps_the_previous_log(self, tmp_path, monkeypatch):
        """The results log starts through the same write-then-rename helper."""
        path = tmp_path / RESULTS_LOG_NAME
        lines = encode_result_lines(sample_results())
        ResultsLogWriter(path, lines).close()
        before = path.read_bytes()
        self._die_mid_write(monkeypatch, path)
        with pytest.raises(KeyboardInterrupt):
            ResultsLogWriter(path)
        monkeypatch.undo()
        assert path.read_bytes() == before
        writer = ResultsLogWriter(path, lines[:10])
        assert [p.name for p in tmp_path.iterdir()] == [RESULTS_LOG_NAME]
        writer.append(lines[10:])
        writer.close()
        assert writer.body() == lines and writer.offset == len(before)

    def test_load_rejects_foreign_file(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"format": "something-else"}\n', encoding="utf-8")
        with pytest.raises(CheckpointError, match="repro-checkpoint"):
            load_checkpoint(path)

    def test_load_rejects_version_skew(self, tmp_path):
        path = tmp_path / "future.json"
        payload = self._checkpoint().as_payload()
        payload["version"] = 99
        path.write_text(json.dumps(payload), encoding="utf-8")
        with pytest.raises(CheckpointError, match="version"):
            load_checkpoint(path)

    def test_load_rejects_garbage(self, tmp_path):
        path = tmp_path / "garbage.json"
        path.write_text("not json", encoding="utf-8")
        with pytest.raises(CheckpointError, match="JSON"):
            load_checkpoint(path)

    def test_validate_rejects_fingerprint_mismatch(self):
        checkpoint = self._checkpoint()
        other = workload_fingerprint(make_workload(window=SlidingWindow(20, 10)))
        with pytest.raises(CheckpointError, match="different workload"):
            checkpoint.validate_against(other, checkpoint.engine_config)

    def test_validate_rejects_config_mismatch(self):
        checkpoint = self._checkpoint()
        with pytest.raises(CheckpointError, match="config"):
            checkpoint.validate_against(
                checkpoint.workload_fingerprint,
                {"mode": "panes", "max_lateness": None, "late_policy": "raise"},
            )


@pytest.mark.parametrize("panes", [False, True], ids=["instances", "panes"])
def test_upgrade_snapshot_is_the_identity_on_a_fresh_export(panes, tmp_path):
    """Today's files need no upgrade: plain, churned (generation-tagged) and reordered runs."""
    late = Query(Pattern(["B", "C"]), SlidingWindow(size=10, slide=5), name="late")
    runner = ReplayRunner(
        make_workload(),
        plan=make_plan(),
        panes=panes,
        max_lateness=2,
        churn=[ChurnOp("attach", 7, query=late), ChurnOp("detach", 13, query_name="q1")],
    )
    report = runner.run(make_stream(), checkpoint_every=1, checkpoint_dir=tmp_path)
    assert runner.engine_config["mode"] == ("panes" if panes else "instances")
    payloads = [json.loads(path.read_text(encoding="utf-8")) for path in report.checkpoints]
    assert any("churn" in payload["engine_state"] for payload in payloads)
    for payload in payloads:
        assert upgrade_snapshot(copy.deepcopy(payload)) == payload


class TestResultsLog:
    """The checkpoint <-> results.jsonl contract, one fault at a time."""

    def _checkpointed(self, tmp_path):
        """A checkpoint (with results before it) of a real run, and its directory."""
        directory = tmp_path / "cks"
        report = ReplayRunner(make_workload(), plan=make_plan()).run(
            make_stream(), checkpoint_every=1, checkpoint_dir=directory
        )
        checkpoint = load_checkpoint(report.checkpoints[-1])
        assert checkpoint.engine_state["results"]["count"] > 0
        return checkpoint, directory / RESULTS_LOG_NAME, report

    def _resume(self, checkpoint):
        return ReplayRunner(make_workload(), plan=make_plan()).run(
            make_stream(), resume_from=checkpoint
        )

    def test_log_is_header_plus_the_canonical_lines_of_every_result(self, tmp_path):
        _, log_path, report = self._checkpointed(tmp_path)
        header, _, body = log_path.read_bytes().partition(b"\n")
        assert json.loads(header) == {"format": "repro-results-log", "version": 1}
        assert body == encode_result_lines(report.results)

    def test_offset_counts_exactly_the_summarised_lines(self, tmp_path):
        checkpoint, log_path, _ = self._checkpointed(tmp_path)
        prefix = log_path.read_bytes()[: checkpoint.results_offset]
        body = prefix.partition(b"\n")[2]
        assert checkpoint.results_body() == body
        assert checkpoint.engine_state["results"] == {
            "count": body.count(b"\n"),
            "digest": hashlib.sha256(body).hexdigest(),
        }

    def test_longer_log_resumes_as_if_cut_at_the_offset(self, tmp_path):
        """A kill between the log append and the checkpoint rename leaves this."""
        checkpoint, log_path, report = self._checkpointed(tmp_path)
        assert log_path.stat().st_size > checkpoint.results_offset
        with log_path.open("ab") as handle:
            handle.write(b'["torn",[0,')
        resumed = self._resume(checkpoint)
        assert resumed.state_hash == report.state_hash
        assert encode_result_lines(resumed.results) == encode_result_lines(report.results)

    def test_shorter_log_is_refused(self, tmp_path):
        checkpoint, log_path, _ = self._checkpointed(tmp_path)
        log_path.write_bytes(log_path.read_bytes()[: checkpoint.results_offset - 1])
        with pytest.raises(CheckpointError, match="shorter than"):
            self._resume(checkpoint)

    def test_wrong_bytes_are_refused(self, tmp_path):
        checkpoint, log_path, _ = self._checkpointed(tmp_path)
        data = bytearray(log_path.read_bytes())
        position = checkpoint.results_offset - 3
        data[position : position + 1] = b"7" if data[position : position + 1] != b"7" else b"8"
        log_path.write_bytes(bytes(data))
        with pytest.raises(CheckpointError, match="this checkpoint recorded"):
            self._resume(checkpoint)

    def test_a_checkpointing_resume_writes_its_prefix_into_the_results_log_only(self, tmp_path, monkeypatch):
        directory = tmp_path / "cks"
        full = ReplayRunner(make_workload(), plan=make_plan()).run(
            make_stream(), checkpoint_every=1, checkpoint_dir=directory
        )
        checkpoint = load_checkpoint(full.checkpoints[-2])
        assert 0 < checkpoint.engine_state["results"]["count"] < full.metrics.results_emitted
        spills = []

        def spy(spill, body=b""):
            spills.append((spill, body))
            spill_init(spill, body)

        spill_init = _SpillLog.__init__
        monkeypatch.setattr(_SpillLog, "__init__", spy)
        resumed = ReplayRunner(make_workload(), plan=make_plan()).run(
            make_stream(), resume_from=checkpoint, checkpoint_every=1, checkpoint_dir=tmp_path / "again"
        )
        # Only the new ledger's empty spill log, closed unwritten when the
        # results log replaced it: the restored prefix went nowhere else.
        ((spill, body),) = spills
        assert body == b"" and not spill.appended and spill.file.closed
        assert resumed.state_hash == full.state_hash
        again = (tmp_path / "again" / RESULTS_LOG_NAME).read_bytes()
        assert again == (directory / RESULTS_LOG_NAME).read_bytes()

    def test_missing_log_is_refused(self, tmp_path):
        checkpoint, log_path, _ = self._checkpointed(tmp_path)
        log_path.unlink()
        with pytest.raises(CheckpointError, match="missing"):
            self._resume(checkpoint)

    def test_foreign_file_is_refused(self, tmp_path):
        checkpoint, log_path, _ = self._checkpointed(tmp_path)
        log_path.write_bytes(b"x" * log_path.stat().st_size)
        with pytest.raises(CheckpointError, match="repro-results-log"):
            self._resume(checkpoint)

    def test_hand_built_checkpoint_with_results_needs_a_directory(self, tmp_path):
        checkpoint, _, _ = self._checkpointed(tmp_path)
        checkpoint.directory = None
        with pytest.raises(CheckpointError, match="no directory"):
            self._resume(checkpoint)

    def test_state_without_a_results_summary_is_refused(self, tmp_path):
        checkpoint, _, _ = self._checkpointed(tmp_path)
        del checkpoint.engine_state["results"]
        with pytest.raises(CheckpointError, match="no results summary"):
            self._resume(checkpoint)

    def test_writer_restarts_the_log_at_exactly_the_given_lines(self, tmp_path):
        path = tmp_path / RESULTS_LOG_NAME
        path.write_bytes(b"left over from an earlier run\n")
        lines = encode_result_lines(sample_results())
        writer = ResultsLogWriter(path, lines[:40])
        assert writer.offset == path.stat().st_size
        writer.append(lines[40:])
        writer.close()
        assert writer.offset == path.stat().st_size
        assert path.read_bytes().partition(b"\n")[2] == lines
        assert [p.name for p in tmp_path.iterdir()] == [RESULTS_LOG_NAME]

    def test_no_checkpoints_no_directory_no_log(self, tmp_path):
        directory = tmp_path / "never"
        ReplayRunner(make_workload(), plan=make_plan()).run(
            make_stream(), checkpoint_dir=directory
        )
        assert not directory.exists()
