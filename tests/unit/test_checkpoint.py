"""Unit tests for engine checkpointing (export/restore across state layers)
and the checkpoint file format (repro.replay.checkpoint)."""

from __future__ import annotations

import pytest

from repro.core import SharingCandidate, SharingPlan
from repro.events import EventStream, SlidingWindow, WindowCursor
from repro.executor import StreamingEngine
from repro.executor.kernels import numpy_available
from repro.executor.metrics import MetricsCollector
from repro.executor.prefix_agg import _I64_MAX, _CountColumns
from repro.queries import AggregateSpec, AggregateState, Pattern, PredicateSet, Query, Workload
from repro.replay import (
    Checkpoint,
    CheckpointError,
    canonical_json,
    load_checkpoint,
    save_checkpoint,
    state_hash,
    workload_fingerprint,
)

from ..conftest import make_events


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
        assert not isinstance(restored.columns[0], list)  # stayed array('q')

    def test_round_trip_preserves_bigint_promotion(self):
        """Counts past 2**63-1 must survive export/restore exactly."""
        columns = _CountColumns(2)
        columns.append_cohort(AggregateState(count=_I64_MAX + 12345))
        dump = columns.export_columns()
        assert dump[0][0] == _I64_MAX + 12345
        restored = _CountColumns(2)
        restored.restore_columns(dump)
        assert isinstance(restored.columns[0], list)  # promoted storage restored
        assert restored.columns[0][0] == _I64_MAX + 12345
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


@pytest.mark.parametrize("panes", [False, True], ids=["instances", "panes"])
@pytest.mark.parametrize("columnar", [False, True], ids=["scalar", "columnar"])
class TestSessionSnapshot:
    def _engine(self, panes, columnar):
        return StreamingEngine(
            make_workload(), plan=make_plan(), panes=panes, columnar=columnar
        )

    def test_mid_run_snapshot_resumes_to_full_run_state(self, panes, columnar):
        stream = make_stream()
        full_engine = self._engine(panes, columnar)
        full_session = full_engine.new_session()
        full_report = full_engine.run(stream, session=full_session)

        split_engine = self._engine(panes, columnar)
        first = split_engine.new_session()
        consumed = 0
        snapshot = None
        for timestamp, batch, groups in split_engine.routed_batches(iter(stream), first.collector):
            first.step(timestamp, groups)
            consumed += len(batch)
            if snapshot is None and consumed >= len(stream) // 2:
                snapshot = first.export_state()
                break

        resume_engine = self._engine(panes, columnar)
        resumed = resume_engine.new_session()
        resumed.restore_state(snapshot)
        tail = iter(list(stream)[consumed:])
        for timestamp, batch, groups in resume_engine.routed_batches(tail, resumed.collector):
            resumed.step(timestamp, groups)
        resumed_report = resumed.finish()

        assert state_hash(resumed) == state_hash(full_session)
        assert full_report.results.matches(resumed_report.results)

    def test_snapshot_is_json_safe_and_mode_tagged(self, panes, columnar):
        engine = self._engine(panes, columnar)
        session = engine.new_session()
        engine.run(make_stream(), session=session)
        snapshot = session.export_state()
        assert snapshot["mode"] == ("panes" if panes else "instances")
        canonical_json(snapshot)  # raises if anything non-JSON leaked in

    def test_restore_rejects_wrong_mode(self, panes, columnar):
        engine = self._engine(panes, columnar)
        session = engine.new_session()
        engine.run(make_stream(), session=session)
        snapshot = session.export_state()
        other = self._engine(not panes, columnar).new_session()
        with pytest.raises(ValueError, match="mode"):
            other.restore_state(snapshot)


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
            engine_config={"mode": "instances", "columnar": True, "compaction": True},
            engine_state={"mode": "instances", "results": []},
        )

    def test_save_load_round_trip(self, tmp_path):
        path = tmp_path / "ck.json"
        save_checkpoint(self._checkpoint(), path)
        loaded = load_checkpoint(path)
        assert loaded == self._checkpoint()

    def test_interrupted_save_keeps_the_previous_checkpoint(self, tmp_path, monkeypatch):
        """A write that dies part-way never tears the file at ``path``."""
        path = tmp_path / "ck.json"
        save_checkpoint(self._checkpoint(), path)
        newer = self._checkpoint()
        newer.events_consumed = 12
        real_write_text = type(path).write_text

        def dying_write_text(self, data, *args, **kwargs):
            real_write_text(self, data[: len(data) // 2], *args, **kwargs)
            raise KeyboardInterrupt

        monkeypatch.setattr(type(path), "write_text", dying_write_text)
        with pytest.raises(KeyboardInterrupt):
            save_checkpoint(newer, path)
        monkeypatch.undo()
        assert load_checkpoint(path) == self._checkpoint()
        assert sorted(p.name for p in tmp_path.iterdir()) == ["ck.json", "ck.json.tmp"]
        # The next save replaces both the checkpoint and the stray temporary.
        save_checkpoint(newer, path)
        assert load_checkpoint(path) == newer
        assert [p.name for p in tmp_path.iterdir()] == ["ck.json"]

    def test_load_rejects_foreign_file(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"format": "something-else"}\n', encoding="utf-8")
        with pytest.raises(CheckpointError, match="repro-checkpoint"):
            load_checkpoint(path)

    def test_load_rejects_version_skew(self, tmp_path):
        path = tmp_path / "future.json"
        payload = self._checkpoint().as_payload()
        payload["version"] = 99
        import json

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
                {"mode": "panes", "columnar": True, "compaction": True},
            )


@pytest.mark.skipif(
    not numpy_available(), reason="the optional numpy dependency is not installed"
)
@pytest.mark.parametrize("panes", [False, True], ids=["instances", "panes"])
@pytest.mark.parametrize("columnar", [False, True], ids=["scalar", "columnar"])
class TestCrossBackendSnapshots:
    """Checkpoints are backend-agnostic: byte-identical and cross-restorable.

    The kernel backends export canonical state (plain ints/floats/None), so a
    snapshot taken under either backend must serialise to the same bytes and
    restore into an engine running the *other* backend without changing the
    final state hash — the contract that keeps ``backend`` out of the
    checkpoint's ``engine_config``.
    """

    def _workload(self):
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

    def _stream(self):
        rows = [
            ("A", 1, {"value": 1.5}),
            ("B", 2, {"value": -2.25}),
            ("A", 4, {"value": 0.0}),
            ("C", 4, {"value": 7.0}),
            ("B", 6, {"value": 3.5}),
            ("A", 8, {"value": -0.5}),
            ("C", 9, {"value": 2.0}),
            ("B", 11, {"value": 4.75}),
            ("C", 12, {"value": 1.0}),
            ("A", 14, {"value": 6.5}),
            ("B", 16, {"value": -1.0}),
            ("C", 17, {"value": 0.25}),
        ]
        return EventStream(make_events(rows), name="ck-backend")

    def _engine(self, backend, panes, columnar):
        return StreamingEngine(
            self._workload(), plan=make_plan(), panes=panes, columnar=columnar, backend=backend
        )

    def _snapshot_at_midpoint(self, backend, panes, columnar):
        stream = self._stream()
        engine = self._engine(backend, panes, columnar)
        session = engine.new_session()
        consumed = 0
        for timestamp, batch, groups in engine.routed_batches(iter(stream), session.collector):
            session.step(timestamp, groups)
            consumed += len(batch)
            if consumed >= len(stream) // 2:
                break
        return session.export_state(), consumed

    def test_snapshots_are_byte_identical_across_backends(self, panes, columnar):
        python_snapshot, python_consumed = self._snapshot_at_midpoint("python", panes, columnar)
        numpy_snapshot, numpy_consumed = self._snapshot_at_midpoint("numpy", panes, columnar)
        assert python_consumed == numpy_consumed
        assert canonical_json(python_snapshot) == canonical_json(numpy_snapshot)

    @pytest.mark.parametrize(
        "writer,reader",
        [("python", "numpy"), ("numpy", "python")],
        ids=["python->numpy", "numpy->python"],
    )
    def test_snapshot_cross_restores_to_full_run_state(self, panes, columnar, writer, reader):
        stream = self._stream()
        full_engine = self._engine(reader, panes, columnar)
        full_session = full_engine.new_session()
        full_report = full_engine.run(stream, session=full_session)

        snapshot, consumed = self._snapshot_at_midpoint(writer, panes, columnar)
        resume_engine = self._engine(reader, panes, columnar)
        resumed = resume_engine.new_session()
        resumed.restore_state(snapshot)
        tail = iter(list(stream)[consumed:])
        for timestamp, batch, groups in resume_engine.routed_batches(tail, resumed.collector):
            resumed.step(timestamp, groups)
        resumed_report = resumed.finish()

        assert state_hash(resumed) == state_hash(full_session)
        assert full_report.results.matches(resumed_report.results)
