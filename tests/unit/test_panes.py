"""Unit tests for the pane-partitioned engine layer (repro.executor.panes)."""

from __future__ import annotations

import json

import pytest

from repro.events import Event, EventStream, SlidingWindow
from repro.executor import (
    ASeqExecutor,
    CompiledPaneWorkload,
    OracleExecutor,
    PaneCountMatrix,
    PaneScope,
    PaneStateMatrix,
    SharonExecutor,
    StreamingEngine,
    WindowPaneAccumulator,
)
from repro.executor.panes import make_pane_matrix
from repro.queries import AggregateSpec, Pattern, PredicateSet, Query, Workload
from repro.replay.trace import canonical_json


def events_at(*rows) -> list[Event]:
    """Events from (type, timestamp[, attrs]) rows."""
    events = []
    for event_id, row in enumerate(rows):
        event_type, timestamp, *rest = row
        events.append(Event(event_type, timestamp, rest[0] if rest else {}, event_id))
    return events


def apply_single(matrix, pattern: Pattern, spec: AggregateSpec, events: list[Event]) -> None:
    """Feed each timestamp's events as one batch through the matrix."""
    from repro.executor.prefix_agg import group_by_position, positions_by_type

    positions = positions_by_type(pattern)
    by_timestamp: dict[int, list[Event]] = {}
    for event in events:
        by_timestamp.setdefault(event.timestamp, []).append(event)
    for timestamp in sorted(by_timestamp):
        by_position = group_by_position(by_timestamp[timestamp], positions)
        if by_position is not None:
            matrix.apply_batch(by_position, spec)


class TestPaneCountMatrix:
    def test_counts_submatches_per_position_pair(self):
        pattern = Pattern(("A", "B", "C"))
        spec = AggregateSpec.count_star()
        matrix = PaneCountMatrix(pattern, spec)
        apply_single(matrix, pattern, spec, events_at(("A", 0), ("B", 1), ("C", 2)))
        # cells[j][i] = matches of positions i..j inside the pane.
        assert list(matrix.cells[0]) == [1]          # (A)
        assert list(matrix.cells[1]) == [1, 1]       # (A,B), (B)
        assert list(matrix.cells[2]) == [1, 1, 1]    # (A,B,C), (B,C), (C)

    def test_same_timestamp_events_never_chain(self):
        pattern = Pattern(("A", "B"))
        spec = AggregateSpec.count_star()
        matrix = PaneCountMatrix(pattern, spec)
        apply_single(matrix, pattern, spec, events_at(("A", 3), ("B", 3)))
        assert matrix.cells[1][0] == 0  # no (A,B) match within one timestamp
        assert list(matrix.cells[0]) == [1]
        assert matrix.cells[1][1] == 1

    def test_repeated_type_pattern(self):
        pattern = Pattern(("A", "A"))
        spec = AggregateSpec.count_star()
        matrix = PaneCountMatrix(pattern, spec)
        apply_single(matrix, pattern, spec, events_at(("A", 0), ("A", 1), ("A", 2)))
        assert list(matrix.cells[0]) == [3]
        assert list(matrix.cells[1]) == [3, 3]  # (0,1),(0,2),(1,2) and three singles

    def test_fold_composes_across_panes(self):
        pattern = Pattern(("A", "B"))
        spec = AggregateSpec.count_star()
        first = PaneCountMatrix(pattern, spec)
        second = PaneCountMatrix(pattern, spec)
        apply_single(first, pattern, spec, events_at(("A", 0)))
        apply_single(second, pattern, spec, events_at(("B", 5)))
        vector = first.new_vector()
        first.fold(vector)
        second.fold(vector)
        # The single cross-pane match (A@0, B@5).
        assert first.final_state(vector).count == 1

    def test_fold_with_identity_pane_is_noop(self):
        pattern = Pattern(("A", "B"))
        spec = AggregateSpec.count_star()
        matrix = PaneCountMatrix(pattern, spec)
        apply_single(matrix, pattern, spec, events_at(("A", 0), ("B", 1)))
        vector = matrix.new_vector()
        matrix.fold(vector)
        snapshot = list(vector)
        PaneCountMatrix(pattern, spec).fold(vector)  # empty pane
        assert vector == snapshot


class TestPaneStateMatrix:
    def test_sum_aggregate_across_panes(self):
        pattern = Pattern(("A", "B"))
        spec = AggregateSpec.sum("B", "value")
        first = PaneStateMatrix(pattern, spec)
        second = PaneStateMatrix(pattern, spec)
        apply_single(first, pattern, spec, events_at(("A", 0, {"value": 1}), ("B", 1, {"value": 7})))
        apply_single(second, pattern, spec, events_at(("B", 4, {"value": 5})))
        vector = first.new_vector()
        first.fold(vector)
        second.fold(vector)
        state = second.final_state(vector)
        # Matches: (A@0, B@1) and (A@0, B@4) -> SUM(B.value) = 7 + 5.
        assert state.count == 2
        assert state.total == 12.0

    def test_make_pane_matrix_picks_count_fast_path(self):
        pattern = Pattern(("A", "B"))
        assert isinstance(make_pane_matrix(pattern, AggregateSpec.count_star()), PaneCountMatrix)
        assert isinstance(
            make_pane_matrix(pattern, AggregateSpec.min("A", "value")), PaneStateMatrix
        )


class TestCompiledPaneWorkload:
    def test_queries_with_equal_pattern_and_spec_share_one_matrix(self):
        window = SlidingWindow(size=8, slide=2)
        workload = Workload(
            [
                Query(Pattern(("A", "B")), window, name="k1"),
                Query(Pattern(("A", "B")), window, name="k2"),
                Query(Pattern(("A", "C")), window, name="k3"),
            ]
        )
        compiled = CompiledPaneWorkload(workload)
        assert compiled.query_matrices == (("k1", 0), ("k2", 0), ("k3", 1))
        assert [pattern.event_types for pattern, _spec in compiled.matrix_infos] == [
            ("A", "B"),
            ("A", "C"),
        ]

        scope = PaneScope(compiled, pane_index=0, group=())
        scope.process_batch(events_at(("A", 0)))
        scope.process_batch(events_at(("B", 1), ("C", 1)))
        assert sorted(scope.matrices) == [0, 1]

        accumulator = WindowPaneAccumulator(compiled)
        assert accumulator.absorb(scope) == 2
        assert accumulator.value(0) == 1
        assert accumulator.value(1) == 1

    def test_untouched_query_finalizes_to_zero(self):
        window = SlidingWindow(size=8, slide=2)
        workload = Workload([Query(Pattern(("A", "B")), window, name="z1")])
        accumulator = WindowPaneAccumulator(CompiledPaneWorkload(workload))
        assert accumulator.value(0) == 0

    def test_batch_is_bucketed_by_type_once_and_touches_each_pattern_once(self):
        window = SlidingWindow(size=8, slide=2)
        workload = Workload(
            [
                Query(Pattern(("A", "B", "A")), window, name="r1"),
                Query(Pattern(("A", "B", "A")), window, AggregateSpec.count("A"), name="r2"),
                Query(Pattern(("C", "B")), window, name="r3"),
            ]
        )
        compiled = CompiledPaneWorkload(workload)
        by_type = compiled.patterns_by_type
        assert [indices for _positions, indices in by_type["A"]] == [(0, 1)]
        assert [indices for _positions, indices in by_type["B"]] == [(0, 1), (2,)]
        assert "D" not in by_type
        # A repeated type fills both of its positions from the one type bucket,
        # and a pattern touched through two of its types is applied once.
        scope = PaneScope(compiled, pane_index=0, group=())
        scope.process_batch(events_at(("A", 0), ("A", 0)))
        assert [list(row) for row in scope.matrices[0].cells] == [[2], [0, 0], [0, 0, 2]]
        scope.process_batch(events_at(("B", 1), ("C", 1), ("D", 1)))
        assert [list(row) for row in scope.matrices[0].cells] == [[2], [2, 1], [0, 0, 2]]
        assert [list(row) for row in scope.matrices[2].cells] == [[1], [0, 1]]

    def test_recompilation_remaps_surviving_matrices_by_value_key(self):
        window = SlidingWindow(size=8, slide=2)
        ab, ac, ad = (Query(Pattern(("A", t)), window, name=f"m{t}") for t in "BCD")
        before = CompiledPaneWorkload(Workload([ab, ac]))
        after = CompiledPaneWorkload(Workload([ad, ac]))
        assert after.remap_from(before) == {1: 1}
        scope = PaneScope(before, pane_index=0, group=())
        scope.process_batch(events_at(("A", 0)))
        kept = scope.matrices[1]
        scope.migrate(after, after.remap_from(before))
        assert scope.compiled is after and scope.matrices == {1: kept}


class TestEnginePaneMode:
    def test_eligibility_requires_overlap(self):
        assert StreamingEngine.panes_eligible(SlidingWindow(size=8, slide=2))
        assert StreamingEngine.panes_eligible(SlidingWindow(size=7, slide=3))
        assert not StreamingEngine.panes_eligible(SlidingWindow(size=6, slide=6))

    def test_tumbling_window_falls_back_to_per_instance_loop(self):
        window = SlidingWindow(size=6, slide=6)
        workload = Workload([Query(Pattern(("A", "B")), window, name="f1")])
        executor = ASeqExecutor(workload, panes=True)
        assert not executor.engine.uses_panes
        report = executor.run(EventStream(events_at(("A", 0), ("B", 1))))
        assert report.metrics.panes_created == 0
        assert report.metrics.pane_merges == 0
        assert report.results.value("f1", window.instance_starting_at(0)) == 1

    def test_pane_mode_emits_identical_results_and_pane_metrics(self):
        window = SlidingWindow(size=8, slide=2)
        workload = Workload(
            [
                Query(Pattern(("A", "B")), window, name="m1"),
                Query(Pattern(("B", "A")), window, name="m2"),
            ]
        )
        stream = EventStream(
            events_at(("A", 0), ("B", 2), ("A", 3), ("B", 5), ("A", 7), ("B", 8), ("A", 11))
        )
        panes_on = ASeqExecutor(workload, panes=True)
        assert panes_on.engine.uses_panes
        on_report = panes_on.run(stream)
        off_report = ASeqExecutor(workload, panes=False).run(stream)
        assert on_report.results.matches(off_report.results), on_report.results.differences(
            off_report.results
        )[:5]
        assert on_report.metrics.panes_created > 0
        assert on_report.metrics.pane_merges > 0
        assert on_report.metrics.events_per_pane > 0
        assert off_report.metrics.panes_created == 0

    def test_pane_mode_processes_each_event_once(self):
        """state_updates in pane mode must not scale with the overlap factor."""
        window = SlidingWindow(size=12, slide=2)  # overlap 6
        workload = Workload([Query(Pattern(("A", "B")), window, name="u1")])
        stream = EventStream(
            events_at(*[("A" if t % 2 == 0 else "B", t) for t in range(24)])
        )
        on = ASeqExecutor(workload, panes=True).run(stream)
        off = ASeqExecutor(workload, panes=False).run(stream)
        assert on.results.matches(off.results)
        # Per-instance mode re-processes each event once per covering window;
        # pane mode touches each event once (pattern-length matrix cells).
        assert on.metrics.state_updates < off.metrics.state_updates

    def test_grouped_pane_mode_keeps_groups_apart(self):
        window = SlidingWindow(size=8, slide=4)
        workload = Workload(
            [Query(Pattern(("A", "B")), window, group_by=("region",), name="g1")]
        )
        stream = EventStream(
            events_at(
                ("A", 0, {"region": 0}),
                ("B", 1, {"region": 0}),
                ("A", 1, {"region": 1}),
                ("B", 2, {"region": 1}),
                ("B", 2, {"region": 0}),
            )
        )
        on = ASeqExecutor(workload, panes=True).run(stream)
        off = ASeqExecutor(workload, panes=False).run(stream)
        assert on.results.matches(off.results), on.results.differences(off.results)[:5]
        window0 = window.instance_starting_at(0)
        assert on.results.value("g1", window0, (0,)) == 2
        assert on.results.value("g1", window0, (1,)) == 1

    def test_on_batch_callback_fires_in_pane_mode(self):
        window = SlidingWindow(size=8, slide=2)
        workload = Workload([Query(Pattern(("A", "B")), window, name="cb1")])
        engine = StreamingEngine(workload, panes=True)
        seen = []
        engine.run(
            EventStream(events_at(("A", 0), ("B", 1), ("B", 1), ("A", 4))),
            on_batch=lambda timestamp, batch: seen.append((timestamp, len(batch))),
        )
        assert seen == [(0, 1), (1, 2), (4, 1)]

    def test_sharon_executor_exposes_panes_toggle(self):
        window = SlidingWindow(size=8, slide=2)
        workload = Workload(
            [
                Query(Pattern(("A", "B", "C")), window, name="s1"),
                Query(Pattern(("A", "B", "D")), window, name="s2"),
            ]
        )
        from tests.conftest import random_maximal_plan

        plan = random_maximal_plan(workload, 0)
        stream = EventStream(
            events_at(("A", 0), ("B", 1), ("C", 2), ("D", 3), ("A", 4), ("B", 6), ("C", 7))
        )
        on = SharonExecutor(workload, plan=plan, panes=True).run(stream)
        off = SharonExecutor(workload, plan=plan, panes=False).run(stream)
        assert on.results.matches(off.results), on.results.differences(off.results)[:5]
        assert on.metrics.panes_created > 0


def duplicate_query_scenario():
    """Two queries sharing one (pattern, spec) around a third: workload, events."""
    window = SlidingWindow(size=8, slide=4)
    same_key = PredicateSet.same("k")
    workload = Workload(
        [
            Query(Pattern(("A", "B")), window, AggregateSpec.count_star(), same_key, name="d1"),
            Query(Pattern(("A", "C")), window, AggregateSpec.sum("C", "v"), same_key, name="s1"),
            Query(Pattern(("A", "B")), window, AggregateSpec.count_star(), same_key, name="d2"),
        ]
    )
    rows = [("A", 0, 0, 1), ("B", 1, 0, 2), ("A", 1, 1, 3), ("C", 2, 0, 4), ("B", 3, 1, 5),
            ("A", 4, 0, 6), ("C", 5, 1, 7), ("B", 5, 0, 8), ("C", 6, 0, 9)]  # fmt: skip
    events = [
        Event(event_type, timestamp, {"k": key, "v": value}, event_id)
        for event_id, (event_type, timestamp, key, value) in enumerate(rows)
    ]
    return workload, events


#: ``export_state()`` of a pane session after the scenario's nine events, as
#: written by the commit before matrices became index-addressed.
PARENT_PANE_SNAPSHOT = (
    '{"accumulators":[{"group":[0],"vectors":[[0,[1,1,1]],[1,[[1,0,0.0,null,null],'
    '[1,0,0.0,null,null],[1,1,4.0,4.0,4.0]]]],"window":[0,8]},{"group":[1],"vectors":'
    '[[0,[1,1,1]],[1,[[1,0,0.0,null,null],[1,0,0.0,null,null],[0,0,0.0,null,null]]]],'
    '"window":[0,8]}],"last_timestamp":6,"metrics":{"cohorts_created":0,"cohorts_merged":0,'
    '"columnar_batches":7,"events_dropped":0,"events_late":0,"finalizations_seen":0,'
    '"pane_merges":4,"panes_created":4,"relevant_events":9,"results_emitted":0,'
    '"state_updates":10,"total_events":9,"windows_finalized":0},"mode":"panes",'
    '"open_pane_index":1,"open_pane_scopes":[{"group":[0],"matrices":[[0,{"cells":[[1],[1,1]],'
    '"updates":3}],[1,{"cells":[[[1,0,0.0,null,null]],[[1,1,9.0,9.0,9.0],[1,1,9.0,9.0,9.0]]],'
    '"updates":3}]],"pane_index":1},{"group":[1],"matrices":[[1,{"cells":[[[0,0,0.0,null,null]],'
    '[[0,0,0.0,null,null],[1,1,7.0,7.0,7.0]]],"updates":1}]],"pane_index":1}],"results":'
    '{"count":0,"digest":"e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"}}'
)


class TestDuplicateQueriesShareOneFinalization:
    @staticmethod
    def _count_value_calls(monkeypatch) -> list:
        calls = []
        original = WindowPaneAccumulator.value

        def counted(self, index, open_scope=None):
            calls.append(index)
            return original(self, index, open_scope)

        monkeypatch.setattr(WindowPaneAccumulator, "value", counted)
        return calls

    def test_one_value_per_query_in_workload_order_from_one_finalization_per_matrix(
        self, monkeypatch
    ):
        workload, events = duplicate_query_scenario()
        calls = self._count_value_calls(monkeypatch)
        report = StreamingEngine(workload, panes=True).run(EventStream(events))
        emitted = [(r.query_name, r.window.start, r.group) for r in report.results]
        # Per (window x group): every query once, in workload order.
        assert emitted[:3] == [("d1", 0, (0,)), ("s1", 0, (0,)), ("d2", 0, (0,))]
        assert len(emitted) == 3 * report.metrics.windows_finalized
        assert [name for name, _, _ in emitted] == ["d1", "s1", "d2"] * (len(emitted) // 3)
        # ...from one finalization per distinct matrix, not per query.
        assert len(calls) == 2 * report.metrics.windows_finalized
        for result in report.results:
            if result.query_name == "d2":
                assert result.value == report.results.value("d1", result.window, result.group)
        oracle = OracleExecutor(workload).run(EventStream(events)).results
        assert report.results.matches(oracle), report.results.differences(oracle)[:5]

    def test_detach_on_an_open_pane_finalizes_the_shared_matrix_for_that_query_only(self):
        workload, events = duplicate_query_scenario()
        engine = StreamingEngine(workload, panes=True)
        session = engine.new_session()
        session.collector.start()
        batches = engine.routed_batches(EventStream(events), session.collector)
        for timestamp, _batch, groups in batches:
            session.step(timestamp, groups)
        scopes = session._open_pane_scopes
        before = {g: [m.export_cells() for m in s.matrices.values()] for g, s in scopes.items()}
        session.detach_query("d1")  # pane 1 = [4, 8) is open
        detached = [(r.window.start, r.group, r.value) for r in session.results]
        # Open windows [0,8) and [4,12), groups in repr order; the open pane is folded in.
        assert detached == [(0, (0,), 3), (0, (1,), 1), (4, (0,), 1), (4, (1,), 0)]
        assert all(r.query_name == "d1" for r in session.results)
        # d2 still owns the (A, B) COUNT(*) matrix: live state is untouched, only
        # re-indexed for the recompiled workload [s1, d2]...
        assert {
            g: [m.export_cells() for _i, m in sorted(s.matrices.items(), reverse=True)]
            for g, s in scopes.items()
        } == before
        assert session._pane_compiled.query_matrices == (("s1", 0), ("d2", 1))
        report = session.finish()
        # ...and d2 finishes with the values d1 would have had.
        truncated = OracleExecutor(workload).run(EventStream(events)).results
        for result in report.results:
            if result.query_name == "d2":
                assert result.value == truncated.value("d1", result.window, result.group)

    def test_export_state_is_byte_identical_to_the_parent_commits(self):
        workload, events = duplicate_query_scenario()
        engine = StreamingEngine(workload, panes=True)
        session = engine.new_session()
        session.collector.start()
        batches = engine.routed_batches(EventStream(events), session.collector)
        for timestamp, _batch, groups in batches:
            session.step(timestamp, groups)
        assert canonical_json(session.export_state()) == PARENT_PANE_SNAPSHOT
        # And the literal restores into a session that finishes like the live one.
        restored = engine.new_session()
        restored.restore_state(json.loads(PARENT_PANE_SNAPSHOT))
        assert canonical_json(restored.export_state()) == PARENT_PANE_SNAPSHOT
        assert restored.finish().results.matches(session.finish().results)


class TestPaneCountMatrixOverflow:
    """Pane count cells must promote to exact Python ints past 2^63."""

    def test_apply_batch_promotes_past_int64(self):
        from repro.executor.prefix_agg import _I64_MAX

        pattern = Pattern(("A", "B"))
        spec = AggregateSpec.count_star()
        matrix = PaneCountMatrix(pattern, spec)
        # Seed a base count just below the bound, then chain once more.
        matrix.cells[0][0] = _I64_MAX // 2
        batch_a = {0: events_at(*((("A", 0),) * 8))}
        batch_b = {1: events_at(*((("B", 1),) * 8))}
        matrix.apply_batch(batch_a, spec)   # cells[0][0] ~ 0.5 * 2^63 + 8
        matrix.apply_batch(batch_b, spec)   # cells[1][0] = 8 * base > 2^63 - 1
        expected = 8 * (_I64_MAX // 2 + 8)
        assert matrix.cells[1][0] == expected
        assert isinstance(matrix.cells[1], list)
        # The fold into a (Python-int) prefix vector stays exact.
        vector = matrix.new_vector()
        matrix.fold(vector)
        assert matrix.final_state(vector).count == expected

    def test_diagonal_increment_promotes(self):
        from repro.executor.prefix_agg import _I64_MAX

        pattern = Pattern(("A",))
        spec = AggregateSpec.count_star()
        matrix = PaneCountMatrix(pattern, spec)
        matrix.cells[0][0] = _I64_MAX - 2
        matrix.apply_batch({0: events_at(("A", 0), ("A", 0), ("A", 0))}, spec)
        assert matrix.cells[0][0] == _I64_MAX + 1
        assert isinstance(matrix.cells[0], list)
