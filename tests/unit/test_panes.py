"""Unit tests for the pane-partitioned engine layer (repro.executor.panes)."""

from __future__ import annotations

import hashlib
import json

import pytest

from repro.events import ColumnarBatch, Event, EventStream, SlidingWindow
from repro.executor import (
    ASeqExecutor,
    CompiledPaneWorkload,
    CompiledWorkload,
    OracleExecutor,
    PaneScope,
    SharonExecutor,
    StreamingEngine,
    WindowPaneAccumulator,
    enumerate_pattern_matches,
)
from repro.queries import AggregateSpec, Pattern, PredicateSet, Query, Workload
from repro.replay.trace import canonical_json

WINDOW = SlidingWindow(size=8, slide=2)
COUNT = AggregateSpec.count_star()


def events_at(*rows) -> list[Event]:
    """Events from (type, timestamp[, attrs]) rows."""
    events = []
    for event_id, row in enumerate(rows):
        event_type, timestamp, *rest = row
        events.append(Event(event_type, timestamp, rest[0] if rest else {}, event_id))
    return events


def compile_patterns(*patterns) -> CompiledPaneWorkload:
    """One query per ``types`` or ``(types, spec)`` entry, named ``p0, p1, ...``."""
    queries = []
    for index, entry in enumerate(patterns):
        types, spec = entry if isinstance(entry[1], AggregateSpec) else (entry, COUNT)
        queries.append(Query(Pattern(types), WINDOW, spec, name=f"p{index}"))
    return CompiledPaneWorkload(CompiledWorkload(Workload(queries)))


def feed(scope: PaneScope, events: list[Event]) -> None:
    """Process same-timestamp ``events`` as one columnar batch, every layout-typed row."""
    batch = ColumnarBatch.from_events(events[0].timestamp, events, scope.compiled.layout)
    scope.process_batch(batch, batch.relevant)


def scope_over(compiled: CompiledPaneWorkload, events: list[Event]) -> PaneScope:
    """A pane scope fed each timestamp's events as one batch."""
    scope = PaneScope(compiled, pane_index=0, group=())
    by_timestamp: dict[int, list[Event]] = {}
    for event in events:
        by_timestamp.setdefault(event.timestamp, []).append(event)
    for timestamp in sorted(by_timestamp):
        feed(scope, by_timestamp[timestamp])
    return scope


def cell(scope: PaneScope, types, spec: AggregateSpec = COUNT):
    """The scope's cell for sub-sequence ``types``."""
    return scope.cells[scope.compiled.cell_keys.index((tuple(types), spec))]


def brute_force_count(types, events: list[Event]) -> int:
    """Matches of ``types`` among the timestamp-ordered ``events``, by enumeration."""
    return len(enumerate_pattern_matches(Pattern(types), events))


def fold_panes(compiled: CompiledPaneWorkload, *scopes: PaneScope) -> WindowPaneAccumulator:
    """One window over ``scopes``' panes, folded as a pane close does: the last one by tails."""
    accumulator = WindowPaneAccumulator(compiled)
    for position, scope in enumerate(scopes, 1):
        accumulator.absorb(scope.gather(True), last=position == len(scopes))
    return accumulator


def count_ops(entry: tuple) -> list[tuple]:
    """A ``cell_ops`` entry's COUNT(*) ops as ``(target, source or None)`` pairs."""
    _type, units, pairs, _state_ops, _in_place = entry
    return [(target, None) for target in units] + list(pairs)


class TestCellTable:
    def test_a_cell_equals_the_brute_force_count_of_its_sub_sequence(self):
        compiled = compile_patterns(("A", "B", "C"), ("B", "C", "D"), ("C", "A"))
        rows = [("A", 0), ("B", 1), ("C", 1), ("A", 2), ("C", 3), ("B", 3), ("D", 4), ("C", 5),
                ("A", 5), ("D", 6), ("B", 6), ("C", 7), ("D", 7), ("A", 7)]  # fmt: skip
        events = events_at(*rows)
        scope = scope_over(compiled, events)
        assert len(compiled.cell_keys) == 10
        for index, (types, _spec) in enumerate(compiled.cell_keys):
            assert scope.cells[index] == brute_force_count(types, events), types
        assert cell(scope, ("A", "B", "C")) > 1  # the stream is not trivial

    def test_same_timestamp_multi_type_batches_never_chain(self):
        compiled = compile_patterns(("A", "B"), ("B", "A"))
        scope = scope_over(compiled, events_at(("A", 3), ("B", 3)))
        assert cell(scope, ("A", "B")) == cell(scope, ("B", "A")) == 0
        assert cell(scope, ("A",)) == cell(scope, ("B",)) == 1
        feed(scope, events_at(("B", 4), ("A", 4), ("B", 4)))
        # Both directions extend from the pre-batch singles only.
        assert cell(scope, ("A", "B")) == 2 and cell(scope, ("B", "A")) == 1

    def test_repeated_type_pattern(self):
        compiled = compile_patterns(("A", "A", "B"))
        events = events_at(("A", 0), ("A", 1), ("A", 1), ("B", 2), ("A", 2), ("B", 3))
        scope = scope_over(compiled, events)
        assert cell(scope, ("A",)) == 4
        assert cell(scope, ("A", "A")) == 5  # 0-1 (x2), 0-2, 1-2 (x2)
        assert cell(scope, ("A", "B")) == 7
        assert cell(scope, ("A", "A", "B")) == brute_force_count(("A", "A", "B"), events) == 7

    def test_counts_pass_int64_exactly(self):
        compiled = compile_patterns(("A", "B"))
        scope = PaneScope(compiled, pane_index=0, group=())
        scope.restore_state({"cells": [[0, 2**62]], "updates": 0})
        feed(scope, events_at(*((("A", 0),) * 8)))
        feed(scope, events_at(*((("B", 1),) * 8)))
        expected = 8 * (2**62 + 8)
        assert expected > 2**63 and cell(scope, ("A", "B")) == expected
        # Through a snapshot and the fold into a window's vector, still exact.
        restored = PaneScope(compiled, pane_index=0, group=())
        restored.restore_state(json.loads(canonical_json(scope.export_state())))
        assert restored.cells == scope.cells
        assert fold_panes(compiled, restored).value(0) == expected

    def test_fold_composes_across_panes(self):
        compiled = compile_patterns(("A", "B"))
        first = scope_over(compiled, events_at(("A", 0)))
        second = scope_over(compiled, events_at(("B", 5)))
        assert fold_panes(compiled, first, second).value(0) == 1  # (A@0, B@5)
        assert fold_panes(compiled, second, first).value(0) == 0

    def test_identity_pane_is_a_noop(self):
        compiled = compile_patterns(("A", "B"))
        accumulator = fold_panes(compiled, scope_over(compiled, events_at(("A", 0), ("B", 1))))
        before = canonical_json(accumulator.export_state())
        untouched = PaneScope(compiled, pane_index=1, group=())
        assert untouched.gather(True) == [] and accumulator.absorb(untouched.gather(True), False) == 0
        assert canonical_json(accumulator.export_state()) == before

    def test_state_cells_sum_across_panes(self):
        spec = AggregateSpec.sum("B", "value")
        compiled = compile_patterns((("A", "B"), spec))
        first = scope_over(compiled, events_at(("A", 0, {"value": 1}), ("B", 1, {"value": 7})))
        second = scope_over(compiled, events_at(("B", 4, {"value": 5})))
        state = cell(first, ("A", "B"), spec)
        assert (state.count, state.total) == (1, 7.0)
        # Matches: (A@0, B@1) and (A@0, B@4) -> SUM(B.value) = 7 + 5.
        assert fold_panes(compiled, first, second).value(0) == 12.0

    def test_two_queries_sharing_an_infix_update_that_cell_once(self):
        window = SlidingWindow(size=8, slide=4)
        workload = Workload(
            [
                Query(Pattern(("A", "B", "C")), window, name="i1"),
                Query(Pattern(("D", "B", "C")), window, name="i2"),
            ]
        )
        stream = EventStream(events_at(("A", 0), ("D", 0), ("B", 1), ("C", 2)))
        report = StreamingEngine(workload, panes=True).run(stream)
        # A, D: their single cell.  B: (B), (A, B), (D, B).  C: (C), (B, C) and the two
        # full patterns — the (B), (C) and (B, C) cells both queries contain count once.
        assert report.metrics.state_updates == 1 + 1 + 3 + 4
        assert report.results.value("i1", window.instance_starting_at(0)) == 1
        assert report.results.value("i2", window.instance_starting_at(0)) == 1


class TestCompiledPaneWorkload:
    def test_queries_with_equal_pattern_and_spec_share_one_matrix(self):
        workload = Workload(
            [
                Query(Pattern(("A", "B")), WINDOW, name="k1"),
                Query(Pattern(("A", "B")), WINDOW, name="k2"),
                Query(Pattern(("A", "C")), WINDOW, name="k3"),
            ]
        )
        compiled = CompiledPaneWorkload(CompiledWorkload(workload))
        assert compiled.query_matrices == (("k1", 0), ("k2", 0), ("k3", 1))
        assert [types for types, _spec in compiled.matrix_keys] == [("A", "B"), ("A", "C")]
        # (A) is one cell under both matrices: 5 distinct cells for 2 x 3.
        assert (compiled.distinct_cells, compiled.matrix_cells) == (5, 6)

        scope = PaneScope(compiled, pane_index=0, group=())
        feed(scope, events_at(("A", 0)))
        feed(scope, events_at(("B", 1), ("C", 1)))
        assert [index for index, *_views in scope.gather(True)] == [0, 1]

        accumulator = WindowPaneAccumulator(compiled)
        assert accumulator.absorb(scope.gather(True), False) == 2
        assert accumulator.value(0) == 1
        assert accumulator.value(1) == 1

    def test_untouched_query_finalizes_to_zero(self):
        accumulator = WindowPaneAccumulator(compile_patterns(("A", "B")))
        assert accumulator.value(0) == 0

    def test_slices_of_one_chain_share_their_infixes(self):
        chain = [f"T{i}" for i in range(8)]
        compiled = compile_patterns(*(tuple(chain[i : i + 4]) for i in range(5)))
        assert (compiled.distinct_cells, compiled.matrix_cells) == (26, 50)
        # A mid-chain type ends one cell per distinct length, not one per (matrix, position).
        entry = compiled.cell_ops[compiled.layout.type_id("T4")]
        event_type, units, _pairs, state_ops, in_place = entry
        assert event_type == "T4" and len(count_ops(entry)) == 4 and state_ops == ()
        # One length-1 target, and no T4 op reads a cell ending in T4.
        assert len(units) == 1 and in_place

    def test_each_type_lists_every_cell_it_ends_once_per_spec(self):
        count_a = AggregateSpec.count("A")
        compiled = compile_patterns(("A", "B", "A"), (("A", "B", "A"), count_a), ("C", "B"))
        keys = compiled.cell_keys

        def targets(ops):
            return sorted(keys[target][0] for target, _source in ops)

        # The table is indexed by the layout's interned type ids, one entry per id.
        assert compiled.layout.types == ("A", "B", "C")
        assert [event_type for event_type, *_ops in compiled.cell_ops] == ["A", "B", "C"]
        type_a, type_b = compiled.layout.type_id("A"), compiled.layout.type_id("B")
        _type, _units, _pairs, ((spec, spec_ops),), _in_place = compiled.cell_ops[type_a]
        a_ops = count_ops(compiled.cell_ops[type_a])
        assert targets(a_ops) == [("A",), ("A", "B", "A"), ("B", "A")]
        assert spec == count_a and targets(spec_ops) == targets(a_ops)
        assert targets(count_ops(compiled.cell_ops[type_b])) == [("A", "B"), ("B",), ("C", "B")]
        assert compiled.layout.type_id("D") == -1
        # A repeated type fills both of its positions from the one (A) cell: the view
        # reads it as T[0][1] and again as T[2][3].
        view = {(i, j): cell for j, i, cell in compiled.views[0]}
        assert view[0, 1] == view[2, 3] and len(view) == 6
        scope = scope_over(compiled, events_at(("A", 0), ("A", 0), ("B", 1), ("C", 1), ("D", 1)))
        assert cell(scope, ("A",)) == 2 and cell(scope, ("A", "B")) == 2
        assert cell(scope, ("C", "B")) == 0 and cell(scope, ("C",)) == 1

    def test_recompilation_remaps_surviving_vectors_and_cells_by_value_key(self):
        before = compile_patterns(("A", "B"), ("A", "C"))
        after = compile_patterns(("A", "D"), ("A", "C"))
        matrix_remap, cell_remap = after.remap_from(before)
        assert matrix_remap == {1: 1}
        surviving = {before.cell_keys[old][0] for old in cell_remap}
        assert surviving == {("A",), ("C",), ("A", "C")}
        scope = scope_over(before, events_at(("A", 0), ("B", 1), ("C", 1)))
        scope.migrate(after, cell_remap)
        assert scope.compiled is after and scope.updates == 5
        assert cell(scope, ("A", "C")) == 1 and cell(scope, ("A", "D")) == 0


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

    def test_drive_yields_every_batch_in_pane_mode(self):
        window = SlidingWindow(size=8, slide=2)
        workload = Workload([Query(Pattern(("A", "B")), window, name="cb1")])
        session = StreamingEngine(workload, panes=True).new_session()
        stream = EventStream(events_at(("A", 0), ("B", 1), ("B", 1), ("A", 4)))
        seen = [(timestamp, len(batch)) for timestamp, batch in session.drive(stream)]
        assert seen == [(0, 1), (1, 2), (4, 1)]

    def test_sharon_executor_exposes_panes_toggle(self):
        window = SlidingWindow(size=8, slide=2)
        workload = Workload(
            [
                Query(Pattern(("A", "B", "C")), window, name="s1"),
                Query(Pattern(("A", "B", "D")), window, name="s2"),
            ]
        )
        from repro.datasets.workloads import random_maximal_plan

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
#: written by the commit before pane cells were shared: one block of rows per
#: matrix, each with its own update count.
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
        batches = session.routed_batches(EventStream(events))
        for timestamp, batch, groups in batches:
            session.step(timestamp, batch, groups)
        scopes = session.strategy.open_scopes

        def cells_by_key():
            return {
                group: {scope.compiled.cell_keys[i]: v for i, v in scope.export_state()["cells"]}
                for group, scope in scopes.items()
            }

        before = cells_by_key()
        session.detach_query("d1")  # pane 1 = [4, 8) is open
        detached = [(r.window.start, r.group, r.value) for r in session.results]
        # Open windows [0,8) and [4,12), groups in repr order; the open pane is folded in.
        assert detached == [(0, (0,), 3), (0, (1,), 1), (4, (0,), 1), (4, (1,), 0)]
        assert all(r.query_name == "d1" for r in session.results)
        # d2 still contains every (A, B) COUNT(*) cell: live state is untouched, only
        # re-indexed for the recompiled workload [s1, d2]...
        assert cells_by_key() == before
        assert session.strategy.compiled.query_matrices == (("s1", 0), ("d2", 1))
        report = session.finish()
        # ...and d2 finishes with the values d1 would have had.
        truncated = OracleExecutor(workload).run(EventStream(events)).results
        for result in report.results:
            if result.query_name == "d2":
                assert result.value == truncated.value("d1", result.window, result.group)

    def test_parent_snapshot_restores_and_re_exports_stably(self):
        workload, events = duplicate_query_scenario()
        engine = StreamingEngine(workload, panes=True)
        session = engine.new_session()
        session.collector.start()
        batches = session.routed_batches(EventStream(events))
        for timestamp, batch, groups in batches:
            session.step(timestamp, batch, groups)
        parent = json.loads(PARENT_PANE_SNAPSHOT)
        restored = engine.new_session()
        restored.restore_state(parent)
        exported = json.loads(canonical_json(restored.export_state()))
        # Per-matrix rows became cells under one scope-level update count...
        for old, new in zip(parent["open_pane_scopes"], exported["open_pane_scopes"]):
            assert "matrices" not in new and new["cells"]
            assert new["updates"] == sum(block["updates"] for _index, block in old["matrices"])
        # ...which are the live session's cells (it counted the shared (A) cell once)...
        live = json.loads(canonical_json(session.export_state()))
        for mine, theirs in zip(live["open_pane_scopes"], exported["open_pane_scopes"]):
            assert mine["cells"] == theirs["cells"] and mine["updates"] <= theirs["updates"]
        assert live["accumulators"] == exported["accumulators"] == parent["accumulators"]
        # ...and from there the snapshot is a fixed point of restore/export.
        again = engine.new_session()
        again.restore_state(exported)
        assert json.loads(canonical_json(again.export_state())) == exported
        assert again.finish().results.matches(session.finish().results)


def fold_case_workload(window: SlidingWindow) -> Workload:
    """COUNT(*) next to SUM/AVG/MIN/MAX, grouped by entity, two patterns repeating a type."""
    same = PredicateSet.same("e")
    return Workload(
        [
            Query(Pattern(types), window, spec, same, name=name)
            for name, types, spec in (
                ("c1", ("A", "B", "C"), COUNT),
                ("c2", ("A", "B", "A"), COUNT),
                ("c3", ("A", "A", "B"), COUNT),
                ("s1", ("A", "B", "C"), AggregateSpec.sum("C", "v")),
                ("a1", ("B", "C"), AggregateSpec.avg("B", "v")),
                ("n1", ("A", "B"), AggregateSpec.min("A", "v")),
                ("x1", ("A", "B", "A"), AggregateSpec.max("A", "v")),
            )
        ]
    )


def fold_case_events() -> list[Event]:
    """Entity 0 every unit, entity 1 from t=14 on, entity 2 at t=3..4 and t=19 only."""
    rows = [("ABC"[t % 3], t, 0, (t * 7) % 11 - 3.5) for t in range(30)]
    # Same-timestamp pairs that would chain if a batch were applied in one phase.
    rows += [("B", 5, 0, 1.25), ("C", 12, 0, -2.0), ("A", 13, 0, 4.5), ("A", 20, 0, 0.5)]
    rows += [("A", 14, 1, 2.0), ("B", 15, 1, 3.0), ("C", 17, 1, 5.0), ("A", 17, 1, 1.0),
             ("B", 20, 1, -1.0), ("A", 21, 1, 6.0), ("C", 26, 1, 2.5), ("B", 26, 1, 0.75)]  # fmt: skip
    rows += [("A", 3, 2, 1.0), ("B", 4, 2, 2.0), ("A", 4, 2, 3.0), ("C", 19, 2, 9.0)]
    rows.sort(key=lambda row: row[1])
    return [Event(kind, t, {"e": e, "v": v}, i) for i, (kind, t, e, v) in enumerate(rows)]


#: Geometry -> (state_updates, pane_merges, panes_created, sha256 prefix of the
#: sorted result lines, result count) of the fold-case run, as the commit before
#: first- and last-pane folds read one row or column recorded them.
FOLD_CASES = {
    (8, 4): (275, 187, 15, "253d14f6cae6bd61", 119),  # k = 2
    (9, 3): (295, 311, 17, "a070d169a5611da0", 154),  # k = 3
    (10, 2): (228, 643, 22, "cf8dafd2b3724dbd", 238),  # k = 5
    (10, 4): (228, 334, 22, "e027075effa4caf8", 119),  # gcd: pane width 2, 5 panes per window
}


class TestFoldAndKernelCases:
    """First-, middle- and last-pane folds and the batch kernel against both references."""

    @pytest.mark.parametrize("size,slide", sorted(FOLD_CASES), ids=lambda value: str(value))
    def test_panes_equal_instances_the_oracle_and_the_recorded_run(self, size, slide):
        window = SlidingWindow(size=size, slide=slide)
        workload = fold_case_workload(window)
        stream = EventStream(fold_case_events())
        on = StreamingEngine(workload, panes=True).run(stream)
        off = StreamingEngine(workload, panes=False).run(stream)
        oracle = OracleExecutor(workload).run(stream)
        assert on.results.matches(off.results), on.results.differences(off.results)[:5]
        assert on.results.matches(oracle.results), on.results.differences(oracle.results)[:5]
        lines = sorted(f"{r.query_name}|{r.window.start}|{r.group!r}|{r.value!r}" for r in on.results)
        digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()[:16]
        metrics = on.metrics
        recorded = FOLD_CASES[size, slide]
        assert (metrics.state_updates, metrics.pane_merges, metrics.panes_created) == recorded[:3]
        assert (digest, len(lines)) == recorded[3:]

    @pytest.mark.parametrize("size,slide", sorted(FOLD_CASES), ids=lambda value: str(value))
    def test_the_scenario_reaches_every_fold_case(self, size, slide):
        """Guards against a vacuous scenario: each named case occurs in each geometry."""
        window = SlidingWindow(size=size, slide=slide)
        pane_of = window.pane_index_of

        def panes_with(entity: int) -> set[int]:
            return {pane_of(e.timestamp) for e in fold_case_events() if e.attributes["e"] == entity}

        def windows_over(pane: int) -> list:
            return window.instances_covering_pane(pane)

        def last_pane(instance) -> int:
            return window.panes_covering(instance)[-1]

        # Entity 2 has rows in a window whose last pane holds none of them.
        assert any(
            last_pane(w) not in panes_with(2) for p in panes_with(2) for w in windows_over(p)
        )
        if size // window.pane_width >= 3:
            # Entity 1's first pane is a middle pane of a window over it.
            first = min(panes_with(1))
            assert any(
                window.panes_covering(w)[0] < first < last_pane(w) for w in windows_over(first)
            )
        # A and B of one entity share a timestamp (they must not chain).
        stamps = {(e.timestamp, e.attributes["e"], e.event_type) for e in fold_case_events()}
        assert {(4, 2, "A"), (4, 2, "B"), (13, 0, "A"), (13, 0, "B")} <= stamps

    def test_a_single_row_updates_in_place_only_when_its_ops_read_no_cell_it_writes(self):
        compiled = CompiledPaneWorkload(
            CompiledWorkload(fold_case_workload(SlidingWindow(size=8, slide=4)))
        )
        in_place = {entry[0]: entry[4] for entry in compiled.cell_ops}
        # (A, A) reads (A), which an A row writes; B and C rows read only cells ending elsewhere.
        assert in_place == {"A": False, "B": True, "C": True}
        scope = scope_over(
            compiled, events_at(("A", 0, {"e": 0}), ("A", 1, {"e": 0}), ("B", 2, {"e": 0}))
        )
        assert cell(scope, ("A", "A")) == 1 and cell(scope, ("A", "A", "B")) == 1
