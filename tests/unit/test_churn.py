"""Unit tests for live query churn: ops, schedules, scripts, session semantics.

The end-to-end correctness of attach/detach (gates, truncation, state
migration) is pinned by the churn differential grid and the metamorphic
property suite; this module covers the surface itself — validation errors,
bookkeeping, script parsing, and the engine-session API contracts described
in ``docs/churn.md``.
"""

from __future__ import annotations

import json

import pytest

from repro.core import SharingCandidate, SharingPlan
from repro.events import EventStream, SlidingWindow
from repro.events.disorder import bounded_shuffle
from repro.executor import (
    ASeqExecutor,
    ChurnOp,
    ChurnSchedule,
    ChurnState,
    OracleExecutor,
    ResultSet,
    SharonExecutor,
    load_churn_script,
    parse_churn_script,
)
from repro.executor.churn import ChurnError
from repro.executor.engine import StreamingEngine
from repro.executor.results import encode_result_lines
from repro.queries import AggregateSpec, Pattern, Query, Workload
from repro.replay import describe_churn_op


WINDOW = SlidingWindow(size=8, slide=4)


def make_query(name: str, types=("A", "B")) -> Query:
    return Query(Pattern(tuple(types)), WINDOW, name=name)


def make_engine(names=("q1", "q2"), **kwargs) -> StreamingEngine:
    workload = Workload([make_query(name) for name in names])
    return StreamingEngine(workload, plan=SharingPlan(), **kwargs)


class TestChurnOp:
    def test_attach_takes_its_name_from_the_query(self):
        op = ChurnOp("attach", 5, query=make_query("joiner"))
        assert op.query_name == "joiner"
        assert op.at == 5

    def test_rejects_unknown_kinds(self):
        with pytest.raises(ValueError, match="unknown churn op kind"):
            ChurnOp("upgrade", 5, query=make_query("q"))

    def test_rejects_negative_timestamps(self):
        with pytest.raises(ValueError, match="non-negative"):
            ChurnOp("detach", -1, query_name="q1")

    def test_attach_requires_a_query(self):
        with pytest.raises(ValueError, match="attach ops need a query"):
            ChurnOp("attach", 5)

    def test_detach_requires_a_query_name(self):
        with pytest.raises(ValueError, match="detach ops need a query_name"):
            ChurnOp("detach", 5)

    def test_plan_requires_a_plan_and_names_no_query(self):
        with pytest.raises(ValueError, match="plan ops need a plan"):
            ChurnOp("plan", 5)
        assert ChurnOp("plan", 5, plan=SharingPlan()).query_name == ""


class TestChurnSchedule:
    def test_sorts_by_timestamp_stably(self):
        ops = [
            ChurnOp("detach", 9, query_name="late"),
            ChurnOp("attach", 3, query=make_query("a")),
            ChurnOp("detach", 3, query_name="b"),
        ]
        schedule = ChurnSchedule(ops)
        assert [op.query_name for op in schedule] == ["a", "b", "late"]
        # Same-timestamp ops keep construction order (stable sort).
        assert [op.kind for op in schedule][:2] == ["attach", "detach"]

    def test_rejects_non_ops(self):
        with pytest.raises(TypeError, match="ChurnOp instances"):
            ChurnSchedule([("attach", 3)])

    def test_len_bool_iter(self):
        empty = ChurnSchedule()
        assert len(empty) == 0 and not empty
        schedule = ChurnSchedule([ChurnOp("detach", 1, query_name="q")])
        assert len(schedule) == 1 and schedule
        assert [op.at for op in schedule] == [1]


class TestChurnState:
    def test_gates_emission_by_attach_timestamp(self):
        state = ChurnState(["q1"])
        state.active.add("joiner")
        state.attach_timestamps["joiner"] = 8
        assert state.emits("q1", 0)  # initial queries have no gate
        assert not state.emits("joiner", 4)
        assert state.emits("joiner", 8)
        assert not state.emits("gone", 0)  # inactive names never emit

    def test_export_is_canonical(self):
        state = ChurnState(["b", "a"])
        state.attach_timestamps["b"] = 3
        state.record("attach", 3, "b", "fp")
        exported = state.export()
        assert exported["active"] == ["a", "b"]
        assert exported["attach_timestamps"] == [["b", 3]]
        assert exported["history"] == [{"op": "attach", "at": 3, "query": "b", "fingerprint": "fp"}]


class TestChurnScripts:
    VALID = """
    [
      {"op": "attach", "at": 12, "name": "spikes",
       "query": "RETURN COUNT(*) PATTERN SEQ(A, B) WITHIN 10 SLIDE 5"},
      {"op": "detach", "at": 20, "name": "q1"}
    ]
    """

    PLAN = '[{"op": "plan", "at": 9, "share": [{"pattern": ["A", "B"], "queries": ["q1", "q2"]}]}]'

    def test_parses_a_plan_op(self):
        (op,) = parse_churn_script(self.PLAN)
        assert (op.kind, op.at, op.query_name) == ("plan", 9, "")
        assert op.plan == SharingPlan([SharingCandidate(Pattern(("A", "B")), ("q1", "q2"))])
        (empty,) = parse_churn_script('[{"op": "plan", "at": 3, "share": []}]')
        assert empty.plan == SharingPlan()

    @pytest.mark.parametrize(
        "share",
        [
            None,
            {"pattern": ["A", "B"], "queries": ["q1", "q2"]},
            [["A", "B"]],
            [{"pattern": "AB", "queries": ["q1", "q2"]}],
            [{"pattern": ["A", "B"], "queries": "q1"}],
            [{"pattern": ["A", "B"], "queries": ["q1", 2]}],
            [{"pattern": ["A", "B"], "queries": ["q1", "q2"], "benefit": 2}],
        ],
        ids=["missing", "not-a-list", "not-an-object", "pattern-string", "queries-string",
             "queries-int", "extra-key"],
    )
    def test_rejects_malformed_plan_lines(self, share):
        entry = {"op": "plan", "at": 3} if share is None else {"op": "plan", "at": 3, "share": share}
        with pytest.raises(ValueError, match="plan op #0 must read"):
            parse_churn_script(json.dumps([entry]))

    def test_a_plan_line_takes_no_other_key(self):
        with pytest.raises(ValueError, match="plan op #0 must read"):
            parse_churn_script('[{"op": "plan", "at": 3, "share": [], "name": "q1"}]')

    def test_a_candidate_of_one_query_is_a_churn_error(self):
        one = '[{"op": "plan", "at": 3, "share": [{"pattern": ["A", "B"], "queries": ["q1"]}]}]'
        with pytest.raises(ChurnError, match="plan op #0: .*at least two queries"):
            parse_churn_script(one)

    def test_parses_attach_and_detach(self):
        schedule = parse_churn_script(self.VALID)
        assert len(schedule) == 2
        attach, detach = schedule
        assert attach.kind == "attach" and attach.query_name == "spikes"
        assert attach.query.window == SlidingWindow(size=10, slide=5)
        assert detach.kind == "detach" and detach.query_name == "q1" and detach.at == 20

    def test_load_reads_a_file(self, tmp_path):
        path = tmp_path / "churn.json"
        path.write_text(self.VALID, encoding="utf-8")
        assert len(load_churn_script(path)) == 2

    @pytest.mark.parametrize(
        ("text", "match"),
        [
            ("{not json", "not valid JSON"),
            ('{"op": "attach"}', "JSON array"),
            ('[42]', "JSON object"),
            ('[{"op": "detach", "name": "q", "at": "soon"}]', "integer 'at'"),
            ('[{"op": "detach", "name": "q", "at": true}]', "integer 'at'"),
            ('[{"op": "detach", "at": 3}]', "non-empty 'name'"),
            ('[{"op": "attach", "at": 3, "name": "q"}]', "needs a 'query'"),
            ('[{"op": "migrate", "at": 3, "name": "q"}]', "unknown 'op'"),
            ('[{"op": "plan", "share": []}]', "integer 'at'"),
        ],
    )
    def test_rejects_malformed_scripts(self, text, match):
        with pytest.raises(ValueError, match=match):
            parse_churn_script(text)


@pytest.mark.parametrize("panes", [False, True], ids=["instances", "panes"])
class TestMigrate:
    def test_recompiles_and_installs_the_new_compilation(self, panes):
        engine = make_engine(("q1", "q2"), panes=panes)
        session = engine.new_session()
        grown = Workload([make_query("q1"), make_query("q2"), make_query("q3", ("C", "D"))])
        session.migrate(grown, SharingPlan())
        assert session.workload is grown
        assert session.compiled.workload is grown
        assert "q3" in session.workload

    def test_refuses_a_window_geometry_change(self, panes):
        session = make_engine(("q1", "q2"), panes=panes).new_session()
        wider = SlidingWindow(size=16, slide=4)
        swapped = Workload(
            [Query(Pattern(("A", "B")), wider, name=name) for name in ("q1", "q2")]
        )
        with pytest.raises(ValueError, match="window geometry"):
            session.migrate(swapped, SharingPlan())

    def test_refuses_a_non_uniform_workload(self, panes):
        session = make_engine(("q1", "q2"), panes=panes).new_session()
        other = Query(Pattern(("A", "B")), SlidingWindow(size=16, slide=4), name="q3")
        with pytest.raises(ValueError, match="uniform workload"):
            session.migrate(Workload([make_query("q1"), other]), SharingPlan())


@pytest.mark.parametrize("panes", [False, True], ids=["instances", "panes"])
class TestSessionChurnApi:
    """Contracts the one session keeps under both strategies (per-instance and pane mode)."""

    def _session(self, panes, names=("q1", "q2")):
        engine = make_engine(names, panes=panes)
        return engine, engine.new_session()

    def test_attach_records_gate_and_history(self, panes):
        _engine, session = self._session(panes)
        effective = session.attach_query(make_query("joiner", ("C", "D")))
        assert effective == 0  # nothing processed yet: every batch is t >= 0
        assert session.attach_timestamps == {"joiner": 0}
        (entry,) = session.churn_history()
        assert (entry["op"], entry["at"], entry["query"]) == ("attach", 0, "joiner")
        assert entry["fingerprint"]
        assert "joiner" in session.workload

    def test_attach_rejects_duplicate_names(self, panes):
        _engine, session = self._session(panes)
        with pytest.raises(ValueError, match="duplicate query name"):
            session.attach_query(make_query("q1", ("C", "D")))

    def test_attach_rejects_a_different_window(self, panes):
        _engine, session = self._session(panes)
        other = Query(Pattern(("C", "D")), SlidingWindow(size=16, slide=4), name="joiner")
        with pytest.raises(ValueError, match="uniform workload"):
            session.attach_query(other)

    def test_churn_applies_between_batches_only(self, panes):
        engine, session = self._session(panes)
        stream = EventStream.from_tuples([("A", 0), ("B", 5)])
        for timestamp, batch, groups in session.routed_batches(stream):
            session.step(timestamp, batch, groups)
        with pytest.raises(ValueError, match="between batches"):
            session.attach_query(make_query("joiner", ("C", "D")), at=5)
        with pytest.raises(ValueError, match="between batches"):
            session.detach_query("q1", at=3)
        # The next free timestamp is fine.
        assert session.attach_query(make_query("joiner", ("C", "D")), at=6) == 6

    def test_ops_past_the_end_of_the_stream_apply_before_finish(self, panes):
        engine, session = self._session(panes)
        stream = EventStream.from_tuples([("A", 0), ("B", 5)])
        schedule = [ChurnOp("detach", 50, query_name="q2")]
        engine.run(stream, session=session, churn=schedule)
        assert [(entry["op"], entry["at"]) for entry in session.churn_history()] == [
            ("detach", 50)
        ]
        assert "q2" not in session.workload

    def test_detach_rejects_unknown_queries(self, panes):
        _engine, session = self._session(panes)
        with pytest.raises(ValueError, match="unknown query"):
            session.detach_query("nobody")

    def test_detach_rejects_emptying_the_workload(self, panes):
        _engine, session = self._session(panes, names=("only",))
        with pytest.raises(ValueError, match="last active query"):
            session.detach_query("only")

    def test_detach_clears_gate_and_appends_history(self, panes):
        _engine, session = self._session(panes)
        session.attach_query(make_query("joiner", ("C", "D")))
        session.detach_query("joiner")
        assert session.attach_timestamps == {}
        kinds = [entry["op"] for entry in session.churn_history()]
        assert kinds == ["attach", "detach"]
        assert "joiner" not in session.workload

    def test_a_detached_query_stays_silent_in_scopes_of_an_earlier_compilation(self, panes):
        """Attach at 6, detach ``q1`` at 22: windows [16, 24) and [20, 28), opened
        between the two ops, close after the detach with the attach gate they
        had before it.  ``q1``'s value for them is the detach partial, once."""
        engine, session = self._session(panes)
        stream = EventStream.from_tuples([("AB"[t % 2], t) for t in range(40)])
        ops = [
            ChurnOp("attach", 6, query=make_query("joiner", ("B", "A"))),
            ChurnOp("detach", 22, query_name="q1"),
        ]
        report = engine.run(stream, session=session, churn=ops)
        assert report.metrics.results_emitted == len(report.results)  # no key twice
        assert max(result.window.start for result in report.results.for_query("q1")) == 20

    def test_apply_churn_op_dispatches(self, panes):
        _engine, session = self._session(panes)
        assert session.apply_churn_op(ChurnOp("attach", 4, query=make_query("j", ("C", "D")))) == 4
        assert session.apply_churn_op(ChurnOp("detach", 6, query_name="j")) == 6
        plan = SharingPlan([SharingCandidate(Pattern(("A", "B")), ("q1", "q2"))])
        assert session.apply_churn_op(ChurnOp("plan", 8, plan=plan)) == 8
        assert session.compiled.plan == plan and len(session.workload) == 2
        entry = session.churn_history()[-1]
        assert (entry["op"], entry["at"], entry["query"]) == ("plan", 8, "")

    def test_ops_that_do_not_apply_are_churn_errors(self, panes):
        _engine, session = self._session(panes)
        inactive = SharingPlan([SharingCandidate(Pattern(("A", "B")), ("q1", "gone"))])
        with pytest.raises(ChurnError, match=r"not in the workload: \['gone'\]"):
            session.apply_churn_op(ChurnOp("plan", 3, plan=inactive))
        absent = SharingPlan([SharingCandidate(Pattern(("C", "D")), ("q1", "q2"))])
        with pytest.raises(ChurnError, match="does not occur"):
            session.apply_churn_op(ChurnOp("plan", 3, plan=absent))
        with pytest.raises(ChurnError, match="duplicate query name"):
            session.apply_churn_op(ChurnOp("attach", 3, query=make_query("q2")))
        with pytest.raises(ChurnError, match="unknown query"):
            session.apply_churn_op(ChurnOp("detach", 3, query_name="nope"))
        assert session.churn_history() == []

    def test_restore_refuses_a_snapshot_with_different_churn(self, panes):
        engine, session = self._session(panes)
        session.attach_query(make_query("joiner", ("C", "D")))
        snapshot = session.export_state()
        fresh = make_engine(panes=panes).new_session()
        with pytest.raises(ValueError, match="churn history"):
            fresh.restore_state(snapshot)


def test_a_zombie_shared_state_reads_a_column_its_detach_dropped_as_none():
    """``summed`` is the only reader of ``x``; detaching it inside an open window
    drops ``x`` from the layout while that window's scope still tracks ``SUM(C.x)``
    in the (B, C) state it shares with ``counted``.  The zombie reads ``None``,
    nothing raises, and ``counted`` still equals the oracle."""
    summed = Query(Pattern(("A", "B", "C")), WINDOW, AggregateSpec.sum("C", "x"), name="summed")
    counted = make_query("counted", ("D", "B", "C"))
    workload = Workload([summed, counted])
    plan = SharingPlan([SharingCandidate(Pattern(("B", "C")), ("summed", "counted"), 1.0)])
    stream = EventStream.from_tuples(
        [("ADBC"[(t + k) % 4], t, float(t)) for t in range(24) for k in range(2)], ["x"]
    )
    engine = StreamingEngine(workload, plan=plan, panes=False)
    session = engine.new_session()
    report = engine.run(stream, session=session, churn=[ChurnOp("detach", 10, query_name="summed")])
    assert engine.uses_panes is False and session.compiled.layout.attributes == ()
    kept = ResultSet(r for r in report.results if r.query_name == "counted")
    expected = OracleExecutor(Workload([counted])).run(stream).results
    assert kept.nonzero() and kept.matches(expected), kept.differences(expected)[:5]
    assert max(r.window.start for r in report.results.for_query("summed")) == 8


def _switch_combinations():
    """Every value of each online executor's remaining switch, ``panes``."""
    for executor_class in (SharonExecutor, ASeqExecutor):
        for panes in (None, True, False):
            label = f"{executor_class.name}-panes={panes}"
            yield pytest.param(executor_class, {"panes": panes}, id=label)


class TestExecutorChurnWiring:
    def _scenario(self):
        workload = Workload([make_query("base")])
        joiner = make_query("joiner", ("C", "D"))
        schedule = ChurnSchedule([ChurnOp("attach", 4, query=joiner)])
        stream = EventStream.from_tuples(
            [("C", 1), ("D", 2), ("A", 3), ("C", 4), ("D", 5), ("B", 6), ("C", 8), ("D", 9)]
        )
        return workload, schedule, stream

    @pytest.mark.parametrize("executor_class,switches", list(_switch_combinations()))
    def test_churn_combines_with_disorder_tolerance(self, executor_class, switches):
        """Churn and the reorder buffer compose under every switch combination.

        No pair of executor options is refused: a bounded shuffle through the
        buffer, with the schedule applied, matches the in-order default run.
        """
        shared = SharingCandidate(Pattern(("A", "B")), ("s1", "s2"), 1.0)
        workload = Workload([make_query("s1", ("A", "B", "C")), make_query("s2", ("A", "B", "D"))])
        schedule = ChurnSchedule(
            [
                ChurnOp("attach", 6, query=make_query("joiner", ("C", "D"))),
                ChurnOp("detach", 14, query_name="s2"),
            ]
        )
        stream = EventStream.from_tuples(
            [("ABCD"[(3 * t + k) % 4], t) for t in range(24) for k in range(3)]
        )
        kwargs = {"plan": SharingPlan([shared])} if executor_class is SharonExecutor else {}
        in_order = executor_class(workload, churn=schedule, **kwargs).run(stream)
        assert in_order.results.nonzero()
        shuffled = bounded_shuffle(stream, max_lateness=2, seed=3)
        assert [e.timestamp for e in shuffled] != [e.timestamp for e in stream]
        combined = executor_class(workload, churn=schedule, max_lateness=2, **kwargs, **switches)
        report = combined.run(shuffled)
        assert report.metrics.events_late == 0
        assert report.results.matches(in_order.results)

    @pytest.mark.parametrize("executor_class", [SharonExecutor, ASeqExecutor])
    def test_attached_query_emits_only_gated_windows(self, executor_class):
        workload, schedule, stream = self._scenario()
        kwargs = {"plan": SharingPlan()} if executor_class is SharonExecutor else {}
        results = executor_class(workload, churn=schedule, **kwargs).run(stream).results
        joiner = ResultSet(r for r in results if r.query_name == "joiner").nonzero()
        assert joiner, "the attached query never emitted"
        assert all(r.window.start >= 4 for r in joiner)
        # The pre-attach (C, D) pair at t=1..2 lives only in windows starting
        # before the gate; the window at the gate counts the post-attach pairs.
        gated = SharonExecutor(Workload([make_query("joiner", ("C", "D"))]), plan=SharingPlan())
        reference = gated.run(stream).results
        expected = ResultSet(r for r in reference if r.window.start >= 4)
        assert ResultSet(r for r in results if r.query_name == "joiner").matches(expected)


@pytest.mark.parametrize("panes", [False, True], ids=["instances", "panes"])
def test_a_plan_op_equals_a_bare_migrate(panes):
    """A scheduled plan op is ``session.migrate(workload, plan)`` plus a history entry."""
    workload = Workload([make_query("q1", ("A", "B", "C")), make_query("q2", ("A", "B", "D"))])
    plan = SharingPlan([SharingCandidate(Pattern(("A", "B")), ("q1", "q2"))])
    rows = [("ABCD"[(3 * t + k) % 4], t) for t in range(24) for k in range(3)]
    stream = EventStream.from_tuples(rows)
    scheduled = StreamingEngine(workload, panes=panes)
    via_op = scheduled.run(stream, churn=[ChurnOp("plan", 9, plan=plan)])
    session = StreamingEngine(workload, panes=panes).new_session()
    for timestamp, _batch in session.drive(stream):
        if timestamp == 8:
            session.migrate(workload, plan)
    bare = session.finish()
    assert encode_result_lines(via_op.results) == encode_result_lines(bare.results)
    assert via_op.metrics.state_updates == bare.metrics.state_updates
    assert via_op.plan == bare.plan == plan
    if not panes:  # the plan acts: shared cohorts after the switch
        assert via_op.metrics.cohorts_created > 0


class TestDescribeChurnOp:
    def test_attach_descriptions_carry_the_query_structure(self):
        op = ChurnOp("attach", 7, query=make_query("j", ("C", "D")))
        description = describe_churn_op(op)
        assert description["op"] == "attach"
        assert description["at"] == 7
        assert description["query"]["name"] == "j"
        assert description["query"]["pattern"] == ["C", "D"]

    def test_detach_descriptions_carry_only_the_name(self):
        description = describe_churn_op(ChurnOp("detach", 9, query_name="q1"))
        assert description == {"op": "detach", "at": 9, "query": "q1"}

    def test_plan_descriptions_carry_the_candidates(self):
        plan = SharingPlan([SharingCandidate(Pattern(("A", "B")), ("q1", "q2"))])
        description = describe_churn_op(ChurnOp("plan", 4, plan=plan))
        assert description == {
            "op": "plan", "at": 4, "query": "", "plan": [[["A", "B"], ["q1", "q2"]]]
        }
