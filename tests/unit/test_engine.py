"""Unit tests for the shared-online streaming engine."""

from __future__ import annotations

import importlib
import importlib.util

import pytest

from repro.core import SharingCandidate, SharingPlan
from repro.events import (
    Event,
    EventLogReader,
    EventStream,
    SlidingWindow,
    WindowInstance,
    write_event_log,
)
from repro.datasets.synthetic import ChainConfig, chain_stream, chain_workload
from repro.datasets.workloads import PANE_STRESS_WINDOWS, random_maximal_plan
from repro.executor import (
    ASeqExecutor,
    ChurnOp,
    CompiledWorkload,
    OracleExecutor,
    SharonExecutor,
    StreamingEngine,
)
from repro.executor.engine import EngineSession
from repro.queries import AggregateSpec, Pattern, PredicateSet, Query, Workload
from repro.replay import ReplayRunner

from ..conftest import make_events


def make_workload(window=None, predicates=None):
    window = window or SlidingWindow(size=10, slide=5)
    predicates = predicates if predicates is not None else PredicateSet()
    queries = [
        Query(pattern=Pattern(["A", "B"]), window=window, predicates=predicates, name="q1"),
        Query(pattern=Pattern(["A", "B", "C"]), window=window, predicates=predicates, name="q2"),
    ]
    return Workload(queries)


def _construct_with(owner: str, **options):
    """Build ``owner`` from :func:`make_workload`, passing ``options`` through."""
    from repro.executor.chained import QueryChainState
    from repro.executor.prefix_agg import SharedSegmentState

    workload = make_workload()
    if owner == "QueryChainState":
        decomposition = SharingPlan().decompose(workload)["q1"]
        return QueryChainState(workload["q1"], decomposition, {}, **options)
    if owner == "SharedSegmentState":
        return SharedSegmentState(Pattern(["A", "B"]), [AggregateSpec.count_star()], **options)
    if owner == "ASeqExecutor":
        return ASeqExecutor(workload, **options)
    owners = {
        "StreamingEngine": StreamingEngine,
        "CompiledWorkload": CompiledWorkload,
        "SharonExecutor": SharonExecutor,
        "ReplayRunner": ReplayRunner,
    }
    return owners[owner](workload, plan=SharingPlan(), **options)


#: The shared state's removed coalescing keyword, assembled from parts so
#: that a grep of the tree for it finds no remaining user.
AUTO_COMPACT = "auto_" + "compact"

#: Keywords that were deleted with their feature: ``backend=`` (one numeric
#: path) from every former owner, group sharding from both executors, and the
#: scalar ingestion and uncoalesced cohort switches (one routing loop, one
#: cohort layout) from every layer that carried them.
REMOVED_KEYWORDS = [
    pytest.param(owner, "backend", "python", id=owner)
    for owner in (
        "StreamingEngine",
        "CompiledWorkload",
        "SharonExecutor",
        "ASeqExecutor",
        "ReplayRunner",
        "QueryChainState",
    )
] + [
    pytest.param(owner, keyword, value, id=f"{owner}-{keyword}")
    for owner in ("SharonExecutor", "ASeqExecutor")
    for keyword, value in (("shards", 2), ("shard_strategy", "hash"), ("start_method", "spawn"))
] + [
    pytest.param(owner, keyword, False, id=f"{owner}-{keyword}")
    for owner in ("StreamingEngine", "SharonExecutor", "ASeqExecutor", "ReplayRunner")
    for keyword in ("columnar", "compaction")
] + [
    pytest.param("CompiledWorkload", "compaction", False, id="CompiledWorkload-compaction"),
    pytest.param("SharedSegmentState", AUTO_COMPACT, True, id="SharedSegmentState-coalescing"),
]


@pytest.mark.parametrize("owner,keyword,value", REMOVED_KEYWORDS)
def test_no_constructor_takes_a_backend(owner, keyword, value):
    """Deleted switches stay deleted: every former owner refuses the keyword."""
    _construct_with(owner)  # the same arguments without it build fine
    with pytest.raises(TypeError, match=keyword):
        _construct_with(owner, **{keyword: value})


#: Names deleted with their feature, as ``module:attribute.path`` (``Name()``
#: builds an instance over :func:`make_workload`): the group sharding layer,
#: the second benchmark system, the helpers only they used, the engine's
#: ingestion and cohort-layout switches, the engine-level migration setters
#: (``EngineSession.migrate`` is the one way to change a live engine), the
#: two session classes folded into the one :class:`EngineSession`, the
#: in-memory stream's per-layout batch cache and mutators, and the event
#: schemas and public names that no program path called.
REMOVED_NAMES = [
    "repro.executor:StreamingEngine.set_plan",
    "repro.executor:StreamingEngine.set_workload",
    "repro.executor.engine:_resolve_churn_plan",
    "repro.executor:ShardedEngine",
    "repro.executor:ShardPlanner",
    "repro.executor:ShardPlan",
    "repro.executor:stable_group_hash",
    "repro.events:columnar_batches",
    "repro.events:ColumnarBatch.count_groups",
    "repro.events:ColumnarBatch.slice_by_shard",
    "repro.experiments:run_engine_benchmark",
    "repro.cli:BENCH_SECTION_NAMES",
    "repro.executor:StreamingEngine().columnar",
    "repro.executor:StreamingEngine().compaction",
    "repro.executor:CompiledWorkload().compaction",
    f"repro.executor:SharedSegmentState.{AUTO_COMPACT}",
    "repro.executor.engine:PaneEngineSession",
    "repro.executor.engine:SessionBase",
    "repro.executor:PaneEngineSession",
    "repro.datasets:random_scenario",
    "repro.datasets:random_churn_scenario",
    "repro.datasets:describe_scenario",
    "repro.datasets:taxi_schema_registry",
    "repro.datasets:linear_road_schema_registry",
    "repro.datasets:ecommerce_schema_registry",
    "repro.executor:enumerate_query_matches",
    "repro.executor:count_pattern_matches",
    "repro.events:interleave_by_timestamp",
    "repro.experiments:format_bar_chart",
    "repro.experiments:format_ratio",
    "repro.core:enumerate_valid_plans",
    "repro.utils:require_positive",
    "repro.utils:require_non_negative",
    "repro.utils:require_non_empty",
    "repro.utils:require_in",
    "repro.events:ColumnarBatch.events_at",
    "repro.executor.prefix_agg:group_by_position",
    "repro.executor.prefix_agg:positions_by_type",
    "repro.executor.prefix_agg:_summarise_bucket",
    "repro.executor.prefix_agg:SharedAnchor",
    "repro.executor:SharedAnchor",
    "repro.executor:SharedSegmentState.anchor_starts",
    "repro.executor:SharedSegmentState.staged_new_anchors",
    "repro.executor:SharedSegmentState.anchors",
    "repro.executor:SharedSegmentState.handles",
    "repro.executor:SharedSegmentState.completed_column",
    "repro.executor.prefix_agg:_CountColumns.column_states",
    "repro.executor.prefix_agg:_StateColumns.column_states",
    "repro.executor:SharedSegmentRunner.count_combinations",
    "repro.executor:SharedSegmentRunner.combinations",
    "repro.executor:PrefixFreeRunner.combinations",
    "repro.executor:QueryChainState.finalize_value",
    "repro.events.stream:_in_stream_order",
    "repro.events:EventStream.columnar_batches",
    "repro.events:EventStream.append",
    "repro.events:EventStream.extend",
    "repro.events:EventStream._store",
    "repro.events.stream:_COLUMNAR_CACHE_LIMIT",
    "repro.events.stream:_merged",
    "repro.events:ColumnLayout._hash",
    "repro:EventSchema",
    "repro.events:schema",
    "repro.events:AttributeSpec",
    "repro.events:EventSchema",
    "repro.events:SchemaRegistry",
    "repro.events:SchemaValidationError",
    "repro.events:read_event_log",
    "repro.events.log:read_event_log",
    "repro.datasets:ecommerce_workload_scaled",
    "repro.core:BenefitModel.workload_non_shared_cost",
    "repro.core:SharingCandidate.is_beneficial",
    "repro.core:SharingCandidate.shares_query_with",
    "repro.core:ConflictDetector.all_conflicts",
    "repro.core:SharingConflict.involves",
    "repro.core:SharonGraph.is_conflict_free",
    "repro.core:SharonGraph.total_weight",
    "repro.core:QueryDecomposition.uses_sharing",
    "repro.core:ReductionResult.pruned_count",
    "repro.events:ReorderBuffer.is_late",
    "repro.events:Event.with_attributes",
    "repro.events:SlidingWindow.covers_span",
    "repro.events:SlidingWindow.is_tumbling",
    "repro.events:SlidingWindow.panes_per_window",
    "repro.executor:MetricsCollector.record_memory_bytes",
    "repro.utils:PeakMemoryTracker.record",
    "repro.executor:RunMetrics.latency_seconds",
    "repro.executor:ResultSet.for_window",
    "repro.queries:Pattern.mid_types",
    "repro.queries:Pattern.has_repeated_types",
    "repro.queries:Workload.max_pattern_length",
    "repro.queries:Workload.queries_containing",
    "repro.utils:RateCatalog.from_mapping",
    "repro.utils:RateCatalog.set_rate",
    "repro.executor.prefix_agg:_I64_MAX",
]


@pytest.mark.parametrize("name", REMOVED_NAMES)
def test_deleted_names_stay_deleted(name):
    module_name, _, path = name.partition(":")
    owner = importlib.import_module(module_name)
    *parents, last = path.split(".")
    for part in parents:
        owner = getattr(owner, part.removesuffix("()"))
        if part.endswith("()"):
            owner = owner(make_workload())
    assert not hasattr(owner, last)


@pytest.mark.parametrize("panes", [False, True], ids=["instances", "panes"])
@pytest.mark.parametrize("method", ["attach_query", "detach_query"])
def test_churn_methods_take_no_rates(method, panes):
    """Churn plans are explicit or derived, never re-optimized: replays must resume."""
    session = StreamingEngine(make_workload(), panes=panes).new_session()
    target = Query(Pattern(["C", "D"]), SlidingWindow(10, 5), name="q3")
    argument = target if method == "attach_query" else "q1"
    with pytest.raises(TypeError, match="rates"):
        getattr(session, method)(argument, rates=object())


@pytest.mark.parametrize("panes", [False, True], ids=["instances", "panes"])
def test_one_session_class_runs_either_strategy(panes):
    session = StreamingEngine(make_workload(), panes=panes).new_session()
    assert type(session) is EngineSession
    assert session.mode == ("panes" if panes else "instances")


@pytest.mark.parametrize("panes", [False, True], ids=["instances", "panes"])
def test_session_methods_timed_by_the_benchmark_probes_run_under_both_strategies(
    panes, monkeypatch
):
    """``bench/probes.py`` wraps these four methods: both strategies must go through them."""
    calls = []
    for method in ("step", "apply_churn_op", "export_state", "restore_state"):
        original = getattr(EngineSession, method)

        def counted(self, *args, _name=method, _original=original, **kwargs):
            calls.append(_name)
            return _original(self, *args, **kwargs)

        monkeypatch.setattr(EngineSession, method, counted)
    workload = make_workload()
    engine = StreamingEngine(workload, panes=panes)
    late = Query(Pattern(["B", "C"]), workload[0].window, name="late")
    events = make_events([("A", 1), ("B", 2), ("C", 13), ("B", 14), ("C", 16)])
    report = engine.run(EventStream(events), churn=[ChurnOp("attach", 10, query=late)])
    engine.new_session().restore_state(engine.new_session().export_state())
    assert set(calls) == {"step", "apply_churn_op", "export_state", "restore_state"}
    assert calls.count("step") == 5 and report.results.value("late", WindowInstance(10, 20)) == 1


@pytest.mark.parametrize("module_name", ["repro.executor.sharding", "repro.experiments.bench"])
def test_deleted_modules_stay_deleted(module_name):
    assert importlib.util.find_spec(module_name) is None


class TestCompiledWorkload:
    def test_rejects_empty_workload(self):
        with pytest.raises(ValueError, match="empty workload"):
            CompiledWorkload(Workload())

    def test_rejects_non_uniform_workload(self):
        queries = [
            Query(pattern=Pattern(["A", "B"]), window=SlidingWindow(10, 5), name="u1"),
            Query(pattern=Pattern(["A", "B"]), window=SlidingWindow(20, 5), name="u2"),
        ]
        with pytest.raises(ValueError, match="uniform workload"):
            CompiledWorkload(Workload(queries))

    def test_relevant_types_and_grouping(self):
        workload = make_workload(predicates=PredicateSet.same("vehicle"))
        compiled = CompiledWorkload(workload)
        assert compiled.relevant_types == {"A", "B", "C"}
        assert compiled.partition_attributes == ("vehicle",)
        event = make_events([("A", 1, {"vehicle": 9})])[0]
        assert compiled.group_key(event) == (9,)
        assert compiled.is_relevant(event)
        assert not compiled.is_relevant(make_events([("Z", 1)])[0])

    def test_shared_specs_collected_per_pattern(self):
        workload = make_workload()
        candidate = SharingCandidate(Pattern(["A", "B"]), ("q1", "q2"), 1.0)
        compiled = CompiledWorkload(workload, SharingPlan([candidate]))
        assert Pattern(["A", "B"]) in compiled.shared_specs
        assert compiled.shared_specs[Pattern(["A", "B"])] == (AggregateSpec.count_star(),)


    def test_dispatch_routes_by_type_set_and_is_memoised(self):
        """(A, B) is shared as the head of both queries; only q2's private C is staged."""
        workload = make_workload()
        candidate = SharingCandidate(Pattern(["A", "B"]), ("q1", "q2"), 1.0)
        compiled = CompiledWorkload(workload, SharingPlan([candidate]))
        assert compiled.dispatch(frozenset({"A"})) == ((0,), ())
        assert compiled.dispatch(frozenset({"B", "C"})) == ((0,), (1,))
        assert compiled.dispatch(frozenset({"C", "Z"})) == ((), (1,))
        assert compiled.dispatch(frozenset({"A"})) is compiled.dispatch(frozenset({"A"}))
        # Without a plan every chain is private and observes all of its types.
        unshared = CompiledWorkload(workload)
        assert unshared.dispatch(frozenset({"A"})) == ((), (0, 1))
        assert unshared.dispatch(frozenset({"C"})) == ((), (1,))

    def test_dispatch_cache_is_bounded(self, monkeypatch):
        from repro.executor import engine

        monkeypatch.setattr(engine, "_DISPATCH_CACHE_LIMIT", 2)
        compiled = CompiledWorkload(make_workload())
        for types in ({"A"}, {"B"}, {"C"}, {"A", "B"}, {"A", "C"}):
            compiled.dispatch(frozenset(types))
            assert len(compiled._dispatch_cache) <= 2
        assert compiled.dispatch(frozenset({"A", "C"})) == ((), (0, 1))


class TestEngineWindowing:
    def test_tumbling_window_results(self):
        workload = make_workload(window=SlidingWindow(size=10, slide=10))
        engine = StreamingEngine(workload)
        events = make_events([("A", 1), ("B", 3), ("A", 11), ("B", 12), ("C", 13)])
        report = engine.run(EventStream(events))
        assert report.results.value("q1", WindowInstance(0, 10)) == 1
        assert report.results.value("q1", WindowInstance(10, 20)) == 1
        assert report.results.value("q2", WindowInstance(0, 10)) == 0
        assert report.results.value("q2", WindowInstance(10, 20)) == 1

    def test_sliding_window_assigns_sequences_to_all_covering_windows(self):
        workload = make_workload(window=SlidingWindow(size=10, slide=5))
        engine = StreamingEngine(workload)
        events = make_events([("A", 6), ("B", 8)])
        report = engine.run(EventStream(events))
        # The sequence (a6, b8) lies in windows [0,10) and [5,15).
        assert report.results.value("q1", WindowInstance(0, 10)) == 1
        assert report.results.value("q1", WindowInstance(5, 15)) == 1

    def test_sequence_must_fit_in_one_window(self):
        workload = make_workload(window=SlidingWindow(size=10, slide=5))
        engine = StreamingEngine(workload)
        events = make_events([("A", 2), ("B", 13)])
        report = engine.run(EventStream(events))
        # a2 is only in [0,10); b13 only in [5,15) and [10,20): no common window.
        assert all(result.value == 0 for result in report.results.for_query("q1"))

    def test_windows_finalized_incrementally(self):
        workload = make_workload(window=SlidingWindow(size=10, slide=10))
        engine = StreamingEngine(workload)
        events = make_events([("A", 1), ("B", 2), ("A", 25)])
        report = engine.run(EventStream(events))
        # Two window instances saw relevant events: [0,10) and [20,30).
        assert report.metrics.windows_finalized == 2

    def test_empty_stream(self):
        workload = make_workload()
        report = StreamingEngine(workload).run(EventStream())
        assert len(report.results) == 0
        assert report.metrics.total_events == 0


class TestEngineGroupingAndPredicates:
    def test_equivalence_predicate_partitions_matches(self):
        workload = make_workload(predicates=PredicateSet.same("vehicle"))
        engine = StreamingEngine(workload)
        events = make_events(
            [
                ("A", 1, {"vehicle": 1}),
                ("B", 2, {"vehicle": 1}),
                ("A", 3, {"vehicle": 2}),
                ("B", 4, {"vehicle": 1}),
            ]
        )
        report = engine.run(EventStream(events))
        window = WindowInstance(0, 10)
        assert report.results.value("q1", window, (1,)) == 2  # (a1,b2), (a1,b4)
        assert report.results.value("q1", window, (2,)) == 0  # a3 has no same-vehicle B

    def test_filter_predicate_drops_events(self):
        predicates = PredicateSet(filters=())
        from repro.queries import FilterPredicate

        predicates = PredicateSet(filters=[FilterPredicate("speed", ">", 10)])
        workload = make_workload(predicates=predicates)
        engine = StreamingEngine(workload)
        events = make_events(
            [("A", 1, {"speed": 20}), ("B", 2, {"speed": 5}), ("B", 3, {"speed": 30})]
        )
        report = engine.run(EventStream(events))
        assert report.results.value("q1", WindowInstance(0, 10)) == 1
        assert report.metrics.relevant_events == 2

    def test_group_by_attribute(self):
        window = SlidingWindow(size=10, slide=10)
        queries = [
            Query(
                pattern=Pattern(["A", "B"]),
                window=window,
                group_by=("route",),
                name="g1",
            )
        ]
        workload = Workload(queries)
        engine = StreamingEngine(workload)
        events = make_events(
            [
                ("A", 1, {"route": "r1"}),
                ("B", 2, {"route": "r1"}),
                ("A", 3, {"route": "r2"}),
                ("B", 4, {"route": "r2"}),
            ]
        )
        report = engine.run(EventStream(events))
        assert report.results.value("g1", WindowInstance(0, 10), ("r1",)) == 1
        assert report.results.value("g1", WindowInstance(0, 10), ("r2",)) == 1


class TestEngineWithSharingPlan:
    def test_shared_and_private_results_agree(self):
        workload = make_workload(window=SlidingWindow(size=20, slide=10))
        candidate = SharingCandidate(Pattern(["A", "B"]), ("q1", "q2"), 1.0)
        rows = [("A", 1), ("B", 2), ("A", 3), ("B", 5), ("C", 6), ("C", 14), ("A", 15), ("B", 17)]
        shared_report = StreamingEngine(workload, SharingPlan([candidate]), panes=False).run(
            EventStream(make_events(rows))
        )
        plain_report = StreamingEngine(workload, panes=False).run(EventStream(make_events(rows)))
        assert shared_report.results.matches(plain_report.results)
        assert shared_report.plan is not None and len(shared_report.plan) == 1

    def test_memory_sampling_populates_peak(self):
        workload = make_workload()
        engine = StreamingEngine(workload, memory_sample_interval=1)
        rows = [("A", 1), ("B", 2), ("A", 11), ("B", 12)]
        report = engine.run(EventStream(make_events(rows)))
        assert report.metrics.peak_memory_bytes > 0

    def test_accepts_plain_event_iterables(self):
        workload = make_workload()
        report = StreamingEngine(workload).run(make_events([("A", 1), ("B", 2)]))
        assert report.metrics.total_events == 2


def routing_scenario(tmp_path):
    """``(workload, joiner, events, log path)``: a churn that changes the column layout."""
    window = SlidingWindow(size=10, slide=5)
    predicates = PredicateSet.same("entity")
    workload = Workload(
        [Query(pattern=Pattern(["A", "B"]), window=window, predicates=predicates, name="q1")]
    )
    # Attached at t=4: C joins the layout's types, so C rows become
    # relevant from the trigger batch on (and only from there).
    joiner = Query(pattern=Pattern(["B", "C"]), window=window, predicates=predicates, name="q2")
    rows = [
        (kind, t, {"entity": (t + i) % 2, "value": i})
        for t in range(9)
        for i, kind in enumerate("ABCZC"[: 2 + t % 4])
    ]
    events = make_events(rows)
    log_path = tmp_path / "events.jsonl"
    write_event_log(events, log_path, fsync_every=3)  # frames split inside timestamps
    return workload, joiner, events, log_path


#: Every source the routing loop adapts, as ``(events, log path) -> (source, max_lateness)``.
ROUTING_SOURCES = {
    "event-stream": lambda events, log_path: (EventStream(events), None),
    "iterable": lambda events, log_path: (iter(events), None),
    "log-reader": lambda events, log_path: (EventLogReader(log_path), None),
    "log-events": lambda events, log_path: (EventLogReader(log_path).events_from(0), None),
    "reorder-feed": lambda events, log_path: (EventLogReader(log_path), 2),
}


class TestRoutedBatchesAdapters:
    """One routing loop, five sources: each routes like the per-event reference."""

    @staticmethod
    def _per_event_reference(workload, joiner, events):
        """Route every event through ``is_relevant``/``group_key``, no columns involved."""
        before = CompiledWorkload(workload)
        after = CompiledWorkload(Workload([*workload, joiner]))
        seen = []
        for timestamp in sorted({event.timestamp for event in events}):
            compiled = after if timestamp >= 4 else before
            batch = [event for event in events if event.timestamp == timestamp]
            groups = {}
            for event in batch:
                if compiled.is_relevant(event):
                    groups.setdefault(compiled.group_key(event), []).append(event)
            seen.append((timestamp, len(batch), groups or None))
        return seen

    @pytest.mark.parametrize("source", ROUTING_SOURCES)
    def test_every_source_routes_like_the_per_event_reference_across_a_layout_change(
        self, source, tmp_path
    ):
        workload, joiner, events, log_path = routing_scenario(tmp_path)
        stream, max_lateness = ROUTING_SOURCES[source](events, log_path)
        engine = StreamingEngine(workload, max_lateness=max_lateness)
        session = engine.new_session()
        applied = []

        def before_batch(timestamp):
            if timestamp >= 4 and not applied:
                applied.append(session.apply_churn_op(ChurnOp("attach", 4, query=joiner)))

        seen = []
        for timestamp, batch, groups in session.routed_batches(
            session.ingest(stream), before_batch=before_batch
        ):
            assert [e.timestamp for e in batch] == [timestamp] * len(batch)
            # Groups hold row indices; as events they are the reference's, in batch order.
            rows_as_events = list(batch)
            routed = groups and {k: [rows_as_events[i] for i in rows] for k, rows in groups.items()}
            seen.append((timestamp, len(batch), routed))
            session.step(timestamp, batch, groups)
        assert applied == [4]

        reference = self._per_event_reference(workload, joiner, events)
        assert [size for _t, size, _g in reference] == [2 + t % 4 for t in range(9)]
        routed_types = [
            {e.event_type for es in (g or {}).values() for e in es} for *_, g in reference
        ]
        assert "C" not in set().union(*routed_types[:4])
        assert "C" in set().union(*routed_types[4:])
        assert seen == reference
        counters = session.collector.export_counters()
        assert counters["columnar_batches"] == len(reference)
        assert counters["total_events"] == len(events)
        assert counters["relevant_events"] == sum(
            len(es) for *_, g in reference for es in (g or {}).values()
        )

    def test_a_seek_inside_a_frame_routes_like_the_tail(self, tmp_path):
        workload, _joiner, _events, log_path = routing_scenario(tmp_path)
        engine = StreamingEngine(workload)
        tail = [
            (t, len(batch))
            for t, batch, _groups in engine.new_session().routed_batches(
                EventLogReader(log_path, start=4)
            )
        ]
        assert tail == [(1, 1)] + [(t, 2 + t % 4) for t in range(2, 9)]


#: Geometries on both sides of the rule: overlapping windows run panes,
#: tumbling ones (6/6) the per-instance loop.
STRATEGY_GEOMETRIES = tuple(PANE_STRESS_WINDOWS) + ((20, 10), (40, 8), (21, 10))


class TestWindowStrategyChoice:
    @pytest.mark.parametrize("size,slide", STRATEGY_GEOMETRIES)
    def test_default_resolves_by_the_geometry_rule(self, size, slide):
        window = SlidingWindow(size=size, slide=slide)
        expected = size > slide
        assert StreamingEngine.panes_eligible(window) is expected
        workload = make_workload(window=window)
        engine = StreamingEngine(workload)
        assert engine.panes is None and engine.uses_panes is expected
        mode = "panes" if expected else "instances"
        assert engine.new_session().mode == mode
        assert ReplayRunner(workload).engine_config["mode"] == mode

    def test_the_geometries_the_issue_names(self):
        verdicts = {
            (size, slide): StreamingEngine.panes_eligible(SlidingWindow(size, slide))
            for size, slide in STRATEGY_GEOMETRIES
        }
        assert verdicts[20, 10] and verdicts[40, 8] and verdicts[12, 8] and verdicts[7, 2]
        # Narrow panes too (no width carve-out; docs/engine.md has the measurements).
        assert verdicts[21, 10] and verdicts[7, 3] and verdicts[8, 6]
        assert not verdicts[6, 6]

    @pytest.mark.parametrize("size,slide", STRATEGY_GEOMETRIES)
    def test_overrides_pin_the_strategy_and_report_it(self, size, slide):
        workload = make_workload(window=SlidingWindow(size=size, slide=slide))
        off = StreamingEngine(workload, panes=False)
        assert not off.uses_panes and off.new_session().mode == "instances"
        assert ReplayRunner(workload, panes=False).engine_config["mode"] == "instances"
        on = StreamingEngine(workload, panes=True)
        # Forcing panes works on every overlapping window; tumbling still falls back.
        assert on.uses_panes is (size != slide)
        forced_mode = "panes" if size != slide else "instances"
        assert ReplayRunner(workload, panes=True).engine_config["mode"] == forced_mode


def many_group_setup():
    """Six chain queries over a stream of twelve entities (one group each)."""
    config = ChainConfig(num_event_types=8)
    workload = chain_workload(
        6, 3, config=config, window=SlidingWindow(size=20, slide=10), seed=5, offset_pool_size=2
    )
    stream = chain_stream(
        duration=30,
        events_per_second=12.0,
        config=config,
        num_entities=12,
        seed=6,
        name="many-groups",
    )
    return workload, stream


@pytest.fixture(scope="module")
def many_groups():
    """``(workload, stream, plan, oracle results)`` of :func:`many_group_setup`."""
    workload, stream = many_group_setup()
    oracle = OracleExecutor(workload).run(stream).results
    return workload, stream, random_maximal_plan(workload, 5), oracle


def _online(approach: str, workload: Workload, plan: SharingPlan, **switches):
    if approach == "Sharon":
        return SharonExecutor(workload, plan=plan, **switches)
    return ASeqExecutor(workload, **switches)


#: Each remaining switch of both online executors, one at a time.
SWITCHES = [
    pytest.param(approach, switches, id=f"{approach}-{label}")
    for approach, options in (
        (
            "Sharon",
            (
                ("default", {}),
                ("panes", {"panes": True}),
                ("instances", {"panes": False}),
                ("reorder", {"max_lateness": 3}),
            ),
        ),
        (
            "A-Seq",
            (
                ("default", {}),
                ("panes", {"panes": True}),
                ("instances", {"panes": False}),
                ("reorder", {"max_lateness": 3}),
            ),
        ),
    )
    for label, switches in options
]


class TestManyGroupStream:
    """Twelve groups through one engine: every switch gives one canonical answer."""

    @pytest.mark.parametrize("approach,switches", SWITCHES)
    def test_every_switch_emits_the_oracle_results_in_canonical_order(
        self, many_groups, approach, switches
    ):
        workload, stream, plan, oracle = many_groups
        report = _online(approach, workload, plan, **switches).run(stream)
        assert report.results.matches(oracle), report.results.differences(oracle)[:5]
        assert len({result.group for result in report.results.nonzero()}) == 12
        # Windows in start order, groups in repr order, queries in workload order.
        order = {query.name: index for index, query in enumerate(workload)}
        keys = [(r.window.start, repr(r.group), order[r.query_name]) for r in report.results]
        assert keys == sorted(keys)

    @pytest.mark.parametrize("approach", ["Sharon", "A-Seq"])
    def test_a_second_run_of_one_executor_repeats_the_first(self, many_groups, approach):
        workload, stream, plan, _oracle = many_groups
        executor = _online(approach, workload, plan)
        first = list(executor.run(stream).results)
        second = list(executor.run(iter(list(stream))).results)
        assert first and first == second

    def test_pane_run_derives_its_ratios_from_its_counters(self, many_groups):
        workload, stream, plan, _oracle = many_groups
        metrics = SharonExecutor(workload, plan=plan, panes=True).run(stream).metrics
        assert metrics.panes_created > 0
        assert metrics.events_per_pane == metrics.relevant_events / metrics.panes_created
        assert metrics.avg_latency_ms == pytest.approx(
            metrics.elapsed_seconds / metrics.windows_finalized * 1000.0
        )

    @pytest.mark.parametrize("approach", ["Sharon", "A-Seq"])
    def test_equivalence_predicates_partition_like_group_by(self, approach):
        """Both partition the matches: results are keyed by (region, entity)."""
        window = SlidingWindow(size=12, slide=6)
        options = {"predicates": PredicateSet.same("entity"), "group_by": ("region",)}
        workload = Workload(
            [
                Query(Pattern(("A", "B")), window, name="e1", **options),
                Query(Pattern(("B", "C")), window, name="e2", **options),
            ]
        )
        cells = [(timestamp, entity) for timestamp in range(24) for entity in range(6)]
        stream = EventStream(
            [
                Event("ABC"[(t + entity) % 3], t, {"entity": entity, "region": entity % 2}, index)
                for index, (t, entity) in enumerate(cells)
            ]
        )
        report = _online(approach, workload, SharingPlan()).run(stream)
        oracle = OracleExecutor(workload).run(stream).results
        assert report.results.matches(oracle), report.results.differences(oracle)[:5]
        groups = {result.group for result in report.results.nonzero()}
        assert groups == {(entity % 2, entity) for entity in range(6)}
