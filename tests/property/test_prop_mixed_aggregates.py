"""Property-based checks on mixed-aggregate workloads over float-valued streams.

The other executor property suites draw COUNT(*) workloads; here every
aggregate kind (COUNT(*), COUNT(E), SUM, MIN, MAX, AVG) is mixed into one
workload and the streams carry float edge cases — signed zeros, ties,
``None`` holes, and magnitudes whose sum depends on the order of addition.

Three properties:

1. every corner of the columnar × panes × compaction toggle cube returns
   the oracle's results,
2. so does the non-shared A-Seq engine in both window strategies and on
   both ingestion paths, and
3. the two ingestion paths — columnar micro-batches and the scalar
   per-event path — leave *byte-identical* session state behind (the
   ``columnar_batches`` counter, which counts the path itself, aside), so no
   float reaches the state through a different order of addition on one path.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.events import Event, EventStream, SlidingWindow
from repro.executor import ASeqExecutor, OracleExecutor, SharonExecutor, StreamingEngine
from repro.queries import AggregateSpec, Pattern, PredicateSet, Query, Workload
from repro.replay import canonical_json

from ..conftest import random_maximal_plan

EVENT_TYPES = ["A", "B", "C", "D"]

#: Values whose sums stay within the result tolerance in any order.
TOLERANT_VALUES = [0.0, -0.0, 1.5, -1.5, 0.1, 0.2, 0.3, 7.25, -3.0]

#: The same palette plus magnitudes whose sum is order-sensitive in binary64.
ORDER_SENSITIVE_VALUES = TOLERANT_VALUES + [1e15, -1e15]


def _aggregate_for(draw, target_type):
    kind = draw(st.sampled_from(["star", "count", "sum", "min", "max", "avg"]))
    if kind == "star":
        return AggregateSpec.count_star()
    if kind == "count":
        return AggregateSpec.count(target_type)
    return getattr(AggregateSpec, kind)(target_type, "value")


@st.composite
def workloads(draw):
    """Small workloads mixing every aggregate kind over types A-D."""
    window_size = draw(st.sampled_from([6, 8, 12]))
    slide = min(draw(st.sampled_from([3, 4, window_size])), window_size)
    window = SlidingWindow(size=window_size, slide=slide)
    predicates = PredicateSet.same("entity") if draw(st.booleans()) else PredicateSet()
    queries = []
    for index in range(draw(st.integers(min_value=2, max_value=4))):
        length = draw(st.integers(min_value=2, max_value=3))
        types = draw(
            st.lists(st.sampled_from(EVENT_TYPES), min_size=length, max_size=length, unique=True)
        )
        queries.append(
            Query(
                pattern=Pattern(types),
                window=window,
                aggregate=_aggregate_for(draw, draw(st.sampled_from(types))),
                predicates=predicates,
                name=f"mq{index}",
            )
        )
    return Workload(queries)


@st.composite
def streams(draw, values):
    """Short random streams with two entities; some events lack ``value``."""
    length = draw(st.integers(min_value=5, max_value=40))
    events = []
    for event_id in range(length):
        event_type = draw(st.sampled_from(EVENT_TYPES))
        timestamp = draw(st.integers(min_value=0, max_value=25))
        attrs = {"entity": draw(st.integers(min_value=0, max_value=1))}
        if draw(st.booleans()):
            attrs["value"] = draw(st.sampled_from(values))
        events.append(Event(event_type, timestamp, attrs, event_id))
    return EventStream(events)


@settings(max_examples=25, deadline=None)
@given(workloads(), streams(TOLERANT_VALUES), st.integers(min_value=0, max_value=10))
def test_mixed_aggregates_match_the_oracle_across_the_toggle_cube(workload, stream, plan_seed):
    """Every corner of the 2×2×2 cube returns the oracle's results."""
    plan = random_maximal_plan(workload, plan_seed)
    oracle = OracleExecutor(workload).run(stream).results
    for columnar in (False, True):
        for panes in (False, True):
            for compaction in (False, True):
                results = (
                    SharonExecutor(
                        workload,
                        plan=plan,
                        columnar=columnar,
                        panes=panes,
                        compaction=compaction,
                    )
                    .run(stream)
                    .results
                )
                assert results.matches(oracle), (
                    list(plan),
                    (columnar, panes, compaction),
                    results.differences(oracle)[:5],
                )


@settings(max_examples=25, deadline=None)
@given(workloads(), streams(TOLERANT_VALUES))
def test_non_shared_engine_matches_the_oracle_on_mixed_aggregates(workload, stream):
    """A-Seq (no sharing plan) returns the oracle's results on every path."""
    oracle = OracleExecutor(workload).run(stream).results
    for columnar in (False, True):
        for panes in (False, True):
            results = ASeqExecutor(workload, panes=panes, columnar=columnar).run(stream).results
            assert results.matches(oracle), (
                (columnar, panes),
                results.differences(oracle)[:5],
            )


@settings(max_examples=15, deadline=None)
@given(workloads(), streams(ORDER_SENSITIVE_VALUES), st.integers(min_value=0, max_value=10))
def test_ingestion_paths_reach_byte_identical_final_state(workload, stream, plan_seed):
    """Columnar and scalar ingestion export the same bytes at the end of the stream.

    Stronger than result equality: the export covers results, metrics
    counters and all residual engine state, and the stream's values make a
    float sum depend on its order of addition.
    """
    plan = random_maximal_plan(workload, plan_seed)

    def final_export(columnar, panes, compaction):
        engine = StreamingEngine(
            workload, plan, panes=panes, columnar=columnar, compaction=compaction
        )
        session = engine.new_session()
        engine.run(stream, session=session)
        export = session.export_state()
        export["metrics"]["columnar_batches"] = 0
        return canonical_json(export)

    for panes in (False, True):
        for compaction in (False, True):
            assert final_export(True, panes, compaction) == final_export(
                False, panes, compaction
            ), f"panes={panes}, compaction={compaction}: the ingestion paths left different states"
