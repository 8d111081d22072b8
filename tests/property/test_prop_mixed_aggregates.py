"""Property-based checks on mixed-aggregate workloads over float-valued streams.

The other executor property suites draw COUNT(*) workloads; here every
aggregate kind (COUNT(*), COUNT(E), SUM, MIN, MAX, AVG) is mixed into one
workload and the streams carry float edge cases — signed zeros, ties,
``None`` holes, and magnitudes whose sum depends on the order of addition.

Three properties:

1. Sharon returns the oracle's results in both window strategies,
2. so does the non-shared A-Seq engine, and
3. the engine's three ingestion adapters — an in-memory stream's cached
   batches, batches built from a plain event iterable, and an event log's
   column rows — leave *byte-identical* session state behind, so no float
   reaches the state through a different order of addition on one adapter.
"""

from __future__ import annotations

import tempfile
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datasets.workloads import random_maximal_plan
from repro.events import Event, EventStream, SlidingWindow
from repro.events.log import EventLogReader, write_event_log
from repro.executor import ASeqExecutor, OracleExecutor, SharonExecutor, StreamingEngine
from repro.queries import AggregateSpec, Pattern, PredicateSet, Query, Workload
from repro.replay import canonical_json


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
def test_mixed_aggregates_match_the_oracle_in_both_window_strategies(workload, stream, plan_seed):
    """Panes and per-instance scopes both return the oracle's results."""
    plan = random_maximal_plan(workload, plan_seed)
    oracle = OracleExecutor(workload).run(stream).results
    for panes in (False, True):
        results = SharonExecutor(workload, plan=plan, panes=panes).run(stream).results
        assert results.matches(oracle), (list(plan), panes, results.differences(oracle)[:5])


@settings(max_examples=25, deadline=None)
@given(workloads(), streams(TOLERANT_VALUES))
def test_non_shared_engine_matches_the_oracle_on_mixed_aggregates(workload, stream):
    """A-Seq (no sharing plan) returns the oracle's results in both window strategies."""
    oracle = OracleExecutor(workload).run(stream).results
    for panes in (False, True):
        results = ASeqExecutor(workload, panes=panes).run(stream).results
        assert results.matches(oracle), (panes, results.differences(oracle)[:5])


@settings(max_examples=15, deadline=None)
@given(workloads(), streams(ORDER_SENSITIVE_VALUES), st.integers(min_value=0, max_value=10))
def test_ingestion_adapters_reach_byte_identical_final_state(workload, stream, plan_seed):
    """Every ingestion adapter exports the same bytes at the end of the stream.

    Stronger than result equality: the export covers results, metrics
    counters and all residual engine state, and the stream's values make a
    float sum depend on its order of addition.
    """
    plan = random_maximal_plan(workload, plan_seed)

    def final_export(source, panes):
        engine = StreamingEngine(workload, plan, panes=panes)
        session = engine.new_session()
        engine.run(source, session=session)
        return canonical_json(session.export_state())

    with tempfile.TemporaryDirectory() as directory:
        log_path = Path(directory) / "events.jsonl"
        write_event_log(stream, log_path)
        for panes in (False, True):
            cached = final_export(stream, panes)
            assert final_export(iter(list(stream)), panes) == cached, f"panes={panes}: iterable"
            assert final_export(EventLogReader(log_path), panes) == cached, f"panes={panes}: log"
