"""Unit tests for the columnar micro-batch ingestion layer.

Covers the struct-of-arrays batch representation (`repro.events.columnar`),
the compiled predicate kernels, and `CompiledWorkload.route_columnar` —
each pinned against its scalar reference implementation on randomized
inputs.
"""

from __future__ import annotations

import random

import pytest

from repro.events import (
    ColumnLayout,
    ColumnarBatch,
    Event,
    EventStream,
    SlidingWindow,
)
from repro.executor import OracleExecutor
from repro.executor.engine import CompiledWorkload, StreamingEngine
from repro.queries import Pattern, PredicateSet, Query, Workload
from repro.queries.predicates import FilterPredicate, compile_filter_kernel


def make_events(rows):
    return [Event(t, ts, attrs, i) for i, (t, ts, attrs) in enumerate(rows)]


def routed(stream):
    """``(timestamp, batch)`` pairs of an entity-grouped engine's columnar routing."""
    query = Query(Pattern(["A", "B"]), SlidingWindow(10, 5), predicates=PredicateSet.same("entity"))
    engine = StreamingEngine(Workload([query]))
    return [(t, batch) for t, batch, _groups in engine.new_session().routed_batches(stream)]


class TestColumnLayout:
    def test_type_interning(self):
        layout = ColumnLayout(types=("A", "B"))
        assert layout.type_id("A") == 0
        assert layout.type_id("B") == 1
        assert layout.type_id("Z") == -1

    def test_layouts_compare_by_identity(self):
        assert ColumnLayout.__eq__ is object.__eq__
        assert ColumnLayout.__hash__ is object.__hash__

    def test_duplicate_types_rejected(self):
        with pytest.raises(ValueError):
            ColumnLayout(types=("A", "A"))


class TestColumnarBatch:
    def test_columns_parallel_to_events(self):
        layout = ColumnLayout(("A", "B"), attributes=("value",), partition=("entity",))
        events = make_events(
            [
                ("A", 3, {"entity": 1, "value": 5}),
                ("Z", 3, {"entity": 2, "value": 9}),
                ("B", 3, {"value": 7}),
            ]
        )
        batch = ColumnarBatch.from_events(3, events, layout)
        assert batch.timestamp == 3 and batch.size == 3
        assert batch.type_ids == [0, -1, 1]
        assert batch.relevant == [0, 2]
        # Cells are extracted only at type-relevant rows: the Z row's value
        # and group key stay None holes routing never reads.
        assert batch.columns["value"] == [5, None, 7]
        assert batch.group_keys == [(1,), None, (None,)]

    def test_group_keys_interned_across_batches(self):
        layout = ColumnLayout(("A",), partition=("entity",))
        interner: dict[tuple, tuple] = {}
        first, second = (
            ColumnarBatch.from_events(t, [Event("A", t, {"entity": 9}, t)], layout, interner)
            for t in (0, 1)
        )
        assert first.group_keys[0] is second.group_keys[0]

    def test_no_partition_means_no_group_keys(self):
        layout = ColumnLayout(("A",))
        batch = ColumnarBatch.from_events(0, make_events([("A", 0, {})]), layout)
        assert batch.group_keys is None


class TestColumnarBatches:
    def test_generator_input_batches_by_timestamp(self):
        events = make_events([("A", 0, {}), ("B", 0, {}), ("A", 2, {})])
        batches = routed(iter(events))
        assert [t for t, _batch in batches] == [0, 2]
        assert [batch.size for _t, batch in batches] == [2, 1]

    def test_streaming_interner_bounded_on_unbounded_group_cardinality(self):
        """A generator stream with a fresh group per event must stay bounded.

        The streaming interner is a dedup optimisation; past its limit it is
        dropped and restarted, so memory follows the open scopes (the
        engine's contract), not the number of distinct group keys seen.
        """
        from repro.events.columnar import _INTERNER_LIMIT

        def endless_fresh_groups(n):
            for i in range(n):
                yield Event("A", i, {"entity": i}, i)
            yield Event("A", n, {"entity": 0}, n)  # a key seen before the reset

        total = _INTERNER_LIMIT + 50
        batches = [batch for _t, batch in routed(endless_fresh_groups(total))]
        assert sum(b.size for b in batches) == total + 1
        assert [b.group_keys[0] for b in batches[:3]] == [(0,), (1,), (2,)]
        # The interner was dropped past its limit: equal key, no shared tuple.
        assert batches[-1].group_keys[0] == batches[0].group_keys[0]
        assert batches[-1].group_keys[0] is not batches[0].group_keys[0]


class TestFilterKernel:
    def _parity_check(self, filters, events, layout):
        """The kernel must select exactly the events every filter accepts."""
        predicates = PredicateSet(filters=filters)
        kernel = compile_filter_kernel(filters, layout.type_id)
        batch = ColumnarBatch.from_events(0, events, layout)
        indices = list(range(len(events)))
        selected = indices if kernel is None else kernel(batch, indices)
        expected = [i for i, e in enumerate(events) if predicates.accepts(e)]
        assert selected == expected

    def test_no_filters_compiles_to_none(self):
        layout = ColumnLayout(("A",))
        assert compile_filter_kernel((), layout.type_id) is None

    def test_unrestricted_filter_and_missing_attribute(self):
        layout = ColumnLayout(("A", "B"), attributes=("value",))
        events = make_events(
            [("A", 0, {"value": 5}), ("B", 0, {}), ("A", 0, {"value": 1})]
        )
        self._parity_check([FilterPredicate("value", ">", 2)], events, layout)

    def test_type_restricted_filter_passes_other_types(self):
        layout = ColumnLayout(("A", "B"), attributes=("value",))
        events = make_events(
            [("A", 0, {"value": 1}), ("B", 0, {"value": 1}), ("A", 0, {"value": 9})]
        )
        self._parity_check(
            [FilterPredicate("value", ">", 5, event_type="A")], events, layout
        )

    def test_filter_on_unknown_type_compiles_away(self):
        layout = ColumnLayout(("A",), attributes=("value",))
        kernel = compile_filter_kernel(
            [FilterPredicate("value", ">", 5, event_type="Z")], layout.type_id
        )
        assert kernel is None

    def test_conjunction_chains_kernels(self):
        layout = ColumnLayout(("A", "B"), attributes=("value", "size"))
        events = make_events(
            [
                ("A", 0, {"value": 5, "size": 1}),
                ("A", 0, {"value": 5, "size": 9}),
                ("B", 0, {"value": 0, "size": 9}),
            ]
        )
        self._parity_check(
            [FilterPredicate("value", ">", 2), FilterPredicate("size", ">=", 5)],
            events,
            layout,
        )

    def test_randomized_parity_with_accepts(self):
        rng = random.Random(7)
        types = ("A", "B", "C")
        for trial in range(50):
            filters = []
            for _ in range(rng.randint(0, 3)):
                filters.append(
                    FilterPredicate(
                        rng.choice(("value", "size")),
                        rng.choice(tuple("< <= > >= = !=".split())),
                        rng.randint(0, 6),
                        rng.choice((None, "A", "B", "Z")),
                    )
                )
            events = []
            for i in range(rng.randint(1, 12)):
                attrs = {}
                if rng.random() < 0.8:
                    attrs["value"] = rng.randint(0, 8)
                if rng.random() < 0.8:
                    attrs["size"] = rng.randint(0, 8)
                events.append(Event(rng.choice(types), 0, attrs, i))
            layout = ColumnLayout(types, attributes=("value", "size"))
            self._parity_check(filters, events, layout)


class TestRouteColumnar:
    def _workload(self):
        window = SlidingWindow(size=8, slide=4)
        predicates = PredicateSet(
            equivalences=PredicateSet.same("entity").equivalences,
            filters=[FilterPredicate("value", ">", 3)],
        )
        queries = [
            Query(Pattern(("A", "B")), window, predicates=predicates, name="rc1"),
            Query(Pattern(("B", "C")), window, predicates=predicates, name="rc2"),
        ]
        return Workload(queries)

    def test_layout_derived_from_workload(self):
        compiled = CompiledWorkload(self._workload())
        assert compiled.layout.types == ("A", "B", "C")
        assert "value" in compiled.layout.attributes
        assert compiled.layout.partition == ("entity",)

    def test_routing_matches_scalar_reference(self):
        compiled = CompiledWorkload(self._workload())
        rng = random.Random(11)
        for trial in range(30):
            events = []
            for i in range(rng.randint(1, 15)):
                events.append(
                    Event(
                        rng.choice(("A", "B", "C", "D")),
                        5,
                        {"entity": rng.randint(0, 2), "value": rng.randint(0, 8)},
                        i,
                    )
                )
            batch = ColumnarBatch.from_events(5, events, compiled.layout)
            count, groups = compiled.route_columnar(batch)

            expected: dict[tuple, list[Event]] = {}
            for event in events:
                if compiled.is_relevant(event):
                    expected.setdefault(compiled.group_key(event), []).append(event)
            assert count == sum(len(v) for v in expected.values())
            # Row indices, each group's in batch order: as events, the reference's lists.
            routed = {key: [events[i] for i in rows] for key, rows in (groups or {}).items()}
            assert routed == expected
            assert all(rows == sorted(rows) for rows in (groups or {}).values())


class TestEngineIngestion:
    """The engine routes every batch as a columnar batch; the oracle is the reference."""

    def _workload(self):
        window = SlidingWindow(size=6, slide=3)
        return Workload([Query(Pattern(("A", "B")), window, name="ec1")])

    def test_engine_counts_one_columnar_batch_per_timestamp(self):
        workload = self._workload()
        stream = EventStream(
            make_events([("A", 0, {}), ("B", 1, {}), ("A", 1, {}), ("Z", 4, {}), ("B", 4, {})])
        )
        report = StreamingEngine(workload).run(stream)
        assert report.results.matches(OracleExecutor(workload).run(stream).results)
        assert report.metrics.columnar_batches == 3
        assert report.metrics.total_events == 5
        assert report.metrics.relevant_events == 4

    def test_engine_accepts_plain_iterables(self):
        workload = self._workload()
        events = make_events([("A", 0, {}), ("B", 1, {})])
        report = StreamingEngine(workload).run(iter(events))
        oracle = OracleExecutor(workload).run(EventStream(events)).results
        assert report.results.matches(oracle)
        assert report.metrics.columnar_batches == 2

    def test_panes_route_through_the_same_batches(self):
        window = SlidingWindow(size=6, slide=2)
        workload = Workload([Query(Pattern(("A", "B")), window, name="ec2")])
        stream = EventStream(
            make_events([("A", 0, {}), ("B", 1, {}), ("A", 3, {}), ("B", 5, {})])
        )
        panes = StreamingEngine(workload, panes=True).run(stream)
        assert panes.results.matches(OracleExecutor(workload).run(stream).results)
        assert panes.metrics.columnar_batches == 4
        assert panes.metrics.panes_created > 0
