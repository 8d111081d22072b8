"""Unit tests for workloads (repro.queries.workload)."""

from __future__ import annotations

import pytest

from repro.events import SlidingWindow
from repro.queries import Pattern, PredicateSet, Query, Workload


def query(types, name, window=None, predicates=None):
    return Query(
        pattern=Pattern(types),
        window=window or SlidingWindow(size=10, slide=5),
        predicates=predicates or PredicateSet(),
        name=name,
    )


class TestWorkloadContainer:
    def test_add_iterate_and_lookup(self):
        workload = Workload([query(["A", "B"], "q1"), query(["B", "C"], "q2")])
        assert len(workload) == 2
        assert workload["q1"].pattern == Pattern(["A", "B"])
        assert workload[1].name == "q2"
        assert "q1" in workload
        assert workload.query_names() == ("q1", "q2")
        assert workload.index_of("q2") == 1
        with pytest.raises(KeyError):
            workload.index_of("missing")

    def test_duplicate_names_rejected(self):
        workload = Workload([query(["A", "B"], "q1")])
        with pytest.raises(ValueError, match="duplicate"):
            workload.add(query(["B", "C"], "q1"))

    def test_subset_preserves_order(self):
        workload = Workload(
            [query(["A", "B"], "q1"), query(["B", "C"], "q2"), query(["C", "D"], "q3")]
        )
        subset = workload.subset(["q3", "q1"])
        assert subset.query_names() == ("q1", "q3")


class TestWorkloadStructure:
    def test_event_types_and_patterns(self):
        workload = Workload([query(["A", "B"], "q1"), query(["B", "C"], "q2")])
        assert workload.event_types() == ("A", "B", "C")
        assert len(workload.patterns()) == 2

    def test_is_uniform_true_for_matching_contexts(self):
        workload = Workload([query(["A", "B"], "q1"), query(["B", "C"], "q2")])
        assert workload.is_uniform()

    def test_is_uniform_false_for_different_windows(self):
        workload = Workload(
            [
                query(["A", "B"], "q1"),
                query(["B", "C"], "q2", window=SlidingWindow(size=99, slide=9)),
            ]
        )
        assert not workload.is_uniform()

    def test_is_uniform_false_for_different_predicates(self):
        workload = Workload(
            [
                query(["A", "B"], "q1"),
                query(["B", "C"], "q2", predicates=PredicateSet.same("vehicle")),
            ]
        )
        assert not workload.is_uniform()

    def test_empty_workload(self):
        workload = Workload()
        assert len(workload) == 0
        assert workload.is_uniform()


class TestPaperWorkloads:
    def test_traffic_workload_matches_table_1_structure(self, traffic):
        assert len(traffic) == 7
        assert traffic.is_uniform()
        # Pattern p1 = (OakSt, MainSt) appears in q1-q4 (Table 1).
        containing = [q for q in traffic if q.pattern.contains(Pattern(["OakSt", "MainSt"]))]
        assert tuple(q.name for q in containing) == ("q1", "q2", "q3", "q4")

    def test_purchase_workload_shares_laptop_case(self, purchases):
        assert len(purchases) == 4
        containing = [q for q in purchases if q.pattern.contains(Pattern(["Laptop", "Case"]))]
        assert len(containing) == 4
