"""Unit tests for context segmentation (Section 7.2)."""

from __future__ import annotations

from dataclasses import fields

import pytest

from repro.core import MultiContextExecutor, split_into_contexts
from repro.datasets import TaxiConfig, generate_taxi_stream
from repro.events import SlidingWindow
from repro.executor import ASeqExecutor, SharonExecutor
from repro.executor.metrics import RunMetrics
from repro.queries import Pattern, PredicateSet, Query, Workload


def mixed_workload() -> Workload:
    per_vehicle = PredicateSet.same("vehicle")
    short_window = SlidingWindow(size=30, slide=10)
    long_window = SlidingWindow(size=60, slide=60)
    queries = [
        Query(Pattern(["OakSt", "MainSt"]), short_window, predicates=per_vehicle, name="a1"),
        Query(Pattern(["OakSt", "MainSt", "WestSt"]), short_window, predicates=per_vehicle, name="a2"),
        Query(Pattern(["OakSt", "MainSt"]), long_window, name="b1"),
        Query(Pattern(["ElmSt", "ParkAve"]), long_window, name="b2"),
        Query(Pattern(["MainSt", "StateSt"]), short_window, predicates=per_vehicle, name="a3"),
    ]
    return Workload(queries, name="mixed")


class TestSplitIntoContexts:
    def test_groups_by_window_predicates_grouping(self):
        contexts = split_into_contexts(mixed_workload())
        assert len(contexts) == 2
        assert contexts[0].query_names == ("a1", "a2", "a3")
        assert contexts[1].query_names == ("b1", "b2")
        for context in contexts:
            assert context.workload.is_uniform()

    def test_uniform_workload_yields_single_context(self, traffic):
        contexts = split_into_contexts(traffic)
        assert len(contexts) == 1
        assert contexts[0].query_names == traffic.query_names()

    def test_group_by_differences_split_contexts(self):
        window = SlidingWindow(size=10, slide=5)
        workload = Workload(
            [
                Query(Pattern(["A", "B"]), window, group_by=("route",), name="g1"),
                Query(Pattern(["A", "B"]), window, name="g2"),
            ]
        )
        assert len(split_into_contexts(workload)) == 2

    def test_empty_workload(self):
        assert split_into_contexts(Workload()) == []


class TestMultiContextExecutor:
    @pytest.fixture
    def stream(self):
        return generate_taxi_stream(
            TaxiConfig(duration_seconds=90, reports_per_second=8, num_vehicles=5, seed=41)
        )

    def test_results_match_per_context_baselines(self, stream):
        workload = mixed_workload()
        executor = MultiContextExecutor(workload)
        report = executor.run(stream)

        for context in executor.contexts:
            baseline = ASeqExecutor(context.workload).run(stream)
            for result in baseline.results:
                expected = result.value if result.value is not None else 0
                assert report.results.value(
                    result.query_name, result.window, result.group
                ) == expected

    def test_plans_are_recorded_per_context(self, stream):
        executor = MultiContextExecutor(mixed_workload())
        executor.run(stream)
        assert all(context.optimization is not None for context in executor.contexts)
        # The per-vehicle context has (OakSt, MainSt) shared by a1 and a2 when
        # beneficial; either way the recorded plan must be valid for its context.
        from repro.core import ConflictDetector

        for context in executor.contexts:
            assert context.plan.is_valid(ConflictDetector(context.workload))

    def test_metrics_aggregate_over_contexts(self, stream):
        executor = MultiContextExecutor(mixed_workload())
        report = executor.run(stream)
        # Every context scans the stream once.
        assert report.metrics.total_events == len(stream) * len(executor.contexts)
        assert report.metrics.results_emitted == len(report.results)

    def test_every_counter_sums_over_contexts(self, stream):
        """Two overlapping-window contexts run panes: their pane and batch counters add up."""
        per_vehicle, short = PredicateSet.same("vehicle"), SlidingWindow(size=30, slide=10)
        workload = Workload(
            [
                Query(Pattern(["OakSt", "MainSt"]), short, predicates=per_vehicle, name="a1"),
                Query(Pattern(["MainSt", "WestSt"]), short, predicates=per_vehicle, name="a2"),
                Query(Pattern(["OakSt", "MainSt"]), SlidingWindow(size=20, slide=10), name="b1"),
            ]
        )
        executor = MultiContextExecutor(workload)
        total = executor.run(stream).metrics
        parts = [
            SharonExecutor(context.workload, plan=context.plan).run(stream).metrics
            for context in executor.contexts
        ]
        assert len(parts) == 2 and all(part.panes_created for part in parts)
        for field in fields(RunMetrics):
            if field.name not in ("executor_name", "elapsed_seconds", "peak_memory_bytes"):
                expected = sum(getattr(part, field.name) for part in parts)
                assert getattr(total, field.name) == expected, field.name
        assert total.pane_merges > 0 and total.columnar_batches > 0

    def test_explicit_rates_are_used(self, stream):
        from repro.utils import RateCatalog

        rates = RateCatalog.from_stream(stream, per="time-unit")
        executor = MultiContextExecutor(mixed_workload(), rates=rates)
        contexts = executor.optimize(rates)
        assert len(contexts) == 2
        report = executor.run(stream)
        assert len(report.results) > 0
