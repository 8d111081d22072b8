"""Unit tests for the experiment scenarios, runners, and text rendering."""

from __future__ import annotations

import math

import pytest

from repro.experiments import (
    EXECUTOR_NAMES,
    FigureResult,
    dense_scenario,
    ec_scenario,
    format_table,
    greedy_plan,
    lr_scenario,
    optimize,
    run_executor,
    run_figure16,
    tx_scenario,
)


class TestScenarios:
    @pytest.mark.parametrize(
        "builder", [lr_scenario, tx_scenario, ec_scenario], ids=["lr", "tx", "ec"]
    )
    def test_scenarios_are_uniform_and_consistent(self, builder):
        workload, stream = builder(num_queries=6, pattern_length=4, duration=40, events_per_second=8.0)
        assert len(workload) == 6
        assert workload.is_uniform()
        assert len(stream) > 0
        # The stream only emits types that some query can consume.
        workload_types = set(workload.event_types())
        assert set(stream.event_types()) <= workload_types or workload_types <= set(
            stream.event_types()
        )

    def test_dense_scenario_has_many_events_per_group(self):
        workload, stream = dense_scenario(events_per_second=20.0, duration=40, num_entities=2)
        stats = stream.statistics()
        # Roughly rate/num_types events of each type per time unit overall.
        assert stats.total_events > 400
        assert len(stream.event_types()) <= 6

    def test_scenarios_are_deterministic(self):
        first_workload, first_stream = tx_scenario(num_queries=5, pattern_length=4, duration=30)
        second_workload, second_stream = tx_scenario(num_queries=5, pattern_length=4, duration=30)
        assert [q.pattern.event_types for q in first_workload] == [
            q.pattern.event_types for q in second_workload
        ]
        assert [e.timestamp for e in first_stream] == [e.timestamp for e in second_stream]


class TestExecutorRuns:
    def test_run_executor_for_every_known_name(self):
        workload, stream = tx_scenario(
            num_queries=4, pattern_length=3, duration=30, events_per_second=5.0
        )
        plan = optimize(workload, stream)
        for name in EXECUTOR_NAMES:
            run = run_executor(name, workload, stream, plan, memory_sample_interval=2)
            assert run.latency_ms >= 0
            assert run.throughput > 0

    def test_run_executor_rejects_unknown_name(self):
        workload, stream = tx_scenario(num_queries=3, pattern_length=3, duration=20)
        with pytest.raises(ValueError, match="unknown executor"):
            run_executor("Esper", workload, stream)

    def test_optimize_and_greedy_plans_are_valid(self):
        from repro.core import ConflictDetector

        workload, stream = ec_scenario(
            num_queries=6, pattern_length=4, duration=40, events_per_second=8.0
        )
        detector = ConflictDetector(workload)
        assert optimize(workload, stream).is_valid(detector)
        assert greedy_plan(workload, stream).is_valid(detector)


class TestFigureResult:
    def test_add_and_render(self):
        result = FigureResult(
            figure="Figure X",
            description="demo",
            parameter_name="queries",
            parameter_values=[1, 2],
        )
        result.add("Sharon", "latency_ms", 1.0)
        result.add("Sharon", "latency_ms", 2.0)
        result.add("A-Seq", "latency_ms", 3.0)
        result.add("A-Seq", "latency_ms", 4.0)
        table = result.metric_table("latency_ms")
        assert "Figure X" in table
        assert "Sharon" in table and "A-Seq" in table
        rendered = result.render()
        assert "latency_ms" in rendered

    def test_run_figure16_structure(self):
        result = run_figure16(query_counts=(6,), seed=961)
        assert result.parameter_values == [6]
        assert set(result.series) == {"greedy plan", "optimal plan"}
        for metrics in result.series.values():
            assert set(metrics) == {"latency_ms", "peak_memory_kib", "plan_score"}
            assert all(len(values) == 1 for values in metrics.values())
        # The optimal plan's score is never below the greedy plan's.
        assert (
            result.series["optimal plan"]["plan_score"][0]
            >= result.series["greedy plan"]["plan_score"][0]
        )


class TestRendering:
    def test_format_table_alignment(self):
        table = format_table(["x", "value"], [[1, 2.5], [10, 1234.0]])
        lines = table.splitlines()
        assert lines[0].startswith("x")
        assert "-+-" in lines[1]
        assert len(lines) == 4
        # All data rows align to the same separator width.
        assert all(len(line) <= len(lines[1]) + 2 for line in lines)

    def test_format_table_with_title_and_none(self):
        table = format_table(["a"], [[None]], title="T")
        assert table.splitlines()[0] == "T"
        assert "None" in table

    def test_format_cell_handles_special_values(self):
        table = format_table(["v"], [[True], [False], [123456], [0.0001]])
        assert "yes" in table and "no" in table
        assert "123,456" in table
