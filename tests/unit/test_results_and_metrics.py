"""Unit tests for result sets and runtime metrics."""

from __future__ import annotations

import dataclasses
import pickle
import time

import pytest

from repro.events import WindowInstance
from repro.executor import MetricsCollector, QueryResult, ResultSet, RunMetrics


W1 = WindowInstance(0, 10)
W2 = WindowInstance(5, 15)


class TestQueryResult:
    """A result is a named tuple over the row the engine emits."""

    def test_fields_key_and_equality(self):
        result = QueryResult("q1", W1, ("a", 1), 3)
        assert (result.query_name, result.window, result.group, result.value) == ("q1", W1, ("a", 1), 3)
        assert result.key == ("q1", W1, ("a", 1)) and type(result.key) is tuple
        assert result == QueryResult("q1", W1, ("a", 1), 3) == ("q1", W1, ("a", 1), 3)
        assert result != QueryResult("q1", W1, ("a", 1), 4)
        assert result != QueryResult("q1", W2, ("a", 1), 3)
        assert hash(result) == hash(QueryResult("q1", W1, ("a", 1), 3))
        assert QueryResult(query_name="q1", window=W1, group=(), value=None).value is None

    def test_is_immutable(self):
        with pytest.raises(AttributeError):
            QueryResult("q1", W1, (), 3).value = 4

    @pytest.mark.parametrize("protocol", range(2, pickle.HIGHEST_PROTOCOL + 1))
    def test_pickles_as_itself(self, protocol):
        """Results cross process boundaries (a caller's worker pool) unchanged."""
        results = [QueryResult("q1", W1, (), 3), QueryResult("q2", W2, ("é", None), 2.5)]
        shipped = pickle.loads(pickle.dumps(results, protocol))
        assert shipped == results
        assert all(type(result) is QueryResult for result in shipped)
        assert shipped[1].window == W2 and shipped[1].key == ("q2", W2, ("é", None))


class TestResultSet:
    def test_add_and_lookup(self):
        results = ResultSet([QueryResult("q1", W1, (), 3)])
        assert len(results) == 1
        assert results.get("q1", W1) is not None
        assert results.value("q1", W1) == 3
        assert results.value("q1", W2) == 0
        assert results.value("q1", W2, default=None) is None
        assert ("q1", W1, ()) in results

    def test_last_added_wins_for_same_key(self):
        results = ResultSet()
        results.add(QueryResult("q1", W1, (), 3))
        results.add(QueryResult("q1", W1, (), 5))
        assert len(results) == 1
        assert results.value("q1", W1) == 5

    def test_per_query_views(self):
        results = ResultSet(
            [
                QueryResult("q1", W1, (), 1),
                QueryResult("q1", W2, (), 2),
                QueryResult("q2", W1, (), 3),
            ]
        )
        assert len(results.for_query("q1")) == 2
        assert results.query_names() == ("q1", "q2")

    def test_nonzero_filters_zero_and_none(self):
        results = ResultSet(
            [
                QueryResult("q1", W1, (), 0),
                QueryResult("q2", W1, (), None),
                QueryResult("q3", W1, (), 4),
            ]
        )
        assert [r.query_name for r in results.nonzero()] == ["q3"]

    def test_matches_treats_zero_and_missing_as_equal(self):
        left = ResultSet([QueryResult("q1", W1, (), 0), QueryResult("q2", W1, (), 2)])
        right = ResultSet([QueryResult("q2", W1, (), 2)])
        assert left.matches(right)
        assert right.matches(left)

    def test_matches_detects_differences(self):
        left = ResultSet([QueryResult("q1", W1, (), 1)])
        right = ResultSet([QueryResult("q1", W1, (), 2)])
        assert not left.matches(right)
        differences = left.differences(right)
        assert differences == [(("q1", W1, ()), 1, 2)]

    def test_matches_with_float_tolerance(self):
        left = ResultSet([QueryResult("q1", W1, (), 1.0)])
        right = ResultSet([QueryResult("q1", W1, (), 1.0 + 1e-12)])
        assert left.matches(right)

    def test_replacement_keeps_the_first_position(self):
        results = ResultSet([QueryResult("q1", W1, (), 1), QueryResult("q2", W1, (), 2)])
        results.add(QueryResult("q1", W1, (), 9))
        assert list(results) == [QueryResult("q1", W1, (), 9), QueryResult("q2", W1, (), 2)]
        assert results.get("q1", W1) == QueryResult("q1", W1, (), 9)
        assert type(results.get("q1", W1)) is QueryResult

    def test_pickles_with_its_results(self):
        results = ResultSet([QueryResult("q1", W1, (), 1), QueryResult("q2", W1, ("g",), 2)])
        shipped = pickle.loads(pickle.dumps(results))
        assert list(shipped) == list(results) and shipped.matches(results)

    def test_group_key_part_of_identity(self):
        results = ResultSet(
            [QueryResult("q1", W1, (1,), 5), QueryResult("q1", W1, (2,), 7)]
        )
        assert len(results) == 2
        assert results.value("q1", W1, (2,)) == 7


class TestMetricsCollector:
    def test_counters_and_rates(self):
        collector = MetricsCollector("test")
        collector.start()
        for index in range(10):
            collector.count_event(relevant=index % 2 == 0)
        collector.count_window(results=3)
        collector.count_window(results=2)
        time.sleep(0.01)
        metrics = collector.finish()
        assert metrics.total_events == 10
        assert metrics.relevant_events == 5
        assert metrics.windows_finalized == 2
        assert metrics.results_emitted == 5
        assert metrics.elapsed_seconds > 0
        assert metrics.throughput_events_per_second > 0
        assert metrics.avg_latency_ms > 0
        assert "test" in metrics.summary()

    def test_memory_sampling_interval(self):
        collector = MetricsCollector("test", memory_sample_interval=2)
        collector.maybe_sample_memory([1] * 100)  # finalization 1: skipped
        assert collector._memory.peak_bytes == 0
        collector.maybe_sample_memory([1] * 100)  # finalization 2: sampled
        assert collector._memory.peak_bytes > 0

    def test_memory_sampling_disabled(self):
        collector = MetricsCollector("test", memory_sample_interval=0)
        collector.maybe_sample_memory([1] * 100)
        assert collector.finish().peak_memory_bytes == 0

    def test_zero_windows_latency_does_not_divide_by_zero(self):
        metrics = MetricsCollector("test").finish()
        assert metrics.avg_latency_ms == 0.0
        assert metrics.throughput_events_per_second == 0.0


#: The deterministic counters a session snapshot carries (the replay state).
COUNTERS = [name for name in MetricsCollector("c").export_counters() if name != "finalizations_seen"]


class TestRunMetrics:
    @pytest.mark.parametrize("counter", COUNTERS)
    def test_every_counter_survives_a_snapshot_into_the_report(self, counter):
        """Export → restore → finish carries each counter, and only that one."""
        collector = MetricsCollector("test")
        setattr(collector, counter, 7)
        restored = MetricsCollector("test")
        restored.restore_counters(collector.export_counters())
        metrics = restored.finish()
        assert getattr(metrics, counter) == 7
        assert all(getattr(metrics, other) == 0 for other in COUNTERS if other != counter)

    def test_fields_are_the_counters_plus_timing_and_memory(self):
        """No field outside the snapshot: a report holds nothing replay cannot rebuild."""
        fields = {field.name for field in dataclasses.fields(RunMetrics)}
        assert fields == set(COUNTERS) | {"executor_name", "elapsed_seconds", "peak_memory_bytes"}

    def test_events_per_pane_is_the_ratio_of_its_counters(self):
        assert RunMetrics("m", relevant_events=40, panes_created=5).events_per_pane == 8.0
        assert RunMetrics("m", relevant_events=40).events_per_pane == 0.0

    def test_latency_and_throughput_derive_from_the_fields(self):
        metrics = RunMetrics("m", total_events=1000, elapsed_seconds=2.0, windows_finalized=8)
        assert metrics.throughput_events_per_second == 500.0
        assert metrics.avg_latency_ms == 250.0
