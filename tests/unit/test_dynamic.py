"""Unit tests for dynamic workload support (Section 7.4)."""

from __future__ import annotations

import pytest

from repro.core import AdaptiveSharonExecutor, RateMonitor
from repro.datasets import ChainConfig, chain_stream, chain_workload
from repro.events import Event, EventStream, SlidingWindow, merge_streams
from repro.executor import ASeqExecutor
from repro.queries import Pattern, Query, Workload
from repro.utils import RateCatalog


class TestRateMonitor:
    def test_requires_positive_parameters(self):
        with pytest.raises(ValueError):
            RateMonitor(horizon=0)
        with pytest.raises(ValueError):
            RateMonitor(drift_threshold=0)

    def test_current_rates_over_horizon(self):
        monitor = RateMonitor(horizon=10)
        monitor.observe_all(Event("A", t) for t in range(5))
        monitor.observe_all(Event("B", t) for t in range(0, 5, 2))
        rates = monitor.current_rates()
        assert rates.rate("A") == pytest.approx(1.0)
        assert rates.rate("B") == pytest.approx(3 / 5)

    def test_eviction_beyond_horizon(self):
        monitor = RateMonitor(horizon=5)
        monitor.observe_all(Event("A", t) for t in range(20))
        assert monitor.observed_time_units <= 5 + 1

    def test_single_batch_mixing_fresh_and_stale_stays_within_horizon(self):
        """Stale events inside one ``observe_all`` batch must not widen the span.

        Eviction only runs when the latest timestamp advances, so a batch
        that first moves the monitor forward and then replays timestamps at
        or before ``latest - horizon`` used to re-admit the stale buckets:
        ``observed_time_units`` exceeded the horizon and the reported rates
        were diluted by the widened span until the next advance.
        """
        monitor = RateMonitor(horizon=5)
        batch = [Event("A", 100)] + [Event("A", t) for t in range(0, 95)]
        monitor.observe_all(batch)
        assert monitor.observed_time_units <= 5 + 1
        assert monitor.current_rates().rate("A") == pytest.approx(1.0)

    def test_stale_events_are_ignored_but_in_horizon_stragglers_count(self):
        monitor = RateMonitor(horizon=5)
        monitor.observe(Event("A", 10))
        monitor.observe(Event("B", 7))  # inside the horizon: counted
        monitor.observe(Event("B", 5))  # at latest - horizon: ignored
        monitor.observe(Event("B", 2))  # far stale: ignored
        rates = monitor.current_rates()
        assert monitor.observed_time_units == 2
        assert rates.rate("B") == pytest.approx(1 / 2)

    def test_drift_detection(self):
        monitor = RateMonitor(horizon=10, drift_threshold=0.5)
        monitor.observe_all(Event("A", t) for t in range(10))
        reference = RateCatalog({"A": 1.0})
        assert monitor.drift_against(reference) == pytest.approx(0.0)
        assert not monitor.has_drifted(reference)
        # Doubling the rate of A is a drift of 1.0 > 0.5.
        monitor.observe_all(Event("A", t) for t in range(10))
        assert monitor.has_drifted(reference)

    def test_drift_with_new_event_type(self):
        monitor = RateMonitor(horizon=10, drift_threshold=0.5)
        monitor.observe_all(Event("B", t) for t in range(10))
        reference = RateCatalog({"A": 1.0})
        # A vanished (drift 1.0) and B appeared (drift 1.0).
        assert monitor.drift_against(reference) >= 1.0

    def test_empty_monitor(self):
        monitor = RateMonitor()
        assert monitor.current_rates().rates == {}
        assert monitor.drift_against(RateCatalog({})) == 0.0


def drifting_setup():
    config = ChainConfig(num_event_types=8, entity_attribute="car")
    workload = chain_workload(
        8, 4, config=config, window=SlidingWindow(size=20, slide=10), seed=61,
        offset_pool_size=2,
    )
    calm = chain_stream(duration=60, events_per_second=4, config=config, num_entities=5, seed=62)
    busy_raw = chain_stream(
        duration=60, events_per_second=16, config=config, num_entities=5, seed=63
    )
    busy = EventStream(
        [Event(e.event_type, e.timestamp + 60, e.attributes, e.event_id) for e in busy_raw]
    )
    stream = merge_streams(calm, busy, name="drift")
    return workload, stream


class TestAdaptiveSharonExecutor:
    def test_rejects_empty_or_non_uniform_workloads(self):
        with pytest.raises(ValueError, match="empty"):
            AdaptiveSharonExecutor(Workload())
        window_a = SlidingWindow(size=10, slide=5)
        window_b = SlidingWindow(size=20, slide=5)
        mixed = Workload(
            [
                Query(Pattern(["A", "B"]), window_a, name="d1"),
                Query(Pattern(["A", "B"]), window_b, name="d2"),
            ]
        )
        with pytest.raises(ValueError, match="uniform"):
            AdaptiveSharonExecutor(mixed)

    def test_results_identical_to_static_baseline(self):
        workload, stream = drifting_setup()
        adaptive = AdaptiveSharonExecutor(workload, check_interval=20, drift_threshold=0.4)
        report = adaptive.run(stream)
        baseline = ASeqExecutor(workload, panes=False).run(stream)
        assert report.results.matches(baseline.results), report.results.differences(
            baseline.results
        )[:5]
        # WITHIN 20 SLIDE 10 would default to panes, where a plan migration
        # changes no work: the adaptive executor pins the strategy in which
        # its migrations act.
        assert report.metrics.panes_created == 0 and report.metrics.cohorts_created > 0

    def test_reoptimizes_on_rate_drift(self):
        workload, stream = drifting_setup()
        adaptive = AdaptiveSharonExecutor(workload, check_interval=20, drift_threshold=0.4)
        adaptive.run(stream)
        # The rate quadruples halfway through: at least one drift check must
        # have re-run the optimizer (the plan itself may or may not change).
        assert len(adaptive.plan_history) >= 1
        assert adaptive.monitor.observed_time_units > 0

    def test_migration_records_are_consistent(self):
        workload, stream = drifting_setup()
        adaptive = AdaptiveSharonExecutor(
            workload, check_interval=10, drift_threshold=0.2,
        )
        adaptive.run(stream)
        for record in adaptive.migrations:
            assert record.drift > 0.2
            assert record.at_timestamp >= 0
        # Every migration appended a plan to the history.
        assert len(adaptive.plan_history) == len(adaptive.migrations) + 1

    def test_initial_rates_produce_initial_plan(self):
        workload, stream = drifting_setup()
        rates = RateCatalog.from_stream(stream, per="time-unit")
        adaptive = AdaptiveSharonExecutor(workload, initial_rates=rates, check_interval=30)
        report = adaptive.run(stream)
        assert adaptive.plan_history[0] == report.plan or len(adaptive.plan_history) > 1
        baseline = ASeqExecutor(workload).run(stream)
        assert report.results.matches(baseline.results)

    def test_invalid_check_interval(self):
        workload, _ = drifting_setup()
        with pytest.raises(ValueError, match="check_interval"):
            AdaptiveSharonExecutor(workload, check_interval=0)
