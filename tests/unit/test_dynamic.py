"""Unit tests for dynamic workload support (Section 7.4)."""

from __future__ import annotations

import pytest

from repro.core import AdaptiveSharonExecutor, RateMonitor, SharingPlan, SharonOptimizer
from repro.datasets import ChainConfig, chain_stream, chain_workload
from repro.events import Event, EventStream, SlidingWindow, merge_streams
from repro.events.columnar import ColumnarBatch, ColumnLayout
from repro.executor import ASeqExecutor
from repro.queries import Pattern, Query, Workload
from repro.utils import RateCatalog


#: The workload types the monitored batches are routed under.
LAYOUT = ColumnLayout(types=("A", "B"))


def batch_at(timestamp: int, *types: str) -> ColumnarBatch:
    """One routed batch of ``types`` at ``timestamp`` over :data:`LAYOUT`."""
    return ColumnarBatch.from_events(timestamp, [Event(t, timestamp) for t in types], LAYOUT)


def observe(monitor: RateMonitor, *batches: ColumnarBatch) -> None:
    for batch in batches:
        monitor.observe(batch, LAYOUT.types)


class TestRateMonitor:
    def test_requires_positive_parameters(self):
        with pytest.raises(ValueError):
            RateMonitor(horizon=0)
        with pytest.raises(ValueError):
            RateMonitor(drift_threshold=0)

    def test_current_rates_over_horizon(self):
        monitor = RateMonitor(horizon=10)
        observe(monitor, *(batch_at(t, "A", *("B",) * (t % 2 == 0)) for t in range(5)))
        rates = monitor.current_rates()
        assert rates.rate("A") == pytest.approx(1.0)
        assert rates.rate("B") == pytest.approx(3 / 5)

    def test_counts_only_the_layout_types(self):
        """Rows of a type the workload does not read are never counted."""
        monitor = RateMonitor(horizon=10)
        observe(monitor, batch_at(0, "A", "Z", "Z"), batch_at(1, "Z"))
        assert monitor.current_rates().rates == {"A": pytest.approx(0.5)}
        assert monitor.observed_time_units == 2  # a batch of only other types still counts

    def test_eviction_beyond_horizon(self):
        monitor = RateMonitor(horizon=5)
        observe(monitor, *(batch_at(t, "A") for t in range(20)))
        assert monitor.observed_time_units <= 5 + 1

    def test_stale_batches_do_not_widen_the_span(self):
        """Batches at or before ``latest - horizon`` are ignored, not re-admitted:
        re-admitting them would push ``observed_time_units`` past the horizon and
        dilute the reported rates until the next advance."""
        monitor = RateMonitor(horizon=5)
        observe(monitor, batch_at(100, "A"), *(batch_at(t, "A") for t in range(95)))
        assert monitor.observed_time_units <= 5 + 1
        assert monitor.current_rates().rate("A") == pytest.approx(1.0)

    def test_stale_batches_are_ignored_but_in_horizon_stragglers_count(self):
        monitor = RateMonitor(horizon=5)
        observe(monitor, batch_at(10, "A"))
        observe(monitor, batch_at(7, "B"))  # inside the horizon: counted
        observe(monitor, batch_at(5, "B"))  # at latest - horizon: ignored
        observe(monitor, batch_at(2, "B"))  # far stale: ignored
        rates = monitor.current_rates()
        assert monitor.observed_time_units == 2
        assert rates.rate("B") == pytest.approx(1 / 2)

    def test_drift_detection(self):
        monitor = RateMonitor(horizon=10, drift_threshold=0.5)
        observe(monitor, *(batch_at(t, "A") for t in range(10)))
        reference = RateCatalog({"A": 1.0})
        assert monitor.drift_against(reference) == pytest.approx(0.0)
        assert not monitor.has_drifted(reference)
        # Doubling the rate of A is a drift of 1.0 > 0.5.
        observe(monitor, *(batch_at(t, "A") for t in range(10)))
        assert monitor.has_drifted(reference)

    def test_drift_with_new_event_type(self):
        monitor = RateMonitor(horizon=10, drift_threshold=0.5)
        observe(monitor, *(batch_at(t, "B") for t in range(10)))
        reference = RateCatalog({"A": 1.0})
        # A vanished (drift 1.0) and B appeared (drift 1.0).
        assert monitor.drift_against(reference) >= 1.0

    def test_empty_monitor(self):
        monitor = RateMonitor()
        assert monitor.current_rates().rates == {}
        assert monitor.drift_against(RateCatalog({})) == 0.0


def drifting_setup(window=SlidingWindow(size=20, slide=10)):
    """A chain workload over a stream whose rate quadruples at t = 60."""
    config = ChainConfig(num_event_types=8, entity_attribute="car")
    workload = chain_workload(8, 4, config=config, window=window, seed=61, offset_pool_size=2)
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
        """On a tumbling window, the per-instance strategy in which a plan acts."""
        workload, stream = drifting_setup(SlidingWindow(size=20, slide=20))
        adaptive = AdaptiveSharonExecutor(workload, check_interval=20, drift_threshold=0.4)
        report = adaptive.run(stream)
        baseline = ASeqExecutor(workload).run(stream)
        assert report.results.matches(baseline.results), report.results.differences(
            baseline.results
        )[:5]
        assert len(adaptive.ops) >= 1 and report.metrics.cohorts_created > 0

    def test_runs_the_resolved_strategy(self):
        workload, stream = drifting_setup()
        adaptive = AdaptiveSharonExecutor(workload, check_interval=20, drift_threshold=0.4)
        report = adaptive.run(stream)
        # WITHIN 20 SLIDE 10 overlaps: panes, like every other executor.
        assert report.metrics.panes_created > 0
        assert report.results.matches(ASeqExecutor(workload).run(stream).results)

    def test_reoptimizes_on_rate_drift(self):
        workload, stream = drifting_setup()
        adaptive = AdaptiveSharonExecutor(workload, check_interval=20, drift_threshold=0.4)
        adaptive.run(stream)
        # Started without rates on the empty plan: the first check optimizes
        # and switches to a shared plan.
        assert adaptive.plan == SharingPlan()
        assert len(adaptive.ops) >= 1 and not adaptive.ops.ops[0].plan.is_empty
        assert adaptive.monitor.observed_time_units > 0

    def test_plan_ops_are_consistent(self):
        workload, stream = drifting_setup()
        adaptive = AdaptiveSharonExecutor(workload, check_interval=10, drift_threshold=0.2)
        report = adaptive.run(stream)
        plans = [adaptive.plan] + [op.plan for op in adaptive.ops]
        assert all(op.kind == "plan" and op.query_name == "" for op in adaptive.ops)
        ats = [op.at for op in adaptive.ops]
        assert ats == sorted(set(ats)) and all(at > 0 for at in ats)
        # Every op switched to another plan; the run ended under the last one.
        assert all(old != new for old, new in zip(plans, plans[1:]))
        assert report.plan == plans[-1]

    def test_initial_rates_produce_initial_plan(self):
        workload, stream = drifting_setup()
        rates = RateCatalog.from_stream(stream, per="time-unit")
        adaptive = AdaptiveSharonExecutor(workload, initial_rates=rates, check_interval=30)
        report = adaptive.run(stream)
        optimized = SharonOptimizer(rates, time_budget_seconds=2.0).optimize(workload)
        assert adaptive.plan == optimized.plan
        assert report.plan == (adaptive.ops.ops[-1].plan if adaptive.ops else adaptive.plan)
        baseline = ASeqExecutor(workload).run(stream)
        assert report.results.matches(baseline.results)

    def test_invalid_check_interval(self):
        workload, _ = drifting_setup()
        with pytest.raises(ValueError, match="check_interval"):
            AdaptiveSharonExecutor(workload, check_interval=0)
