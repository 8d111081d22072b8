"""Unit tests for the data set simulators and workload generators."""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.core import ConflictDetector, build_candidates
from repro.datasets import (
    ChainConfig,
    EcommerceConfig,
    LinearRoadConfig,
    TaxiConfig,
    chain_event_types,
    chain_stream,
    chain_workload,
    generate_ecommerce_stream,
    generate_linear_road_stream,
    generate_taxi_stream,
    item_types,
    random_run,
    segment_types,
    traffic_workload_scaled,
)
from repro.events import SlidingWindow

from ..conftest import arrival_lateness


def attribute_types(stream) -> set:
    """The distinct ``(name, type name)`` attribute signatures of a stream's events."""
    return {
        tuple(sorted((name, type(value).__name__) for name, value in event.attributes.items()))
        for event in stream
    }


class TestTaxiDataset:
    def test_deterministic_and_schema_conform(self):
        config = TaxiConfig(duration_seconds=30, reports_per_second=5, num_vehicles=4, seed=1)
        one = generate_taxi_stream(config)
        two = generate_taxi_stream(config)
        assert [e.timestamp for e in one] == [e.timestamp for e in two]
        assert len(one) > 0
        assert set(one.event_types()) <= set(config.streets)
        signature = (("passengers", "int"), ("speed", "float"), ("vehicle", "int"))
        assert attribute_types(one) == {signature}

    def test_event_rate_close_to_configured(self):
        config = TaxiConfig(duration_seconds=100, reports_per_second=10, seed=2)
        stream = generate_taxi_stream(config)
        assert 800 <= len(stream) <= 1200

    def test_vehicles_produce_route_sequences(self):
        config = TaxiConfig(duration_seconds=120, reports_per_second=10, num_vehicles=3, seed=3)
        stream = generate_taxi_stream(config)
        # At least one vehicle visits two different streets consecutively
        # (otherwise no sequence query could ever match).
        by_vehicle: dict[int, list[str]] = {}
        for event in stream:
            by_vehicle.setdefault(event.attribute("vehicle"), []).append(event.event_type)
        assert any(len(set(streets)) > 1 for streets in by_vehicle.values())

    def test_invalid_config_rejected(self):
        with pytest.raises(ValueError):
            TaxiConfig(num_vehicles=0)
        with pytest.raises(ValueError):
            TaxiConfig(route_length=(1, 3))


class TestLinearRoadDataset:
    def test_rate_ramps_up(self):
        config = LinearRoadConfig(
            duration_seconds=200, initial_rate=2.0, final_rate=30.0, seed=5
        )
        stream = generate_linear_road_stream(config)
        first_half = stream.between(0, 100)
        second_half = stream.between(100, 200)
        assert len(second_half) > len(first_half) * 2

    def test_schema_and_types(self):
        config = LinearRoadConfig(duration_seconds=30, seed=6)
        stream = generate_linear_road_stream(config)
        assert attribute_types(stream) == {(("car", "int"), ("lane", "int"), ("speed", "float"))}
        assert set(stream.event_types()) <= set(segment_types(config))

    def test_invalid_config_rejected(self):
        with pytest.raises(ValueError):
            LinearRoadConfig(num_segments=1)
        with pytest.raises(ValueError):
            LinearRoadConfig(initial_rate=0)


class TestEcommerceDataset:
    def test_named_items_first(self):
        types = item_types(EcommerceConfig(num_items=12))
        assert types[0] == "Laptop" and types[1] == "Case"
        assert len(types) == 12
        assert len(set(types)) == 12

    def test_stream_conforms_to_schema(self):
        config = EcommerceConfig(duration_seconds=20, purchases_per_second=5, seed=7)
        stream = generate_ecommerce_stream(config)
        assert set(stream.event_types()) <= set(item_types(config))
        assert attribute_types(stream) == {(("customer", "int"), ("price", "float"))}

    def test_dependency_chains_present(self):
        config = EcommerceConfig(
            num_items=6, num_customers=3, duration_seconds=200, purchases_per_second=5,
            follow_probability=0.9, seed=8
        )
        stream = generate_ecommerce_stream(config)
        items = item_types(config)
        successor = {items[i]: items[(i + 1) % len(items)] for i in range(len(items))}
        by_customer: dict[int, list[str]] = {}
        for event in stream:
            by_customer.setdefault(event.attribute("customer"), []).append(event.event_type)
        consecutive_follow = sum(
            1
            for purchases in by_customer.values()
            for a, b in zip(purchases, purchases[1:])
            if successor[a] == b
        )
        total_pairs = sum(max(len(p) - 1, 0) for p in by_customer.values())
        assert consecutive_follow / total_pairs > 0.5


class TestChainGenerators:
    def test_chain_workload_structure(self):
        workload = chain_workload(10, 4, ChainConfig(num_event_types=12), seed=1)
        assert len(workload) == 10
        assert workload.is_uniform()
        assert all(len(q.pattern) == 4 for q in workload)
        types = set(chain_event_types(ChainConfig(num_event_types=12)))
        for query in workload:
            assert set(query.pattern.event_types) <= types

    def test_chain_workload_offset_pool_increases_sharing(self):
        from repro.core import detect_sharable_patterns

        spread = chain_workload(12, 5, ChainConfig(num_event_types=40), seed=3)
        pooled = chain_workload(
            12, 5, ChainConfig(num_event_types=40), seed=3, offset_pool_size=2
        )
        spread_sharable = detect_sharable_patterns(spread)
        pooled_sharable = detect_sharable_patterns(pooled)
        max_spread = max((len(qs) for qs in spread_sharable.values()), default=0)
        max_pooled = max((len(qs) for qs in pooled_sharable.values()), default=0)
        assert max_pooled >= max_spread

    def test_chain_workload_validation(self):
        with pytest.raises(ValueError):
            chain_workload(5, 1)
        with pytest.raises(ValueError):
            chain_workload(5, 50, ChainConfig(num_event_types=10))
        with pytest.raises(ValueError):
            chain_workload(5, 3, offset_pool_size=0)

    def test_chain_stream_matches_workload_types(self):
        config = ChainConfig(num_event_types=8)
        stream = chain_stream(duration=50, events_per_second=4, config=config, seed=2)
        assert set(stream.event_types()) <= set(chain_event_types(config))
        assert all("entity" in e for e in stream)

    def test_chain_stream_validation(self):
        with pytest.raises(ValueError):
            chain_stream(duration=0, events_per_second=1)
        with pytest.raises(ValueError):
            chain_stream(duration=10, events_per_second=0)


class TestScaledWorkloads:
    def test_traffic_workload_scaled_uses_segments(self):
        config = LinearRoadConfig(num_segments=15)
        workload = traffic_workload_scaled(8, pattern_length=5, config=config)
        assert len(workload) == 8
        for query in workload:
            assert set(query.pattern.event_types) <= set(segment_types(config))
            assert query.predicates.equivalence_attributes == ("car",)

    def test_paper_workloads_execute(self, traffic, purchases):
        window = SlidingWindow(size=600, slide=60)
        assert traffic[0].window == window
        assert purchases[0].window.size == 1200


class TestRandomRun:
    def test_same_seed_same_run(self):
        assert random_run(7).describe() == random_run(7).describe()
        assert random_run(7).describe() != random_run(8).describe()

    def test_schedules_apply_and_arrivals_keep_their_bound(self):
        """All but the one or two arrivals a ``drop``/``callback`` run makes late."""
        for seed in range(300):
            run = random_run(seed)
            assert run.schedule_applies(), seed
            bound = run.max_lateness or 0
            late = sum(lateness > bound for lateness in arrival_lateness(run.events))
            assert late in ((0,) if run.late_policy == "raise" else (1, 2)), seed
            assert sorted(run.events, key=lambda e: (e.timestamp, e.event_id)) == list(run.stream)

    @pytest.mark.parametrize("max_lateness", range(1, 7))
    def test_some_arrival_is_exactly_at_the_bound(self, max_lateness):
        """The descending-tie order reaches the edge ``bounded_shuffle`` never does."""
        runs = [run for run in map(random_run, range(300)) if run.max_lateness == max_lateness]
        assert any(max_lateness in arrival_lateness(run.events) for run in runs)

    def test_describe_names_every_switch_op_and_arrival(self):
        run = next(run for run in map(random_run, range(50)) if run.churn and run.max_lateness)
        text = run.describe()
        switches = ("shared", "panes", "max_lateness", "late_policy", "source", "resume", "checkpoint_every")
        for switch in switches:
            assert f"{switch}=" in text
        assert all(f"{op.kind}@{op.at}: {op.query_name}" in text for op in run.churn)
        lines = 3 + len(run.workload) + len(run.churn) + len(run.events)
        assert len(text.splitlines()) == lines

    def test_shared_plans_are_maximal_and_conflict_free(self):
        for seed in range(40):
            run = replace(random_run(seed), shared=True)
            plan, detector = run.plan, ConflictDetector(run.workload)
            assert not any(detector.in_conflict(a, b) for a in plan for b in plan if a != b)
            for candidate in build_candidates(run.workload):
                assert candidate in plan or any(detector.in_conflict(candidate, c) for c in plan)
            assert not replace(run, shared=False).plan
