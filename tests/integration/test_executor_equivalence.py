"""Cross-executor equivalence on realistic data sets.

All four executors implement the same query semantics, so on any stream and
any (uniform) workload they must produce identical results — the online ones
without constructing sequences, the two-step ones by constructing them.  This
is the library's strongest end-to-end correctness check and mirrors the
paper's premise that Sharon is a pure optimization (it never changes query
answers).
"""

from __future__ import annotations

import random

import pytest

from repro.core import SharonOptimizer
from repro.datasets import (
    EcommerceConfig,
    LinearRoadConfig,
    chain_stream,
    chain_workload,
    ChainConfig,
    generate_ecommerce_stream,
    generate_linear_road_stream,
    purchase_workload,
    traffic_workload_scaled,
)
from repro.events import Event, EventStream, SlidingWindow
from repro.executor import ASeqExecutor, FlinkLikeExecutor, SharonExecutor, SpassLikeExecutor
from repro.queries import AggregateSpec, Pattern, PredicateSet, Query, Workload
from repro.utils import RateCatalog


def plan_for(workload, stream):
    rates = RateCatalog.from_stream(stream, per="time-unit")
    return SharonOptimizer(rates).optimize(workload).plan


class TestEquivalenceOnDatasets:
    def test_purchase_workload_on_ecommerce_stream(self):
        workload = purchase_workload(window=SlidingWindow(size=60, slide=30))
        stream = generate_ecommerce_stream(
            EcommerceConfig(
                num_items=12,
                num_customers=5,
                duration_seconds=150,
                purchases_per_second=6.0,
                follow_probability=0.7,
                seed=21,
            )
        )
        plan = plan_for(workload, stream)
        reports = {
            "sharon": SharonExecutor(workload, plan=plan, panes=False).run(stream),
            "aseq": ASeqExecutor(workload, panes=False).run(stream),
            "flink": FlinkLikeExecutor(workload).run(stream),
            "spass": SpassLikeExecutor(workload, plan=plan).run(stream),
        }
        reference = reports["flink"].results
        for name, report in reports.items():
            assert report.results.matches(reference), (
                name,
                report.results.differences(reference)[:5],
            )
        assert any(r.value for r in reference), "expected at least one purchase sequence"

    def test_scaled_traffic_workload_on_linear_road_stream(self):
        config = LinearRoadConfig(
            num_segments=12,
            num_cars=25,
            duration_seconds=120,
            initial_rate=6.0,
            final_rate=18.0,
            seed=29,
        )
        workload = traffic_workload_scaled(
            num_queries=10,
            pattern_length=4,
            config=config,
            window=SlidingWindow(size=30, slide=15),
        )
        stream = generate_linear_road_stream(config)
        plan = plan_for(workload, stream)

        sharon = SharonExecutor(workload, plan=plan, panes=False).run(stream)
        aseq = ASeqExecutor(workload, panes=False).run(stream)
        assert sharon.results.matches(aseq.results), sharon.results.differences(aseq.results)[:5]
        assert any(r.value for r in sharon.results)

    def test_sum_aggregate_workload(self):
        config = ChainConfig(num_event_types=8, entity_attribute="entity")
        workload = chain_workload(
            6,
            3,
            config=config,
            window=SlidingWindow(size=20, slide=10),
            seed=5,
            aggregate=AggregateSpec.sum(chain_event_types_last(config), "position"),
        )
        stream = chain_stream(
            duration=80, events_per_second=6, config=config, num_entities=4, seed=6
        )
        plan = plan_for(workload, stream)
        sharon = SharonExecutor(workload, plan=plan, panes=False).run(stream)
        flink = FlinkLikeExecutor(workload).run(stream)
        assert sharon.results.matches(flink.results), sharon.results.differences(flink.results)[:5]


def chain_event_types_last(config: ChainConfig) -> str:
    """The last chain type — used as the SUM target so most queries track it."""
    from repro.datasets import chain_event_types

    return chain_event_types(config)[-1]


def _random_workload(rng: random.Random, event_types: list[str]) -> Workload:
    """A random uniform workload with a sliding window and multi-attribute grouping."""
    size = rng.choice([8, 12, 16])
    slide = rng.choice([s for s in (2, 3, 4, 6) if s < size])
    window = SlidingWindow(size=size, slide=slide)
    # Mix GROUP-BY and equivalence attributes so group keys are genuinely
    # multi-attribute (the regime the state-layout rewrite must preserve).
    group_by = ("region",) if rng.random() < 0.7 else ()
    predicates = PredicateSet.same("entity") if rng.random() < 0.7 else PredicateSet()
    queries = []
    for index in range(rng.randint(2, 5)):
        length = rng.randint(2, min(4, len(event_types)))
        types = rng.sample(event_types, length)
        queries.append(
            Query(
                pattern=Pattern(types),
                window=window,
                aggregate=AggregateSpec.count_star(),
                predicates=predicates,
                group_by=group_by,
                name=f"rq{index}",
            )
        )
    return Workload(queries)


def _random_stream(rng: random.Random, event_types: list[str]) -> EventStream:
    events = []
    length = rng.randint(20, 80)
    for event_id in range(length):
        events.append(
            Event(
                rng.choice(event_types),
                rng.randint(0, 40),
                {"entity": rng.randint(0, 2), "region": rng.choice(["n", "s"])},
                event_id,
            )
        )
    return EventStream(events, name="random")


def _random_plans(rng: random.Random, workload: Workload, count: int):
    """Several random conflict-free sharing plans for ``workload``."""
    from repro.core import ConflictDetector, SharingPlan, build_candidates

    detector = ConflictDetector(workload)
    candidates = build_candidates(workload)
    plans = []
    for _ in range(count):
        rng.shuffle(candidates)
        chosen = []
        for candidate in candidates:
            if all(not detector.in_conflict(candidate, other) for other in chosen):
                chosen.append(candidate.with_benefit(1.0))
        plans.append(SharingPlan(chosen))
    return plans


class TestRandomizedEquivalence:
    """Property test: random sliding-window, multi-group workloads agree.

    This is the safety net for the incremental anchored-state rewrite: on
    random streams, A-Seq, Sharon under several random plans, and the
    two-step oracle must produce identical result sets — sliding windows
    (slide < size), shared timestamps, and multi-attribute group keys
    included.
    """

    @pytest.mark.parametrize("seed", range(8))
    def test_online_executors_match_twostep_oracle(self, seed):
        rng = random.Random(1000 + seed)
        event_types = ["A", "B", "C", "D", "E"][: rng.randint(3, 5)]
        workload = _random_workload(rng, event_types)
        stream = _random_stream(rng, event_types)

        reference = FlinkLikeExecutor(workload).run(stream).results
        aseq = ASeqExecutor(workload, panes=False).run(stream).results
        assert aseq.matches(reference), aseq.differences(reference)[:5]

        for plan in _random_plans(rng, workload, count=3):
            sharon = SharonExecutor(workload, plan=plan, panes=False).run(stream).results
            assert sharon.matches(reference), (
                plan,
                sharon.differences(reference)[:5],
            )
        spass = SpassLikeExecutor(workload).run(stream).results
        assert spass.matches(reference), spass.differences(reference)[:5]

    @pytest.mark.parametrize("seed", range(4))
    def test_sum_and_avg_aggregates_match_oracle(self, seed):
        rng = random.Random(2000 + seed)
        event_types = ["A", "B", "C", "D"]
        size = rng.choice([8, 12])
        slide = rng.choice([3, 4])
        window = SlidingWindow(size=size, slide=slide)
        target = rng.choice(event_types)
        spec = rng.choice(
            [AggregateSpec.sum(target, "value"), AggregateSpec.avg(target, "value")]
        )
        queries = []
        for index in range(3):
            length = rng.randint(2, 3)
            types = rng.sample(event_types, length)
            if target not in types:
                types[rng.randrange(length)] = target
            queries.append(
                Query(
                    pattern=Pattern(types),
                    window=window,
                    aggregate=spec,
                    predicates=PredicateSet.same("entity"),
                    name=f"sq{index}",
                )
            )
        workload = Workload(queries)
        events = [
            Event(
                rng.choice(event_types),
                rng.randint(0, 30),
                {"entity": rng.randint(0, 1), "value": float(rng.randint(1, 9))},
                event_id,
            )
            for event_id in range(rng.randint(20, 60))
        ]
        stream = EventStream(events, name="random-sum")

        reference = FlinkLikeExecutor(workload).run(stream).results
        for plan in _random_plans(rng, workload, count=2):
            sharon = SharonExecutor(workload, plan=plan, panes=False).run(stream).results
            assert sharon.matches(reference), (
                plan,
                sharon.differences(reference)[:5],
            )


class TestSharingPlanNeverChangesAnswers:
    def test_many_random_plans_agree(self):
        from repro.core import build_candidates, ConflictDetector, SharingPlan
        import random

        config = ChainConfig(num_event_types=10)
        workload = chain_workload(
            8, 4, config=config, window=SlidingWindow(size=25, slide=10), seed=13
        )
        stream = chain_stream(
            duration=100, events_per_second=8, config=config, num_entities=6, seed=14
        )
        reference = ASeqExecutor(workload, panes=False).run(stream).results

        detector = ConflictDetector(workload)
        candidates = build_candidates(workload)
        rng = random.Random(3)
        plans_checked = 0
        for _ in range(6):
            rng.shuffle(candidates)
            chosen = []
            for candidate in candidates:
                if all(not detector.in_conflict(candidate, other) for other in chosen):
                    chosen.append(candidate.with_benefit(1.0))
            plan = SharingPlan(chosen)
            report = SharonExecutor(workload, plan=plan, panes=False).run(stream)
            assert report.results.matches(reference), report.results.differences(reference)[:5]
            plans_checked += 1
        assert plans_checked == 6
