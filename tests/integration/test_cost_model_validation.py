"""Validation of the sharing benefit model against measured executor work.

The benefit model (Equations 1-8) estimates, from per-type rates alone, how
much aggregation work a sharing decision saves.  The executors count their
actual work deterministically (``state_updates``: prefix-aggregate updates
plus shared-anchor updates), so the model's predictions can be checked
against ground truth without any wall-clock measurement:

* a plan the model considers beneficial must reduce the measured number of
  state updates compared to the non-shared execution;
* sharing a pattern among *more* queries must save more work;
* the empty plan must measure exactly like A-Seq (it is A-Seq).

These tests close the loop between Section 3 (the model) and Section 8 (the
measured gains) at a scale where the answer is exact.  Every executor pins
``panes=False``: the model describes the per-instance strategy, the one in
which a sharing plan acts.
"""

from __future__ import annotations

import pytest

from repro.core import BenefitModel, SharingCandidate, SharingPlan, SharonOptimizer
from repro.datasets import ChainConfig, chain_stream, chain_workload
from repro.events import SlidingWindow
from repro.executor import ASeqExecutor, SharonExecutor
from repro.queries import Pattern
from repro.utils import RateCatalog


@pytest.fixture(scope="module")
def scenario():
    config = ChainConfig(num_event_types=10, entity_attribute="car")
    workload = chain_workload(
        12,
        5,
        config=config,
        window=SlidingWindow(size=30, slide=15),
        seed=71,
        offset_pool_size=2,
    )
    stream = chain_stream(
        duration=120, events_per_second=15, config=config, num_entities=8, seed=72
    )
    return workload, stream


class TestBenefitModelAgainstMeasuredWork:
    def test_beneficial_plan_reduces_state_updates(self, scenario):
        workload, stream = scenario
        rates = RateCatalog.from_stream(stream, per="time-unit")
        plan = SharonOptimizer(rates).optimize(workload).plan
        assert not plan.is_empty, "the pooled chain workload must offer beneficial sharing"

        shared = SharonExecutor(workload, plan=plan, panes=False).run(stream)
        non_shared = ASeqExecutor(workload, panes=False).run(stream)

        assert shared.results.matches(non_shared.results)
        assert shared.metrics.state_updates < non_shared.metrics.state_updates

    def test_empty_plan_measures_exactly_like_aseq(self, scenario):
        workload, stream = scenario
        empty = SharonExecutor(workload, plan=SharingPlan(), panes=False).run(stream)
        aseq = ASeqExecutor(workload, panes=False).run(stream)
        assert empty.metrics.state_updates == aseq.metrics.state_updates
        assert empty.results.matches(aseq.results)

    def test_more_sharing_queries_save_more_work(self, scenario):
        """Sharing one pattern among a growing subset of its queries saves
        monotonically more measured work, as Equation 8 predicts when the
        per-query shared cost is below the per-query non-shared cost."""
        workload, stream = scenario
        rates = RateCatalog.from_stream(stream, per="time-unit")
        model = BenefitModel(rates)

        # The most widely shared pattern of the workload.
        from repro.core import detect_sharable_patterns

        sharable = detect_sharable_patterns(workload)
        pattern, query_names = max(sharable.items(), key=lambda item: len(item[1]))
        assert len(query_names) >= 4

        baseline_updates = ASeqExecutor(workload, panes=False).run(stream).metrics.state_updates

        savings = []
        benefits = []
        for count in (2, len(query_names) // 2 + 1, len(query_names)):
            subset = query_names[:count]
            candidate = SharingCandidate(pattern, subset, 1.0)
            report = SharonExecutor(
                workload, plan=SharingPlan([candidate]), panes=False
            ).run(stream)
            savings.append(baseline_updates - report.metrics.state_updates)
            benefits.append(
                model.benefit(pattern, [workload[name] for name in subset])
            )

        assert savings == sorted(savings), savings
        assert benefits == sorted(benefits), benefits

    def test_model_prefers_the_plan_that_measures_better(self, scenario):
        """Between the optimizer's plan and a deliberately poor plan (sharing
        only one short pattern between two queries), the model's preferred
        plan also wins on measured state updates."""
        workload, stream = scenario
        rates = RateCatalog.from_stream(stream, per="time-unit")
        optimizer_plan = SharonOptimizer(rates).optimize(workload).plan
        assert not optimizer_plan.is_empty

        from repro.core import detect_sharable_patterns

        sharable = detect_sharable_patterns(workload)
        # Pick the sharable pattern with the fewest sharing queries (worst case).
        pattern, query_names = min(
            sharable.items(), key=lambda item: (len(item[1]), item[0].event_types)
        )
        poor_plan = SharingPlan([SharingCandidate(pattern, query_names[:2], 1.0)])

        best_report = SharonExecutor(workload, plan=optimizer_plan, panes=False).run(stream)
        poor_report = SharonExecutor(workload, plan=poor_plan, panes=False).run(stream)
        assert best_report.results.matches(poor_report.results)
        assert best_report.metrics.state_updates <= poor_report.metrics.state_updates


def _walker_stream(chain_types: int, entities: int, events_per_unit: int, units: int, seed: int):
    """Entities walking a type chain (advance 0.8, jump 0.1, stay 0.1), as in ``bench/``."""
    import random

    from repro.events import Event, EventStream

    rng = random.Random(seed)
    positions = [rng.randrange(chain_types) for _ in range(entities)]
    events = []
    for timestamp in range(units):
        for _ in range(events_per_unit):
            entity = rng.randrange(entities)
            position = positions[entity]
            events.append(Event(f"T{position}", timestamp, {"entity": entity}, len(events)))
            roll = rng.random()
            if roll < 0.8:
                positions[entity] = (position + 1) % chain_types
            elif roll < 0.9:
                positions[entity] = rng.randrange(chain_types)
    return EventStream(events)


def _chain_queries(slices):
    from repro.queries import PredicateSet, Query, Workload

    window = SlidingWindow(size=20, slide=10)
    predicates = PredicateSet.same("entity")
    return Workload(
        [
            Query(
                Pattern([f"T{index}" for index in types]),
                window,
                predicates=predicates,
                name=f"q{number + 1}",
            )
            for number, types in enumerate(slices)
        ]
    )


class TestSharedNeverCostsMoreThanPrivate:
    """The benchmark's ``low-sharing`` finding, as an exact count.

    When a query *is* the shared pattern, or starts with it, Eq. 5 charges
    no combination: ``Shared(p, Qp)`` is one prefix aggregation for all of
    ``Qp``.  The executor used to open one cohort per START timestamp even
    so, and did 2.4% *more* state updates than the empty plan on the
    benchmark's ``low-sharing`` query set.
    """

    #: bench/inputs.py ``low-sharing``: 12 length-4 slices of an 8-type chain.
    LOW_SHARING_OFFSETS = (3, 0, 4, 1, 2, 4, 0, 3, 1, 2, 0, 4)

    def _assert_shared_is_no_dearer(self, workload, plan, stream):
        shared = SharonExecutor(workload, plan=plan, panes=False).run(stream)
        non_shared = ASeqExecutor(workload, panes=False).run(stream)
        # Every (query, window, group) chain value equals A-Seq's.
        assert shared.results.matches(non_shared.results), shared.results.differences(
            non_shared.results
        )[:5]
        assert shared.metrics.state_updates <= non_shared.metrics.state_updates
        # Prefix-free sharing needs one cohort per scope that saw a START.
        materialised = shared.metrics.cohorts_created - shared.metrics.cohorts_merged
        assert 0 < materialised <= len(plan) * shared.metrics.windows_finalized
        return shared, non_shared

    def test_whole_pattern_candidates_on_the_low_sharing_query_set(self):
        workload = _chain_queries(
            tuple(range(offset, offset + 4)) for offset in self.LOW_SHARING_OFFSETS
        )
        stream = _walker_stream(chain_types=8, entities=7, events_per_unit=21, units=160, seed=5)
        rates = RateCatalog.from_stream(stream, per="time-unit")
        plan = SharonOptimizer(rates).optimize(workload).plan
        # Five groups of identical queries: each candidate is a whole pattern.
        assert len(plan) == 5
        assert all(
            workload[name].pattern == candidate.pattern
            for candidate in plan
            for name in candidate.query_names
        )
        shared, non_shared = self._assert_shared_is_no_dearer(workload, plan, stream)
        # 12 queries collapse onto 5 distinct patterns.
        assert shared.metrics.state_updates * 2 < non_shared.metrics.state_updates

    def test_shared_prefix_candidate(self):
        workload = _chain_queries([(0, 1, 2, 3), (0, 1, 2, 4), (0, 1, 2, 5), (0, 1, 2, 6)])
        stream = _walker_stream(chain_types=8, entities=7, events_per_unit=21, units=160, seed=6)
        prefix = SharingCandidate(Pattern(["T0", "T1", "T2"]), workload.query_names(), 1.0)
        self._assert_shared_is_no_dearer(workload, SharingPlan([prefix]), stream)
