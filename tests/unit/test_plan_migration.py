"""Unit tests for mid-run plan migration in the streaming engine (Section 7.4).

``StreamingEngine.set_plan`` may be called between timestamp batches (the
adaptive executor does this through the ``on_batch`` hook).  Scopes that are
already open keep the decomposition they were created with; scopes created
afterwards follow the new plan.  Results must therefore be identical to any
static run — these tests switch plans at several points of a stream and
compare against the non-shared baseline.
"""

from __future__ import annotations

import pytest

from repro.core import ConflictDetector, SharingCandidate, SharingPlan, build_candidates
from repro.datasets import ChainConfig, chain_stream, chain_workload
from repro.events import EventStream, SlidingWindow
from repro.executor import ASeqExecutor, StreamingEngine
from repro.queries import Pattern, Query, Workload

from ..conftest import make_events


def small_setup():
    window = SlidingWindow(size=20, slide=10)
    workload = Workload(
        [
            Query(Pattern(["A", "B", "C"]), window, name="m1"),
            Query(Pattern(["B", "C", "D"]), window, name="m2"),
            Query(Pattern(["A", "B"]), window, name="m3"),
        ]
    )
    rows = []
    for base in range(0, 80, 4):
        rows.extend([("A", base), ("B", base + 1), ("C", base + 2), ("D", base + 3)])
    return workload, EventStream(make_events(rows))


class TestSetPlan:
    def test_switching_plans_mid_stream_preserves_results(self):
        workload, stream = small_setup()
        shared_bc = SharingPlan([SharingCandidate(Pattern(["B", "C"]), ("m1", "m2"), 1.0)])
        shared_ab = SharingPlan([SharingCandidate(Pattern(["A", "B"]), ("m1", "m3"), 1.0)])
        baseline = ASeqExecutor(workload, panes=False).run(stream)

        engine = StreamingEngine(workload, plan=shared_bc, name="migrating", panes=False)
        switched_at = []

        def on_batch(timestamp, batch):
            if timestamp == 30:
                engine.set_plan(shared_ab)
                switched_at.append(timestamp)
            elif timestamp == 60:
                engine.set_plan(SharingPlan())
                switched_at.append(timestamp)

        report = engine.run(stream, on_batch=on_batch)
        assert switched_at == [30, 60]
        assert report.results.matches(baseline.results), report.results.differences(
            baseline.results
        )[:5]
        # The report carries the plan in force at the end of the run.
        assert report.plan == SharingPlan()

    def test_switch_every_slide_boundary(self):
        """Alternating plans aggressively still never changes any answer."""
        config = ChainConfig(num_event_types=8, entity_attribute="car")
        workload = chain_workload(
            6, 4, config=config, window=SlidingWindow(size=16, slide=8), seed=91,
            offset_pool_size=2,
        )
        stream = chain_stream(
            duration=80, events_per_second=6, config=config, num_entities=4, seed=92
        )
        detector = ConflictDetector(workload)
        candidates = [c.with_benefit(1.0) for c in build_candidates(workload)]
        plans = [SharingPlan()]
        for candidate in candidates:
            if all(
                not detector.in_conflict(candidate, other) for other in plans[-1].candidates
            ):
                plans.append(plans[-1].add(candidate))

        baseline = ASeqExecutor(workload, panes=False).run(stream)
        engine = StreamingEngine(workload, plan=plans[0], name="migrating", panes=False)
        state = {"next": 0}

        def on_batch(timestamp, batch):
            if timestamp % 8 == 7:
                state["next"] = (state["next"] + 1) % len(plans)
                engine.set_plan(plans[state["next"]])

        report = engine.run(stream, on_batch=on_batch)
        assert report.results.matches(baseline.results), report.results.differences(
            baseline.results
        )[:5]

    def test_on_batch_receives_every_timestamp_batch(self):
        workload, stream = small_setup()
        engine = StreamingEngine(workload, panes=False)
        seen = []

        def on_batch(timestamp, batch):
            seen.append((timestamp, len(batch)))

        engine.run(stream, on_batch=on_batch)
        timestamps = [t for t, _ in seen]
        assert timestamps == sorted(set(e.timestamp for e in stream))
        assert sum(count for _, count in seen) == len(stream)

    def test_set_plan_validates_against_workload(self):
        workload, _ = small_setup()
        engine = StreamingEngine(workload, panes=False)
        bogus = SharingPlan([SharingCandidate(Pattern(["X", "Y"]), ("m1", "m2"), 1.0)])
        with pytest.raises(ValueError, match="does not occur"):
            engine.set_plan(bogus)


class TestScopePoolingAcrossMigration:
    """Pooled scopes must never serve a compiled workload they were not built for,
    and coalesced cohort state must never leak into a reused scope."""

    def _compiled_pair(self):
        from repro.executor import CompiledWorkload
        from repro.events.windows import WindowInstance

        workload, _ = small_setup()
        plan_a = SharingPlan([SharingCandidate(Pattern(["B", "C"]), ("m1", "m2"), 1.0)])
        plan_b = SharingPlan([SharingCandidate(Pattern(["A", "B"]), ("m1", "m3"), 1.0)])
        compiled_a = CompiledWorkload(workload, plan_a)
        compiled_b = CompiledWorkload(workload, plan_b)
        window = WindowInstance(0, 20)
        return compiled_a, compiled_b, window

    def test_pool_invalidated_when_compiled_workload_changes(self):
        from repro.executor import WindowGroupScope

        compiled_a, compiled_b, window = self._compiled_pair()
        retired = WindowGroupScope(compiled_a, window, ())
        pool = [retired]
        fresh = StreamingEngine._acquire_scope(pool, compiled_b, window, ())
        assert fresh is not retired
        assert fresh.compiled is compiled_b
        assert pool == []  # stale scopes dropped, not recycled later

    def test_pool_reuses_scope_for_same_compiled_workload(self):
        from repro.executor import WindowGroupScope
        from repro.events.windows import WindowInstance

        compiled_a, _, window = self._compiled_pair()
        retired = WindowGroupScope(compiled_a, window, ())
        retired.reset()
        pool = [retired]
        other_window = WindowInstance(20, 40)
        reused = StreamingEngine._acquire_scope(pool, compiled_a, other_window, ("g",))
        assert reused is retired
        assert reused.window == other_window
        assert reused.group == ("g",)

    def test_reset_scope_carries_no_coalesced_cohorts(self):
        """A pooled scope starts from zero cohorts, carries, and cohort counters."""
        from repro.executor import WindowGroupScope

        # compiled_a shares (B, C) *behind* m1's A, so m1's runner holds real
        # carries; compiled_b shares the (A, B) *prefix* of m1 and m3, so
        # every START batch joins one cohort.
        compiled_a, compiled_b, window = self._compiled_pair()
        rows = []
        for base in range(0, 18, 3):
            rows.extend([("A", base), ("B", base + 1), ("C", base + 2)])
        events = make_events(rows)
        for compiled in (compiled_a, compiled_b):
            scope = WindowGroupScope(compiled, window, ())
            index = 0
            while index < len(events):
                end = index
                while end < len(events) and events[end].timestamp == events[index].timestamp:
                    end += 1
                scope.process_batch(events[index:end])
                index = end
            shared_state = next(iter(scope.shared_states.values()))
            assert shared_state.cohorts_created == 6 and shared_state.cohort_count > 0
            if compiled is compiled_b:
                assert shared_state.cohort_count == 1 and shared_state.cohorts_merged == 5
            assert any(chain.final_state().count for chain in scope.chains.values())
            scope.reset()
            for state in scope.shared_states.values():
                assert state.cohort_count == 0
                assert state.cohorts_created == 0
                assert state.cohorts_merged == 0
                assert state.total_completed(state.specs[0]).count == 0
            for chain in scope.chains.values():
                assert chain.final_state().count == 0
                for runner in chain.runners:
                    if hasattr(runner, "carries"):
                        assert runner.carries == []

    def test_migration_with_compaction_preserves_results_under_pooling(self):
        """Sliding windows force scope reuse; alternating plans force pool
        invalidation; cohorts coalesce throughout.  Results must equal the
        non-shared baseline run."""
        config = ChainConfig(num_event_types=6, entity_attribute="car")
        workload = chain_workload(
            5, 3, config=config, window=SlidingWindow(size=16, slide=4), seed=17,
            offset_pool_size=2,
        )
        stream = chain_stream(
            duration=120, events_per_second=8, config=config, num_entities=3, seed=18
        )
        detector = ConflictDetector(workload)
        plans = [SharingPlan()]
        for candidate in build_candidates(workload):
            candidate = candidate.with_benefit(1.0)
            if all(
                not detector.in_conflict(candidate, other) for other in plans[-1].candidates
            ):
                plans.append(plans[-1].add(candidate))

        baseline = ASeqExecutor(workload, panes=False).run(stream)
        engine = StreamingEngine(workload, plan=plans[-1], name="pooled", panes=False)
        state = {"next": 0}

        def on_batch(timestamp, batch):
            if timestamp % 12 == 11:
                state["next"] = (state["next"] + 1) % len(plans)
                engine.set_plan(plans[state["next"]])

        report = engine.run(stream, on_batch=on_batch)
        assert report.results.matches(baseline.results), report.results.differences(
            baseline.results
        )[:5]
