"""Unit tests for mid-run plan migration in the streaming engine (Section 7.4).

``session.migrate(workload, plan)`` may be called between timestamp batches
(every churn op does: a plan op, which the adaptive executor emits, attach
and detach).  Scopes that are already open keep the decomposition
they were created with; scopes created afterwards follow the new plan.
Results must therefore be identical to any static run — these tests switch
plans at several points of a stream and compare against the non-shared
baseline, and resume snapshots taken between migrations.
"""

from __future__ import annotations

import pytest

from repro.core import ConflictDetector, SharingCandidate, SharingPlan, build_candidates
from repro.datasets import ChainConfig, chain_stream, chain_workload
from repro.events import EventStream, SlidingWindow
from repro.executor import ASeqExecutor, ChurnOp, StreamingEngine
from repro.executor.engine import Instances
from repro.executor.metrics import MetricsCollector
from repro.executor.results import encode_result_lines
from repro.queries import Pattern, Query, Workload
from repro.replay import state_hash

from ..conftest import kernel_batches, make_events

SHARED_BC = SharingPlan([SharingCandidate(Pattern(["B", "C"]), ("m1", "m2"), 1.0)])
SHARED_AB = SharingPlan([SharingCandidate(Pattern(["A", "B"]), ("m1", "m3"), 1.0)])


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


def migrating_plans(workload):
    """A chain of pairwise conflict-free plans, from the empty plan up."""
    detector = ConflictDetector(workload)
    plans = [SharingPlan()]
    for candidate in build_candidates(workload):
        candidate = candidate.with_benefit(1.0)
        if all(not detector.in_conflict(candidate, other) for other in plans[-1].candidates):
            plans.append(plans[-1].add(candidate))
    return plans


class TestMigrate:
    def test_switching_plans_mid_stream_preserves_results(self):
        workload, stream = small_setup()
        baseline = ASeqExecutor(workload, panes=False).run(stream)

        engine = StreamingEngine(workload, plan=SHARED_BC, name="migrating", panes=False)
        assert {30, 60} <= {event.timestamp for event in stream}  # both switches happen
        actions = {30: migrate_to(SHARED_AB), 60: migrate_to(SharingPlan())}
        report, *_ = drive(engine.new_session(), stream, actions)
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
        plans = migrating_plans(workload)

        baseline = ASeqExecutor(workload, panes=False).run(stream)
        engine = StreamingEngine(workload, plan=plans[0], name="migrating", panes=False)
        session = engine.new_session()
        switches = 0
        for timestamp, _batch in session.drive(stream):
            if timestamp % 8 == 7:
                switches += 1
                session.migrate(workload, plans[switches % len(plans)])
        report = session.finish()
        assert report.results.matches(baseline.results), report.results.differences(
            baseline.results
        )[:5]

    def test_drive_yields_every_timestamp_batch(self):
        workload, stream = small_setup()
        session = StreamingEngine(workload, panes=False).new_session()
        seen = [(timestamp, len(batch)) for timestamp, batch in session.drive(stream)]
        timestamps = [t for t, _ in seen]
        assert timestamps == sorted(set(e.timestamp for e in stream))
        assert sum(count for _, count in seen) == len(stream)

    def test_migrate_validates_the_plan_against_the_workload(self):
        workload, _ = small_setup()
        session = StreamingEngine(workload, panes=False).new_session()
        bogus = SharingPlan([SharingCandidate(Pattern(["X", "Y"]), ("m1", "m2"), 1.0)])
        with pytest.raises(ValueError, match="does not occur"):
            session.migrate(workload, bogus)


def drive(session, events, actions, snapshot_at=None):
    """Run ``events`` through ``session``, calling ``actions[t](session)`` after batch ``t``.

    Returns ``(report, final state hash, snapshot)``; the snapshot is the
    export and the prior result lines taken after batch ``snapshot_at``.
    """
    snapshot = None
    for timestamp, _batch in session.drive(events):
        action = actions.get(timestamp)
        if action is not None:
            action(session)
        if timestamp == snapshot_at:
            snapshot = session.export_state(), encode_result_lines(session.results)
    report = session.finish()
    return report, state_hash(session), snapshot


def migrate_to(plan):
    return lambda session: session.migrate(session.workload, plan)


JOINER = Query(Pattern(["C", "D"]), SlidingWindow(size=20, slide=10), name="j1")


@pytest.mark.parametrize("panes", [False, True], ids=["instances", "panes"])
class TestMigrationCheckpoints:
    """Resume contract: re-apply the same migrations in order, then restore."""

    def _resume(self, panes, snapshot, replayed, tail, actions):
        workload, _ = small_setup()
        session = StreamingEngine(workload, plan=SHARED_BC, panes=panes).new_session()
        for action in replayed:
            action(session)
        session.restore_state(*snapshot)
        return drive(session, tail, actions)

    @pytest.mark.parametrize("snapshot_at", [33, 43])
    def test_plan_migration_survives_export_and_restore(self, panes, snapshot_at):
        workload, stream = small_setup()
        actions = {30: migrate_to(SHARED_AB), 60: migrate_to(SharingPlan())}
        full = StreamingEngine(workload, plan=SHARED_BC, panes=panes).new_session()
        full_report, full_hash, snapshot = drive(full, stream, actions, snapshot_at)

        tail = [event for event in stream if event.timestamp > snapshot_at]
        resumed_report, resumed_hash, _ = self._resume(
            panes, snapshot, [migrate_to(SHARED_AB)], tail, {60: migrate_to(SharingPlan())}
        )
        assert resumed_hash == full_hash
        assert encode_result_lines(resumed_report.results) == encode_result_lines(
            full_report.results
        )
        aseq = ASeqExecutor(workload, panes=False).run(stream).results
        assert resumed_report.results.matches(aseq), resumed_report.results.differences(aseq)[:5]

    def test_plan_migration_then_attach_survives_export_and_restore(self, panes):
        workload, stream = small_setup()
        attach = lambda session: session.attach_query(JOINER, at=53)  # noqa: E731
        actions = {40: migrate_to(SHARED_AB), 52: attach}
        full = StreamingEngine(workload, plan=SHARED_BC, panes=panes).new_session()
        full_report, full_hash, snapshot = drive(full, stream, actions, snapshot_at=55)
        assert full.attach_timestamps == {"j1": 53}

        tail = [event for event in stream if event.timestamp > 55]
        resumed_report, resumed_hash, _ = self._resume(
            panes, snapshot, [migrate_to(SHARED_AB), attach], tail, {}
        )
        assert resumed_hash == full_hash
        assert encode_result_lines(resumed_report.results) == encode_result_lines(
            full_report.results
        )
        scheduled = ASeqExecutor(
            workload, panes=False, churn=[ChurnOp("attach", 53, query=JOINER)]
        ).run(stream)
        assert resumed_report.results.matches(scheduled.results)


def test_restoring_without_the_migrations_is_refused_by_name():
    """A per-instance scope opened under a later plan names its missing generation."""
    workload, stream = small_setup()
    full = StreamingEngine(workload, plan=SHARED_BC, panes=False).new_session()
    *_, snapshot = drive(full, stream, {30: migrate_to(SHARED_AB)}, snapshot_at=43)
    assert {dump["generation"] for dump in snapshot[0]["scopes"]} == {0, 1}
    fresh = StreamingEngine(workload, plan=SHARED_BC, panes=False).new_session()
    with pytest.raises(ValueError, match="generation 1.*re-apply the same migrations"):
        fresh.restore_state(*snapshot)


class TestScopePoolingAcrossMigration:
    """Pooled scopes must never serve a compiled workload they were not built for,
    and coalesced cohort state must never leak into a reused scope."""

    def _compiled_pair(self):
        from repro.executor import CompiledWorkload
        from repro.events.windows import WindowInstance

        workload, _ = small_setup()
        compiled_a = CompiledWorkload(workload, SHARED_BC)
        compiled_b = CompiledWorkload(workload, SHARED_AB)
        window = WindowInstance(0, 20)
        return compiled_a, compiled_b, window

    def test_pool_invalidated_when_compiled_workload_changes(self):
        from repro.executor import WindowGroupScope

        compiled_a, compiled_b, window = self._compiled_pair()
        retired = WindowGroupScope(compiled_a, window, ())
        strategy = Instances(compiled_b, MetricsCollector("pool"))
        strategy.pool.append(retired)
        fresh = strategy._acquire_scope(compiled_b, window, ())
        assert fresh is not retired
        assert fresh.compiled is compiled_b
        assert strategy.pool == []  # stale scopes dropped, not recycled later

    def test_pool_reuses_scope_for_same_compiled_workload(self):
        from repro.executor import WindowGroupScope
        from repro.events.windows import WindowInstance

        compiled_a, _, window = self._compiled_pair()
        retired = WindowGroupScope(compiled_a, window, ())
        retired.reset()
        strategy = Instances(compiled_a, MetricsCollector("pool"))
        strategy.pool.append(retired)
        other_window = WindowInstance(20, 40)
        reused = strategy._acquire_scope(compiled_a, other_window, ("g",))
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
        for compiled in (compiled_a, compiled_b):
            scope = WindowGroupScope(compiled, window, ())
            for batch, by_type in kernel_batches(make_events(rows)):
                scope.process_batch(batch, by_type)
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
        plans = migrating_plans(workload)

        baseline = ASeqExecutor(workload, panes=False).run(stream)
        engine = StreamingEngine(workload, plan=plans[-1], name="pooled", panes=False)
        session = engine.new_session()
        switches = 0
        for timestamp, _batch in session.drive(stream):
            if timestamp % 12 == 11:
                switches += 1
                session.migrate(workload, plans[switches % len(plans)])
        report = session.finish()
        assert report.results.matches(baseline.results), report.results.differences(
            baseline.results
        )[:5]
