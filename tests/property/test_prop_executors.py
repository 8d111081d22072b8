"""Property-based end-to-end check: online executors equal the brute-force oracle.

For randomly generated small workloads, sharing plans, and streams, the
Sharon executor (shared online), the A-Seq executor (non-shared online), and
the Flink-like two-step oracle must return identical results for every query,
window, and group.  This is the library-level statement of the paper's
correctness claim: sharing and online aggregation are pure optimizations.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import SharingPlan
from repro.events import Event, EventStream, SlidingWindow
from repro.executor import ASeqExecutor, FlinkLikeExecutor, SharonExecutor
from repro.queries import AggregateSpec, Pattern, PredicateSet, Query, Workload

from ..conftest import random_maximal_plan

EVENT_TYPES = ["A", "B", "C", "D"]


@st.composite
def workloads(draw):
    """Small uniform COUNT(*) workloads over types A-D."""
    window_size = draw(st.sampled_from([6, 8, 12]))
    slide = draw(st.sampled_from([3, 4, window_size]))
    slide = min(slide, window_size)
    window = SlidingWindow(size=window_size, slide=slide)
    use_equivalence = draw(st.booleans())
    predicates = PredicateSet.same("entity") if use_equivalence else PredicateSet()
    num_queries = draw(st.integers(min_value=2, max_value=4))
    queries = []
    for index in range(num_queries):
        length = draw(st.integers(min_value=2, max_value=3))
        types = draw(
            st.lists(st.sampled_from(EVENT_TYPES), min_size=length, max_size=length, unique=True)
        )
        queries.append(
            Query(
                pattern=Pattern(types),
                window=window,
                aggregate=AggregateSpec.count_star(),
                predicates=predicates,
                name=f"pq{index}",
            )
        )
    return Workload(queries)


@st.composite
def streams(draw):
    """Short random streams with shared timestamps and two entities."""
    length = draw(st.integers(min_value=5, max_value=40))
    events = []
    for event_id in range(length):
        event_type = draw(st.sampled_from(EVENT_TYPES))
        timestamp = draw(st.integers(min_value=0, max_value=25))
        entity = draw(st.integers(min_value=0, max_value=1))
        events.append(Event(event_type, timestamp, {"entity": entity}, event_id))
    return EventStream(events)


def random_valid_plan(workload: Workload, seed: int) -> SharingPlan:
    """A maximal conflict-free plan assembled in pseudo-random order."""
    return random_maximal_plan(workload, seed)


@settings(max_examples=40, deadline=None)
@given(workloads(), streams(), st.integers(min_value=0, max_value=10))
def test_online_executors_match_brute_force(workload, stream, plan_seed):
    plan = random_valid_plan(workload, plan_seed)
    oracle = FlinkLikeExecutor(workload).run(stream).results
    aseq = ASeqExecutor(workload).run(stream).results
    sharon = SharonExecutor(workload, plan=plan).run(stream).results

    assert aseq.matches(oracle), aseq.differences(oracle)[:5]
    assert sharon.matches(oracle), (list(plan), sharon.differences(oracle)[:5])


@settings(max_examples=40, deadline=None)
@given(workloads(), streams(), st.integers(min_value=0, max_value=10))
def test_cohort_compaction_is_semantics_preserving(workload, stream, plan_seed):
    """For any random stream, compaction on and off produce identical results.

    Compaction merges anchor cohorts whose carries coincide in every sharing
    query — a pure representation change.  The off-run is the uncompacted
    reference; both must also equal the brute-force oracle.
    """
    plan = random_valid_plan(workload, plan_seed)
    compacted = SharonExecutor(workload, plan=plan, compaction=True).run(stream).results
    uncompacted = SharonExecutor(workload, plan=plan, compaction=False).run(stream).results
    assert compacted.matches(uncompacted), (
        list(plan),
        compacted.differences(uncompacted)[:5],
    )
    oracle = FlinkLikeExecutor(workload).run(stream).results
    assert compacted.matches(oracle), (list(plan), compacted.differences(oracle)[:5])


@settings(max_examples=15, deadline=None)
@given(streams(), st.integers(min_value=0, max_value=5))
def test_shared_prefix_workloads_keep_one_cohort_per_scope(stream, plan_seed):
    """Queries that start with the shared pattern carry nothing to combine.

    The random stream is densified with one (A, B) pair per timestamp of the
    first window instance.  Whatever else the stream holds, each scope must
    materialise at most one cohort (``created - merged``), the reference
    layout must materialise one per START batch, and the results must still
    equal the non-shared baseline.
    """
    window = SlidingWindow(size=12, slide=6)
    workload = Workload(
        [
            Query(Pattern(("A", "B", "C")), window, name="cp0"),
            Query(Pattern(("A", "B", "D")), window, name="cp1"),
        ]
    )
    plan = random_valid_plan(workload, plan_seed)
    assert [candidate.pattern for candidate in plan] == [Pattern(("A", "B"))]
    dense = list(stream)
    next_id = len(dense)
    for timestamp in range(window.size):
        dense.append(Event("A", timestamp, {"entity": 0}, next_id))
        dense.append(Event("B", timestamp, {"entity": 0}, next_id + 1))
        next_id += 2
    dense_stream = EventStream(dense)
    report = SharonExecutor(workload, plan=plan, compaction=True).run(dense_stream)
    uncoalesced = SharonExecutor(workload, plan=plan, compaction=False).run(dense_stream)
    reference = ASeqExecutor(workload).run(dense_stream).results
    assert report.results.matches(reference), report.results.differences(reference)[:5]
    metrics = report.metrics
    assert metrics.cohorts_created == uncoalesced.metrics.cohorts_created
    assert uncoalesced.metrics.cohorts_merged == 0
    assert metrics.cohorts_merged >= window.size - 1
    assert 0 < metrics.cohorts_created - metrics.cohorts_merged <= metrics.windows_finalized


def _cohort_layout(session):
    """Per open shared state: (carry tuples of its cohorts, created, merged)."""
    layout = []
    for by_group in session._scopes.values():
        for scope in by_group.values():
            for state in scope.shared_states.values():
                carries = list(zip(*(runner.carries for runner in state._runners)))
                if not state._runners:
                    carries = [()] * state.cohort_count
                assert len(carries) == state.cohort_count
                layout.append((carries, state.cohorts_created, state.cohorts_merged))
    return layout


@settings(max_examples=40, deadline=None)
@given(workloads(), streams(), st.integers(min_value=0, max_value=10))
def test_cohorts_are_distinct_carry_tuples_after_every_batch(workload, stream, plan_seed):
    """The coalescing fixed point holds after *every* batch, on both backends.

    With ``compaction`` on, no two cohorts of a shared state may hold equal
    carry tuples and ``created - merged`` equals the live cohort count; with
    it off, every START batch is a cohort.  All four (compaction × backend)
    runs must emit the same results and the same counter pair per backend.
    """
    from repro.executor import StreamingEngine
    from repro.executor.kernels import numpy_available

    plan = random_valid_plan(workload, plan_seed)
    reports = {}
    for backend in ("python", "numpy") if numpy_available() else ("python",):
        for compaction in (True, False):
            engine = StreamingEngine(workload, plan, compaction=compaction, backend=backend)
            session = engine.new_session()
            session.collector.start()
            for timestamp, _batch, groups in engine.routed_batches(stream, session.collector):
                session.step(timestamp, groups)
                for carries, created, merged in _cohort_layout(session):
                    assert created - merged == len(carries)
                    if compaction:
                        assert len(set(carries)) == len(carries), carries
                    else:
                        assert merged == 0
            reports[backend, compaction] = session.finish()
    baseline = reports["python", False]
    for (backend, compaction), report in reports.items():
        assert report.results.matches(baseline.results), (
            backend,
            compaction,
            list(plan),
            report.results.differences(baseline.results)[:5],
        )
        assert report.metrics.cohorts_created == baseline.metrics.cohorts_created
        twin = reports["python", compaction].metrics
        assert report.metrics.cohorts_merged == twin.cohorts_merged
        assert report.metrics.state_updates == twin.state_updates


@settings(max_examples=40, deadline=None)
@given(workloads(), streams(), st.integers(min_value=0, max_value=10))
def test_pane_partitioning_is_semantics_preserving(workload, stream, plan_seed):
    """For any random stream, panes on and panes off produce identical results.

    Pane partitioning only changes *who owns* the aggregation state (a pane
    of width gcd(size, slide) instead of each covering window instance); the
    assembled per-window values must be bit-for-bit the per-instance ones,
    and both must equal the brute-force oracle.
    """
    plan = random_valid_plan(workload, plan_seed)
    panes_on = SharonExecutor(workload, plan=plan, panes=True).run(stream).results
    panes_off = SharonExecutor(workload, plan=plan, panes=False).run(stream).results
    assert panes_on.matches(panes_off), (
        list(plan),
        panes_on.differences(panes_off)[:5],
    )
    oracle = FlinkLikeExecutor(workload).run(stream).results
    assert panes_on.matches(oracle), (list(plan), panes_on.differences(oracle)[:5])


@settings(max_examples=25, deadline=None)
@given(workloads(), streams(), st.integers(min_value=0, max_value=10))
def test_pane_and_compaction_toggles_commute(workload, stream, plan_seed):
    """All four pane × compaction combinations agree on every scenario.

    The two optimisations are independent representation changes (panes own
    scope state, compaction shrinks cohort sets); toggling either must never
    change a result, so the full 2×2 grid collapses to one answer.
    """
    plan = random_valid_plan(workload, plan_seed)
    reference = None
    reference_config = None
    for panes in (False, True):
        for compaction in (False, True):
            results = (
                SharonExecutor(workload, plan=plan, panes=panes, compaction=compaction)
                .run(stream)
                .results
            )
            if reference is None:
                reference = results
                reference_config = (panes, compaction)
                continue
            assert results.matches(reference), (
                list(plan),
                reference_config,
                (panes, compaction),
                results.differences(reference)[:5],
            )


@settings(max_examples=20, deadline=None)
@given(workloads(), streams(), st.integers(min_value=0, max_value=10))
def test_columnar_ingestion_is_semantics_preserving(workload, stream, plan_seed):
    """Columnar and scalar ingestion produce identical results on any stream.

    Columnar mode only changes *how* events are routed (interned type ids,
    compiled predicate kernels, pre-interned group keys); the per-scope
    aggregation consumes the same sub-batches in the same order, so results
    must be bit-for-bit the scalar ones — and both must equal the oracle.
    """
    plan = random_valid_plan(workload, plan_seed)
    columnar = SharonExecutor(workload, plan=plan, columnar=True).run(stream).results
    scalar = SharonExecutor(workload, plan=plan, columnar=False).run(stream).results
    assert columnar.matches(scalar), (list(plan), columnar.differences(scalar)[:5])
    oracle = FlinkLikeExecutor(workload).run(stream).results
    assert columnar.matches(oracle), (list(plan), columnar.differences(oracle)[:5])


@settings(max_examples=12, deadline=None)
@given(workloads(), streams(), st.integers(min_value=0, max_value=10))
def test_columnar_pane_compaction_toggle_cube_agrees(workload, stream, plan_seed):
    """The full columnar × panes × compaction 2×2×2 cube collapses to one answer.

    The three optimisations are independent: columnar mode changes batch
    *routing*, panes change scope *ownership*, compaction shrinks cohort
    *sets*.  No combination of toggles may change a result, and the shared
    answer must equal the brute-force oracle.
    """
    plan = random_valid_plan(workload, plan_seed)
    oracle = FlinkLikeExecutor(workload).run(stream).results
    for columnar in (False, True):
        for panes in (False, True):
            for compaction in (False, True):
                results = (
                    SharonExecutor(
                        workload,
                        plan=plan,
                        columnar=columnar,
                        panes=panes,
                        compaction=compaction,
                    )
                    .run(stream)
                    .results
                )
                assert results.matches(oracle), (
                    list(plan),
                    (columnar, panes, compaction),
                    results.differences(oracle)[:5],
                )


@settings(max_examples=25, deadline=None)
@given(workloads(), streams())
def test_empty_and_full_plans_agree(workload, stream):
    reference = ASeqExecutor(workload).run(stream).results
    empty_plan = SharonExecutor(workload, plan=SharingPlan()).run(stream).results
    maximal_plan = SharonExecutor(workload, plan=random_valid_plan(workload, 0)).run(
        stream
    ).results
    assert empty_plan.matches(reference)
    assert maximal_plan.matches(reference)
