"""Property-based end-to-end check: online executors equal the brute-force oracle.

For randomly generated small workloads, sharing plans, and streams, the
Sharon executor (shared online), the A-Seq executor (non-shared online), and
the Flink-like two-step oracle must return identical results for every query,
window, and group.  This is the library-level statement of the paper's
correctness claim: sharing and online aggregation are pure optimizations.
"""

from __future__ import annotations

import tempfile
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import SharingPlan
from repro.datasets.workloads import PANE_STRESS_WINDOWS, random_maximal_plan
from repro.events import Event, EventStream, SlidingWindow, bounded_shuffle
from repro.executor import (
    ASeqExecutor,
    ChurnOp,
    ChurnSchedule,
    FlinkLikeExecutor,
    OracleExecutor,
    ResultSet,
    SharonExecutor,
)
from repro.executor.results import encode_result_lines
from repro.queries import AggregateSpec, Pattern, PredicateSet, Query, Workload
from repro.replay import ReplayRunner


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
    aseq = ASeqExecutor(workload, panes=False).run(stream).results
    sharon = SharonExecutor(workload, plan=plan, panes=False).run(stream).results

    assert aseq.matches(oracle), aseq.differences(oracle)[:5]
    assert sharon.matches(oracle), (list(plan), sharon.differences(oracle)[:5])


@settings(max_examples=15, deadline=None)
@given(streams(), st.integers(min_value=0, max_value=5))
def test_shared_prefix_workloads_keep_one_cohort_per_scope(stream, plan_seed):
    """Queries that start with the shared pattern carry nothing to combine.

    The random stream is densified with one (A, B) pair per timestamp of the
    first window instance.  Whatever else the stream holds, each scope must
    materialise at most one cohort (``created - merged``) however many START
    batches it saw, and the results must still equal the non-shared baseline.
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
    report = SharonExecutor(workload, plan=plan, panes=False).run(dense_stream)
    reference = ASeqExecutor(workload, panes=False).run(dense_stream).results
    assert report.results.matches(reference), report.results.differences(reference)[:5]
    metrics = report.metrics
    assert metrics.cohorts_created >= window.size
    assert metrics.cohorts_merged >= window.size - 1
    assert 0 < metrics.cohorts_created - metrics.cohorts_merged <= metrics.windows_finalized


def _cohort_layout(session):
    """Per open shared state: (carry tuples of its cohorts, created, merged)."""
    layout = []
    for by_group in session.strategy.windows.values():
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
    """The coalescing fixed point holds after *every* batch.

    No two cohorts of a shared state may hold equal carry tuples, and
    ``created - merged`` equals the live cohort count; the results still
    equal the brute-force oracle.
    """
    from repro.executor import StreamingEngine

    plan = random_valid_plan(workload, plan_seed)
    engine = StreamingEngine(workload, plan, panes=False)
    session = engine.new_session()
    session.collector.start()
    for timestamp, batch, groups in session.routed_batches(stream):
        session.step(timestamp, batch, groups)
        for carries, created, merged in _cohort_layout(session):
            assert created - merged == len(carries)
            assert len(set(carries)) == len(carries), carries
    results = session.finish().results
    oracle = FlinkLikeExecutor(workload).run(stream).results
    assert results.matches(oracle), (list(plan), results.differences(oracle)[:5])


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
@given(workloads(), streams())
def test_empty_and_full_plans_agree(workload, stream):
    reference = ASeqExecutor(workload, panes=False).run(stream).results
    empty_plan = SharonExecutor(workload, plan=SharingPlan(), panes=False).run(stream).results
    maximal_plan = SharonExecutor(workload, plan=random_valid_plan(workload, 0), panes=False).run(
        stream
    ).results
    assert empty_plan.matches(reference)
    assert maximal_plan.matches(reference)


# -- the window strategy is a pure optimisation ---------------------------------------------

#: Geometries on both sides of the engine's rule (``StreamingEngine.panes_eligible``).
STRATEGY_GEOMETRIES = tuple(PANE_STRESS_WINDOWS) + ((20, 10), (40, 8), (21, 10))


@st.composite
def strategy_cases(draw, slices=False):
    """A uniform workload on a rule-relevant geometry, with ops sampled in.

    Returns ``(workload, events, schedule, max_lateness, exact)``: events in
    canonical order, an optional attach (and detach) schedule, an optional
    lateness bound, and whether every attribute value is an integer — then
    SUM/MIN/MAX/AVG are exact in any merge order and result lines must be
    byte-identical across strategies, not just equal within tolerance.

    With ``slices`` every pattern is a contiguous slice of one drawn chain
    over five types (types may repeat in it), so queries have infixes — pane
    cells — in common, and the window always overlaps (panes run).
    """
    geometries = STRATEGY_GEOMETRIES
    alphabet = EVENT_TYPES
    if slices:
        geometries = [(size, slide) for size, slide in geometries if slide < size]
        alphabet = EVENT_TYPES + ["E"]
        chain = draw(st.lists(st.sampled_from(alphabet), min_size=4, max_size=7))
    size, slide = draw(st.sampled_from(geometries))
    window = SlidingWindow(size=size, slide=slide)
    predicates = PredicateSet.same("entity") if draw(st.booleans()) else PredicateSet()
    queries = []
    for index in range(draw(st.integers(min_value=2, max_value=4))):
        if slices:
            length = draw(st.integers(min_value=1, max_value=4))
            start = draw(st.integers(min_value=0, max_value=len(chain) - length))
            types = chain[start : start + length]
        else:
            length = draw(st.integers(min_value=2, max_value=3))
            types = draw(
                st.lists(st.sampled_from(alphabet), min_size=length, max_size=length, unique=True)
            )
        target = draw(st.sampled_from(types))
        aggregate = draw(
            st.sampled_from(
                [
                    AggregateSpec.count_star(),
                    AggregateSpec.count_star(),  # duplicates of (pattern, spec) stay likely
                    AggregateSpec.count(target),
                    AggregateSpec.sum(target, "value"),
                    AggregateSpec.min(target, "value"),
                    AggregateSpec.max(target, "value"),
                    AggregateSpec.avg(target, "value"),
                ]
            )
        )
        queries.append(Query(Pattern(types), window, aggregate, predicates, name=f"sq{index}"))
    exact = draw(st.booleans())
    horizon = 2 * size + slide
    events = sorted(
        (
            Event(
                draw(st.sampled_from(alphabet)),
                draw(st.integers(min_value=0, max_value=horizon)),
                {
                    "entity": draw(st.integers(min_value=0, max_value=1)),
                    "value": draw(st.integers(min_value=0, max_value=30)) / (1 if exact else 10),
                },
                event_id,
            )
            for event_id in range(draw(st.integers(min_value=6, max_value=40)))
        ),
        key=lambda event: (event.timestamp, event.event_id),
    )
    ops = []
    if draw(st.booleans()):
        attach_at = draw(st.integers(min_value=1, max_value=horizon - 1))
        ops.append(ChurnOp("attach", attach_at, query=queries.pop()))
        if len(queries) > 1 and draw(st.booleans()):
            detach_at = draw(st.integers(min_value=attach_at + 1, max_value=horizon))
            ops.append(ChurnOp("detach", detach_at, query_name=queries[0].name))
    max_lateness = draw(st.sampled_from([None, None, 1, 3]))
    return Workload(queries), events, ChurnSchedule(ops), max_lateness, exact


def _oracle_under_churn(workload, events, schedule) -> ResultSet:
    """Brute force per query: attach = restart gated at ``t``, detach = truncate at ``t``."""
    lifetimes = {query.name: [query, None, None] for query in workload}
    for op in schedule:
        if op.kind == "attach":
            lifetimes[op.query_name] = [op.query, op.at, None]
        else:
            lifetimes[op.query_name][2] = op.at
    expected = []
    for query, attach_at, detach_at in lifetimes.values():
        visible = [e for e in events if detach_at is None or e.timestamp < detach_at]
        for result in OracleExecutor(Workload((query,))).run(EventStream(visible)).results:
            if attach_at is None or result.window.start >= attach_at:
                expected.append(result)
    return ResultSet(expected)


@settings(max_examples=40, deadline=None)
@given(strategy_cases(), st.integers(min_value=0, max_value=10), st.data())
def test_default_forced_panes_and_instances_agree_with_the_oracle(case, plan_seed, data):
    """default ≡ ``panes=True`` ≡ ``panes=False`` ≡ oracle, under lateness, churn and resume."""
    _check_strategies_agree(case, plan_seed, data)


@settings(max_examples=40, deadline=None)
@given(strategy_cases(slices=True), st.integers(min_value=0, max_value=10), st.data())
def test_shared_pane_cells_agree_with_instances_and_the_oracle_on_slice_workloads(
    case, plan_seed, data
):
    """The same, where queries are slices of one chain and share pane cells (mixed specs)."""
    _check_strategies_agree(case, plan_seed, data)


def _check_strategies_agree(case, plan_seed, data):
    workload, events, schedule, max_lateness, exact = case
    # The planner's conflict model assumes a type occurs once per pattern.
    repeats = any(len(set(query.pattern)) < len(query.pattern) for query in workload)
    plan = SharingPlan() if repeats else random_valid_plan(workload, plan_seed)
    arrivals = events if max_lateness is None else bounded_shuffle(events, max_lateness, plan_seed)
    oracle = _oracle_under_churn(workload, events, schedule)

    def runner(panes):
        return ReplayRunner(
            workload, plan=plan, panes=panes, max_lateness=max_lateness, churn=schedule
        )

    every = data.draw(st.integers(min_value=1, max_value=6), label="checkpoint_every")
    lines = {}
    with tempfile.TemporaryDirectory() as scratch:
        for panes in (None, True, False):
            full = runner(panes).run(
                arrivals, checkpoint_every=every, checkpoint_dir=Path(scratch) / str(panes)
            )
            assert full.results.matches(oracle), (panes, full.results.differences(oracle)[:5])
            lines[panes] = encode_result_lines(full.results)
            if full.checkpoints:
                path = data.draw(st.sampled_from(full.checkpoints), label=f"resume {panes}")
                # The same strategy resumes exactly; so does a runner that lets the
                # engine decide, whatever it would have decided on a fresh run.
                for resuming in {panes, None}:
                    resumed = runner(resuming).run(arrivals, resume_from=path)
                    assert resumed.state_hash == full.state_hash, (panes, resuming, path.name)
                    assert encode_result_lines(resumed.results) == lines[panes]
    assert lines[None] in (lines[True], lines[False])
    if exact:
        assert lines[True] == lines[False]
