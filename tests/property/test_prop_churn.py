"""Property-based metamorphic checks for live query churn (``docs/churn.md``).

Three metamorphic relations pin the churn semantics against plain runs the
rest of the suite already certifies:

* **attach ≡ restart** — a query attached at ``t`` emits exactly what a
  fresh run of that query over the full stream emits for windows with
  ``start >= t`` (windows starting later have seen zero events when the
  attach applies, so nothing is missed);
* **detach ≡ truncate** — a query detached at ``t`` emits exactly what a
  fresh run over the stream truncated to events before ``t`` emits (open
  windows yield their partial values at detach time);
* **churn commutes with the window strategy** — panes and per-instance
  scopes never disagree on a churned result, and replaying the same churned
  schedule is byte-deterministic: identical runs, and resume-from-checkpoint,
  reach identical ``state_hash`` values.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import SharingPlan
from repro.datasets.workloads import random_maximal_plan
from repro.events import Event, EventStream, SlidingWindow
from repro.executor import (
    ChurnOp,
    ChurnSchedule,
    ResultSet,
    SharonExecutor,
)
from repro.queries import AggregateSpec, Pattern, PredicateSet, Query, Workload
from repro.replay import ReplayRunner


EVENT_TYPES = ["A", "B", "C", "D"]


@st.composite
def churn_cases(draw):
    """A small uniform workload split into initial queries plus a churn schedule.

    Draws 2–4 COUNT(*) queries over types A–D, keeps a non-empty prefix as
    the initial workload, attaches the rest at drawn timestamps, and
    optionally detaches one query that is guaranteed active (and not the
    last one) at its detach time.  Returns ``(workload, stream, schedule)``,
    the shape of a :class:`repro.datasets.RandomRun`'s initial workload,
    stream and churn schedule.
    """
    window_size = draw(st.sampled_from([6, 8, 12]))
    slide = min(draw(st.sampled_from([3, 4, window_size])), window_size)
    window = SlidingWindow(size=window_size, slide=slide)
    predicates = PredicateSet.same("entity") if draw(st.booleans()) else PredicateSet()
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
                name=f"cq{index}",
            )
        )
    initial_count = draw(st.integers(min_value=1, max_value=num_queries - 1))
    initial = queries[:initial_count]
    ops = [
        ChurnOp("attach", draw(st.integers(min_value=1, max_value=18)), query=query)
        for query in queries[initial_count:]
    ]
    if draw(st.booleans()):
        # Detach a joiner strictly after every attach: it is then active at
        # the detach time and never the last active query (the initial
        # prefix is non-empty), so the schedule always applies.
        target = draw(st.sampled_from(queries[initial_count:]))
        latest_attach = max(op.at for op in ops)
        detach_at = draw(st.integers(min_value=latest_attach + 1, max_value=24))
        ops.append(ChurnOp("detach", detach_at, query_name=target.name))

    length = draw(st.integers(min_value=8, max_value=40))
    events = []
    for event_id in range(length):
        events.append(
            Event(
                draw(st.sampled_from(EVENT_TYPES)),
                draw(st.integers(min_value=0, max_value=25)),
                {"entity": draw(st.integers(min_value=0, max_value=1))},
                event_id,
            )
        )
    return Workload(initial), EventStream(events), ChurnSchedule(ops)


def _lifetimes(schedule: ChurnSchedule):
    """Per churned query name: (query or None, attach_at or None, detach_at or None)."""
    lifetimes: dict[str, list] = {}
    for op in schedule:
        if op.kind == "attach":
            lifetimes[op.query_name] = [op.query, op.at, None]
        else:
            lifetimes.setdefault(op.query_name, [None, None, None])[2] = op.at
    return lifetimes


def _query_results(results: ResultSet, name: str) -> ResultSet:
    return ResultSet(r for r in results if r.query_name == name)


def _churned_results(workload, stream, schedule, plan_seed, **toggles) -> ResultSet:
    plan = random_maximal_plan(workload, plan_seed)
    return SharonExecutor(workload, plan=plan, churn=schedule, **toggles).run(stream).results


@settings(max_examples=25, deadline=None)
@given(churn_cases(), st.integers(min_value=0, max_value=10))
def test_attach_at_t_equals_restart_at_t(case, plan_seed):
    workload, stream, schedule = case
    churned = _churned_results(workload, stream, schedule, plan_seed)
    for name, (query, attach_at, detach_at) in _lifetimes(schedule).items():
        if attach_at is None:
            continue
        visible = (
            stream
            if detach_at is None
            else EventStream([e for e in stream if e.timestamp < detach_at])
        )
        restart = SharonExecutor(Workload((query,)), plan=SharingPlan()).run(visible).results
        gated = ResultSet(r for r in restart if r.window.start >= attach_at)
        mine = _query_results(churned, name)
        assert mine.matches(gated), (name, attach_at, detach_at, mine.differences(gated)[:5])


@settings(max_examples=25, deadline=None)
@given(churn_cases(), st.integers(min_value=0, max_value=10))
def test_detach_at_t_equals_truncate_at_t(case, plan_seed):
    workload, stream, schedule = case
    churned = _churned_results(workload, stream, schedule, plan_seed)
    by_name = {query.name: query for query in workload}
    for op in schedule:
        if op.kind == "attach":
            by_name[op.query_name] = op.query
    for name, (_query, attach_at, detach_at) in _lifetimes(schedule).items():
        if detach_at is None:
            continue
        truncated = EventStream([e for e in stream if e.timestamp < detach_at])
        reference = (
            SharonExecutor(Workload((by_name[name],)), plan=SharingPlan()).run(truncated).results
        )
        if attach_at is not None:
            reference = ResultSet(r for r in reference if r.window.start >= attach_at)
        mine = _query_results(churned, name)
        assert mine.matches(reference), (
            name,
            attach_at,
            detach_at,
            mine.differences(reference)[:5],
        )


@settings(max_examples=15, deadline=None)
@given(churn_cases(), st.integers(min_value=0, max_value=10))
def test_churn_commutes_with_the_window_strategy(case, plan_seed):
    """Panes and per-instance scopes never change a churned result."""
    workload, stream, schedule = case
    instances = _churned_results(workload, stream, schedule, plan_seed, panes=False)
    panes = _churned_results(workload, stream, schedule, plan_seed, panes=True)
    assert panes.matches(instances), panes.differences(instances)[:5]


@settings(max_examples=10, deadline=None)
@given(churn_cases(), st.integers(min_value=0, max_value=10))
def test_churned_replay_is_byte_deterministic(case, plan_seed):
    """Same schedule, same stream → byte-identical final session exports.

    Two independent churned replays must agree on ``state_hash``, which
    covers results, metrics, churn bookkeeping, and every open scope.
    """
    workload, stream, schedule = case
    plan = random_maximal_plan(workload, plan_seed)

    def final_hash() -> str:
        return ReplayRunner(workload, plan=plan, churn=schedule).run(stream).state_hash

    assert final_hash() == final_hash()
