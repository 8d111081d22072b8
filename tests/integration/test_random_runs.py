"""One randomized grid over every switch at once: no switch changes a result.

:func:`repro.datasets.random_run` draws a small workload and stream with
every switch the engine has (window strategy, plan, lateness bound, late
policy and arrival order, churn schedule, replay source, resume point).
:func:`check_run` replays each draw through
:class:`~repro.replay.ReplayRunner` and checks that every query equals a
fresh oracle run of that query alone over the arrivals that are not late,
truncated at its detach and gated at its attach (``docs/churn.md``); that
exactly the arrivals beyond the bound count as late (and as dropped, or
reach the late callback, by policy), also after a resume; that a plain
engine session applies every churn op and reaches the replay's state
hash; that a resume from the drawn checkpoint reaches it too and writes the
same ``results.jsonl`` bytes; that column routing equals per-event routing
on in-memory sources; and that A-Seq, Flink-like and SPASS-like equal the
oracle on churn-free, in-order draws.  A failing draw
is shrunk and printed as a reproducer for :data:`CORPUS`.
"""

from __future__ import annotations

import shutil
import tempfile
from collections import Counter
from dataclasses import replace
from pathlib import Path

import pytest

from repro.datasets import RandomRun, random_run
from repro.events import EventStream, SlidingWindow, timestamp_batches
from repro.events.log import EventLogReader, write_event_log
from repro.executor import (
    ASeqExecutor,
    ChurnOp,
    ChurnSchedule,
    FlinkLikeExecutor,
    OracleExecutor,
    ResultSet,
    SpassLikeExecutor,
    StreamingEngine,
)
from repro.queries import AggregateSpec, Pattern, PredicateSet, Query, Workload
from repro.replay import RESULTS_LOG_NAME, ReplayRunner, load_checkpoint, state_hash

from ..conftest import arrival_lateness, make_events, write_v1_log

#: Draws checked per run of the suite.
NUM_RUNS = 300

#: The draws are split into parametrized blocks so failures localise.
NUM_BLOCKS = 10


def late_positions(run: RandomRun) -> list[int]:
    """Arrival positions of the events more than ``max_lateness`` late."""
    if run.max_lateness is None:
        return []
    lateness = arrival_lateness(run.events)
    return [i for i, late in enumerate(lateness) if late > run.max_lateness]


def churn_oracle(run: RandomRun) -> dict[str, ResultSet]:
    """Per query: a fresh oracle run over the arrivals that are not late,
    truncated at its detach and gated at its attach."""
    lifetimes = {query.name: [query, None, None] for query in run.workload}
    for op in run.churn:
        if op.kind == "attach":
            lifetimes[op.query_name] = [op.query, op.at, None]
        elif op.kind == "detach":
            lifetimes[op.query_name][2] = op.at
    late = set(late_positions(run))
    expected, stream = {}, [e for i, e in enumerate(run.events) if i not in late]
    for name, (query, attach_at, detach_at) in lifetimes.items():
        visible = [e for e in stream if detach_at is None or e.timestamp < detach_at]
        results = OracleExecutor(Workload((query,))).run(EventStream(visible)).results
        expected[name] = ResultSet(
            r for r in results if attach_at is None or r.window.start >= attach_at
        )
    return expected


def oracle_mismatch(results: ResultSet, expected: dict[str, ResultSet]) -> "str | None":
    """The first query whose results differ from its oracle, described, or ``None``."""
    for name, oracle in expected.items():
        mine = ResultSet(r for r in results if r.query_name == name)
        if not mine.matches(oracle):
            return f"query {name!r} (key, run, oracle): {mine.differences(oracle)[:5]}"
    extra = {r.query_name for r in results} - set(expected)
    return f"unexpected queries {sorted(extra)} emitted" if extra else None


def per_event_routes(engine: StreamingEngine, stream: EventStream) -> list:
    """``(timestamp, batch size, groups)`` per batch, routed one event at a time."""
    compiled = engine.compiled
    routes = []
    for timestamp, batch in timestamp_batches(stream):
        groups: dict = {}
        for event in batch:
            if compiled.is_relevant(event):
                groups.setdefault(compiled.group_key(event), []).append(event)
        routes.append((timestamp, len(batch), groups or None))
    return routes


def source_factory(run: RandomRun, directory: Path):
    """A factory of fresh sources of the run's kind, over its arrival order."""
    if run.source == "stream":
        return lambda: EventStream(run.events)
    if run.source == "iterator":
        return lambda: iter(run.events)
    path = directory / "events.jsonl"
    if run.source == "log":
        write_event_log(run.events, path)
    else:
        write_v1_log(run.events, path)
    return lambda: EventLogReader(path)


def check_run(run: RandomRun) -> "str | None":
    """The first way ``run`` goes wrong, or ``None``; a crash counts too."""
    with tempfile.TemporaryDirectory() as tmp:
        try:
            return _first_failure(run, Path(tmp))
        except Exception as error:  # a crash fails the draw and shrinks like any failure
            return f"{type(error).__name__}: {error}"


def _first_failure(run: RandomRun, tmp: Path) -> "str | None":
    expected = churn_oracle(run)
    source = source_factory(run, tmp)
    plan = run.plan
    late = late_positions(run)

    def runner(received: "list | None" = None) -> ReplayRunner:
        """A runner over the run's switches; a late callback appends to ``received``."""
        policy = run.late_policy
        if policy == "callback":
            policy = (received if received is not None else []).append
        return ReplayRunner(
            run.workload,
            plan=plan,
            panes=run.panes,
            max_lateness=run.max_lateness,
            late_policy=policy,
            churn=run.churn,
        )

    def late_failure(report, received: list, first: int = 0) -> "str | None":
        """How the late arrivals from source position ``first`` on were mishandled, if they were."""
        if report.metrics.events_late != len(late):
            return f"{report.metrics.events_late} events counted late, {len(late)} arrived late"
        dropped = len(late) if run.late_policy == "drop" else 0
        if report.metrics.events_dropped != dropped:
            return f"{report.metrics.events_dropped} events dropped, expected {dropped}"
        if run.late_policy == "callback" and received != [run.events[i] for i in late if i >= first]:
            return f"the late callback received {received}"
        return None

    every = run.checkpoint_every if run.resume != "none" else 0
    received: list = []
    full = runner(received).run(source(), checkpoint_every=every, checkpoint_dir=tmp / "full")
    failure = late_failure(full, received)
    if failure:
        return f"replay: {failure}"
    if full.events_replayed != len(run.events):
        return f"replay: consumed {full.events_replayed} of {len(run.events)} events"
    failure = oracle_mismatch(full.results, expected)
    if failure:
        return f"replay: {failure}"

    if run.churn:
        engine = runner().engine
        session = engine.new_session()
        engine.run(source(), session=session, churn=run.churn)
        if len(session.churn_history()) != len(run.churn):
            return f"engine: applied {len(session.churn_history())} of {len(run.churn)} churn ops"
        if state_hash(session) != full.state_hash:
            return "engine: a plain session reached a different state than the replay"

    if full.checkpoints:
        body = (tmp / "full" / RESULTS_LOG_NAME).read_bytes()
        checkpoint = full.checkpoints[run.resume_at % len(full.checkpoints)]
        directory = tmp / run.resume
        if run.resume == "own":
            shutil.copytree(tmp / "full", directory)
            checkpoint = directory / checkpoint.name
        received = []
        resumed = runner(received).run(
            source(),
            resume_from=checkpoint,
            checkpoint_every=run.checkpoint_every,
            checkpoint_dir=directory,
        )
        if resumed.state_hash != full.state_hash:
            return f"resume from {checkpoint.name}: a different final state"
        failure = late_failure(resumed, received, load_checkpoint(checkpoint).events_consumed)
        if failure:
            return f"resume from {checkpoint.name}: {failure}"
        if (directory / RESULTS_LOG_NAME).read_bytes() != body:
            return f"resume from {checkpoint.name}: different results.jsonl bytes"

    if run.source in ("stream", "iterator"):
        engine = runner().engine
        routed = run.stream if run.source == "stream" else iter(list(run.stream))
        batches = engine.new_session().routed_batches(routed)
        # Routing hands out row indices; as events they must be the per-event
        # reference's lists, in batch order.
        routes = []
        for timestamp, batch, groups in batches:
            rows_as_events = list(batch)
            routed = groups and {k: [rows_as_events[i] for i in rows] for k, rows in groups.items()}
            routes.append((timestamp, len(batch), routed))
        if routes != per_event_routes(engine, run.stream):
            return "routing: column routing differs from per-event routing"

    if not run.churn and run.max_lateness is None:
        for executor in (
            ASeqExecutor(run.workload, panes=run.panes),
            FlinkLikeExecutor(run.workload, memory_sample_interval=0),
            SpassLikeExecutor(run.workload, memory_sample_interval=0),
        ):
            failure = oracle_mismatch(executor.run(run.stream).results, expected)
            if failure:
                return f"{executor.name}: {failure}"
    return None


def _without(run: RandomRun, part: str, index: int) -> "RandomRun | None":
    """``run`` with the ``index``-th churn op, query or event dropped."""
    items = list(getattr(run, part))
    del items[index]
    if part == "churn":
        return replace(run, churn=ChurnSchedule(items))
    if part == "workload":
        return replace(run, workload=Workload(items, name=run.workload.name)) if items else None
    return replace(run, events=tuple(items))


def shrink(run: RandomRun) -> RandomRun:
    """Greedy delta debugging: drop churn ops, queries and events while ``run`` fails.

    Every candidate's schedule is re-validated, so dropping an attach (or
    the initial query a detach targets) never yields an invalid program.
    """
    shrinking = True
    while shrinking:
        shrinking = False
        for part in ("churn", "workload", "events"):
            for index in range(len(getattr(run, part))):
                candidate = _without(run, part, index)
                if candidate and candidate.schedule_applies() and check_run(candidate):
                    run, shrinking = candidate, True
                    break
            if shrinking:
                break
    return run


@pytest.mark.parametrize("block", range(NUM_BLOCKS))
def test_random_runs_match_the_oracle(block):
    per_block = NUM_RUNS // NUM_BLOCKS
    for seed in range(block * per_block, (block + 1) * per_block):
        run = random_run(seed)
        failure = check_run(run)
        if failure:
            minimal = shrink(run)
            pytest.fail(
                f"random_run({seed}): {failure}\n"
                f"shrunk: {check_run(minimal)}\nminimal reproducer:\n{minimal.describe()}"
            )


def test_shrink_returns_a_one_minimal_valid_run(monkeypatch):
    """Dropping one more op, query or event leaves a passing or an invalid run."""

    def fails(run):
        detaches = any(op.kind == "detach" for op in run.churn)
        return "fails" if detaches and any(e.event_type == "A" for e in run.events) else None

    monkeypatch.setitem(globals(), "check_run", fails)
    minimal = shrink(next(r for r in map(random_run, range(300)) if fails(r) and len(r.churn) > 1))
    assert fails(minimal) and minimal.schedule_applies()
    for part in ("churn", "workload", "events"):
        for index in range(len(getattr(minimal, part))):
            smaller = _without(minimal, part, index)
            assert not (smaller and smaller.schedule_applies() and fails(smaller)), (part, index)


def test_the_grid_reaches_every_switch(tmp_path):
    """Each switch value, and the combinations bugs hide in, is drawn often enough.

    Strategies are counted as the engine resolves them, not as requested
    (a plan op that shares acts only per instance);
    resumes only where the run writes a checkpoint to resume from; a log
    frame that spans timestamps where the current writer writes one.
    """
    seen: Counter = Counter()
    for seed in range(NUM_RUNS):
        run = random_run(seed)
        mode = "panes" if StreamingEngine(run.workload, panes=run.panes).uses_panes else "instances"
        timestamps = [event.timestamp for event in run.events]
        resume = run.resume if len(set(timestamps)) >= run.checkpoint_every else "none"
        seen[run.source] += 1
        if run.source == "log":
            source_factory(run, tmp_path)
            seen["log frame spanning timestamps"] += '"t":[' in (tmp_path / "events.jsonl").read_text()
        seen[f"resume {resume}"] += 1
        ops = run.churn.ops
        if any(op.kind == "attach" for op in ops):
            expected = churn_oracle(run)
            seen["attach that emits"] += any(
                op.kind == "attach" and len(expected[op.query_name].nonzero()) for op in ops
            )
        seen["detach"] += any(op.kind == "detach" for op in ops)
        plan_ops = [op for op in ops if op.kind == "plan"]
        seen["plan op"] += bool(plan_ops)
        seen[f"plan op, resume {resume}"] += bool(plan_ops)
        seen[f"plan op that shares, {mode}"] += any(not op.plan.is_empty for op in plan_ops)
        seen["trailing op"] += any(op.at > max(timestamps) for op in ops)
        if run.max_lateness and run.source != "stream":  # an EventStream sorts its events
            seen["exactly-L-late arrival"] += run.max_lateness in arrival_lateness(run.events)
            seen[f"late policy {run.late_policy}"] += 1
        if run.max_lateness and ops and resume != "none":
            seen[f"disorder x churn x resume, {mode}"] += 1
    minimums = {
        "stream": 50, "iterator": 50, "log": 50, "log-v1": 50,
        "log frame spanning timestamps": 20,
        "resume none": 50, "resume fresh": 50, "resume own": 50,
        "attach that emits": 20, "detach": 50, "trailing op": 15,
        "plan op": 60, "plan op, resume fresh": 15, "plan op, resume own": 15,
        "plan op that shares, instances": 10, "plan op that shares, panes": 10,
        "exactly-L-late arrival": 15,
        "late policy raise": 20, "late policy drop": 20, "late policy callback": 20,
        "disorder x churn x resume, panes": 10,
        "disorder x churn x resume, instances": 10,
    }  # fmt: skip
    short = {key: seen[key] for key, minimum in minimums.items() if seen[key] < minimum}
    assert not short, f"drawn too rarely over {NUM_RUNS} seeds: {short}"


# -- the regression corpus ----------------------------------------------------


def corpus_run(queries, rows, *ops, **switches) -> RandomRun:
    """A hand-written run: ``rows`` (in arrival order) as for :func:`make_events`."""
    events = tuple(make_events(rows))
    churn = ChurnSchedule(ops)
    return RandomRun(seed=0, workload=Workload(queries), events=events, churn=churn, **switches)


def seq(types, window, name, **options) -> Query:
    return Query(Pattern(types), window, name=name, **options)


W4_2, W6_3, W8_4, W10_5 = (SlidingWindow(s, t) for s, t in ((4, 2), (6, 3), (8, 4), (10, 5)))
SAME_ENTITY = PredicateSet.same("entity")

#: Shrunk divergence shapes from harness development; each one runs under
#: both window strategies whatever the grid draws.
CORPUS = {
    "same-timestamp-batch-with-shared-prefix": corpus_run(
        [seq("ABC", W8_4, "r1"), seq("ABD", W8_4, "r2")],
        [("A", 1), ("A", 1), ("B", 1), ("B", 2), ("C", 3), ("D", 3), ("C", 7)],
    ),
    "match-crossing-a-window-boundary": corpus_run(
        [seq("AB", W4_2, "r3"), seq("BA", W4_2, "r4")],
        [("A", 1), ("B", 3), ("A", 4), ("B", 5)],
    ),
    "mixed-aggregates-share-one-pattern": corpus_run(
        [
            seq("ABC", SlidingWindow(10, 10), "r5", aggregate=AggregateSpec.sum("B", "value")),
            seq("ABD", SlidingWindow(10, 10), "r6"),
            seq("AB", SlidingWindow(10, 10), "r7", aggregate=AggregateSpec.avg("A", "value")),
        ],
        [
            (event_type, timestamp, {"value": value})
            for event_type, timestamp, value in (
                ("A", 0, 4), ("B", 1, 7), ("C", 2, 1), ("D", 2, 2),
                ("A", 3, 9), ("B", 4, 0), ("C", 5, 5), ("B", 9, 3),
            )
        ],
    ),
    "equivalence-predicate-with-grouping": corpus_run(
        [
            seq("AB", W6_3, "r8", predicates=SAME_ENTITY, group_by=("region",)),
            seq("BC", W6_3, "r9", predicates=SAME_ENTITY, group_by=("region",)),
        ],
        [
            ("A", 0, {"entity": 0, "region": 1}), ("B", 1, {"entity": 0, "region": 1}),
            ("B", 1, {"entity": 1, "region": 0}), ("C", 2, {"entity": 1, "region": 0}),
            ("A", 4, {"entity": 1, "region": 1}), ("B", 5, {"entity": 1, "region": 1}),
            ("C", 5, {"entity": 0, "region": 0}),
        ],
    ),
    "repeated-type-pattern": corpus_run(
        [seq("AA", W10_5, "r10"), seq("AAB", W10_5, "r11")],
        [("A", 0), ("A", 1), ("A", 1), ("B", 2), ("A", 3), ("B", 4)],
    ),
    # Window (10, 4) has pane width 2: batches sit on pane boundaries.
    "pane-boundary-batch": corpus_run(
        [seq("ABC", SlidingWindow(10, 4), "p1"), seq("AB", SlidingWindow(10, 4), "p2")],
        [("A", 2), ("B", 2), ("A", 3), ("B", 4), ("C", 4), ("C", 6), ("A", 8), ("B", 9), ("C", 10)],
    ),
    "unit-width-panes-with-repeated-types": corpus_run(
        [seq("AAB", SlidingWindow(7, 3), "p3"), seq("BA", SlidingWindow(7, 3), "p4")],
        [("A", 0), ("A", 1), ("A", 1), ("B", 3), ("A", 5), ("B", 6), ("A", 7), ("B", 9)],
    ),
    "mixed-aggregates-and-grouping-across-narrow-panes": corpus_run(
        [
            seq("AB", SlidingWindow(9, 6), "p5", predicates=SAME_ENTITY,
                aggregate=AggregateSpec.sum("B", "value")),
            seq("AB", SlidingWindow(9, 6), "p6", predicates=SAME_ENTITY,
                aggregate=AggregateSpec.avg("A", "value")),
            seq("BAB", SlidingWindow(9, 6), "p7", predicates=SAME_ENTITY,
                aggregate=AggregateSpec.min("B", "value")),
        ],
        [
            ("A", 0, {"entity": 0, "value": 4}), ("B", 2, {"entity": 0, "value": 7}),
            ("B", 2, {"entity": 1, "value": 1}), ("A", 3, {"entity": 1, "value": 9}),
            ("B", 5, {"entity": 1, "value": 2}), ("A", 6, {"entity": 0, "value": 5}),
            ("B", 8, {"entity": 0, "value": 3}), ("B", 11, {"entity": 1, "value": 6}),
        ],
    ),
    # The op must apply before its trigger batch is routed, or the batch at
    # the attach timestamp is filtered under the old workload.
    "attach-routes-its-own-trigger-batch": corpus_run(
        [seq("AB", SlidingWindow(12, 4), "base")],
        [("A", 0), ("B", 2), ("C", 4), ("D", 5), ("C", 8), ("D", 9), ("A", 10), ("B", 11)],
        ChurnOp("attach", 4, query=seq("CD", SlidingWindow(12, 4), "joiner")),
    ),
    "detach-emits-the-partial-values-of-open-windows": corpus_run(
        [seq("AB", W10_5, "keep"), seq("AC", W10_5, "drop")],
        [("A", 1), ("C", 2), ("B", 3), ("A", 6), ("C", 8), ("B", 9), ("A", 11), ("C", 12)],
        ChurnOp("detach", 7, query_name="drop"),
    ),
    "detach-folds-the-open-pane-into-the-partial": corpus_run(
        [seq("AB", W8_4, "keep"), seq("BC", W8_4, "drop")],
        [("B", 0), ("C", 1), ("A", 2), ("B", 4), ("C", 5), ("A", 6), ("B", 7), ("C", 9)],
        ChurnOp("detach", 6, query_name="drop"),
    ),
    "attach-then-detach-the-same-query": corpus_run(
        [seq("AB", W6_3, "base")],
        [
            ("C", 1), ("D", 2), ("A", 3), ("C", 4), ("D", 5), ("B", 6),
            ("C", 7), ("D", 8), ("C", 10), ("D", 11), ("A", 12), ("B", 13),
        ],
        ChurnOp("attach", 3, query=seq("CD", W6_3, "guest")),
        ChurnOp("detach", 10, query_name="guest"),
    ),
    "a-detach-past-the-last-event-still-applies": corpus_run(
        [seq("AB", W8_4, "keep"), seq("BC", W8_4, "late-drop")],
        [("A", 0), ("B", 1), ("C", 2), ("A", 5), ("B", 6), ("C", 7)],
        ChurnOp("detach", 99, query_name="late-drop"),
    ),
    # Both events are still buffered at the checkpoint: resume must restore them.
    "resume-restores-the-reorder-buffer": corpus_run(
        [seq("AD", W6_3, "buffered", aggregate=AggregateSpec.sum("A", "value"))],
        [("C", 18, {"value": 4}), ("B", 21, {"value": 7})],
        max_lateness=6, source="log", resume="fresh", checkpoint_every=2,
    ),
    # C@20 arrives exactly at the watermark (21 - 1): its batch is still open.
    "an-arrival-exactly-at-the-watermark": corpus_run(
        [seq("BC", SlidingWindow(7, 3), "edge", group_by=("region",))],
        [("B", 20, {"region": 1}), ("D", 21, {"region": 1}), ("C", 20, {"region": 1})],
        max_lateness=1, source="log-v1",
    ),
    # One group's same-timestamp events route in batch order.
    "same-timestamp-events-of-one-group": corpus_run(
        [seq("BC", W4_2, "grouped", predicates=SAME_ENTITY, group_by=("region",))],
        [("B", 15, {"entity": 1, "region": 1}), ("C", 15, {"entity": 1, "region": 1})],
        source="iterator",
    ),
}  # fmt: skip


@pytest.mark.parametrize("panes", [False, True], ids=["instances", "panes"])
@pytest.mark.parametrize("name", CORPUS)
def test_corpus_runs_match_the_oracle(name, panes):
    failure = check_run(replace(CORPUS[name], panes=panes))
    assert failure is None, failure
