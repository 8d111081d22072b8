"""Query workloads matching the paper's motivating examples and sweeps.

Two fixed workloads reconstruct the running examples:

* :func:`traffic_workload` — queries q1–q7 of the traffic use case
  (Figure 1).  The paper shows only their shared sub-patterns (Table 1); the
  reconstruction below is the minimal set of route queries whose sharable
  patterns are *exactly* the seven candidates p1–p7 of Table 1 with exactly
  the query sets listed there, which the integration tests assert.
* :func:`purchase_workload` — queries q8–q11 of the e-commerce use case
  (Figure 2): four item-sequence queries all containing ``(Laptop, Case)``.

The parameterised generator :func:`traffic_workload_scaled` produces the
larger workloads used by the evaluation sweeps (20–180 queries, pattern
lengths 10–30) on top of the Linear Road stream.

:func:`random_run` draws the randomized end-to-end runs of the differential
grid (``tests/integration/test_random_runs.py``): a small workload and
stream together with every engine switch at once.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field, fields, replace
from typing import Iterable

from ..core.candidates import build_candidates
from ..core.conflicts import ConflictDetector
from ..core.plan import SharingPlan
from ..events.event import Event
from ..events.stream import EventStream
from ..events.windows import SlidingWindow
from ..executor.churn import ChurnOp, ChurnSchedule
from ..queries.aggregates import AggregateSpec
from ..queries.pattern import Pattern
from ..queries.predicates import FilterPredicate, PredicateSet
from ..queries.query import Query
from ..queries.workload import Workload
from .linear_road import LinearRoadConfig, segment_types
from .synthetic import ChainConfig, chain_workload

__all__ = [
    "TRAFFIC_PATTERNS",
    "PURCHASE_PATTERNS",
    "traffic_workload",
    "purchase_workload",
    "traffic_workload_scaled",
    "PANE_STRESS_WINDOWS",
    "RUN_WINDOWS",
    "RUN_SOURCES",
    "RUN_RESUMES",
    "RUN_LATE_POLICIES",
    "RandomRun",
    "random_run",
    "random_maximal_plan",
]


#: Reconstructed route patterns of queries q1–q7 (consistent with Table 1).
TRAFFIC_PATTERNS: dict[str, tuple[str, ...]] = {
    "q1": ("OakSt", "MainSt", "StateSt"),
    "q2": ("OakSt", "MainSt", "WestSt"),
    "q3": ("ParkAve", "OakSt", "MainSt"),
    "q4": ("ParkAve", "OakSt", "MainSt", "WestSt"),
    "q5": ("MainSt", "StateSt", "HighSt"),
    "q6": ("ElmSt", "ParkAve", "GroveSt"),
    "q7": ("ElmSt", "ParkAve", "CherrySt"),
}

#: Item-sequence patterns of queries q8–q11 (Figure 2).
PURCHASE_PATTERNS: dict[str, tuple[str, ...]] = {
    "q8": ("Laptop", "Case", "Adapter"),
    "q9": ("Laptop", "Case", "KeyboardProtector"),
    "q10": ("Laptop", "Case", "Mouse"),
    "q11": ("Laptop", "Case", "iPhone", "ScreenProtector"),
}


def traffic_workload(
    window: SlidingWindow | None = None,
    aggregate: AggregateSpec | None = None,
) -> Workload:
    """The traffic monitoring workload q1–q7 (Figure 1).

    Every query counts trips (sequences of position reports of the same
    vehicle) on its route within a 10-minute window sliding every minute,
    matching the description in Section 1.
    """
    window = window if window is not None else SlidingWindow(size=600, slide=60)
    spec = aggregate if aggregate is not None else AggregateSpec.count_star()
    predicates = PredicateSet.same("vehicle")
    queries = [
        Query(
            pattern=Pattern(types),
            window=window,
            aggregate=spec,
            predicates=predicates,
            name=name,
        )
        for name, types in TRAFFIC_PATTERNS.items()
    ]
    return Workload(queries, name="traffic")


def purchase_workload(
    window: SlidingWindow | None = None,
    aggregate: AggregateSpec | None = None,
) -> Workload:
    """The purchase monitoring workload q8–q11 (Figure 2).

    Item sequences of the same customer within a 20-minute window sliding
    every minute.
    """
    window = window if window is not None else SlidingWindow(size=1200, slide=60)
    spec = aggregate if aggregate is not None else AggregateSpec.count_star()
    predicates = PredicateSet.same("customer")
    queries = [
        Query(
            pattern=Pattern(types),
            window=window,
            aggregate=spec,
            predicates=predicates,
            name=name,
        )
        for name, types in PURCHASE_PATTERNS.items()
    ]
    return Workload(queries, name="purchase")


#: Event type alphabet of the randomized runs.
_SCENARIO_TYPES = ("A", "B", "C", "D")

#: (size, slide) pairs of the pane-stressing regime: small slides (deep
#: instance overlap), slide-does-not-divide-size shapes (pane width strictly
#: between 1 and slide), the gcd=1 degenerate (unit-width panes), and one
#: tumbling pair exercising the pane-ineligible fallback path.
PANE_STRESS_WINDOWS: tuple[tuple[int, int], ...] = (
    (12, 2),   # deep overlap, slide divides size
    (12, 3),
    (10, 4),   # slide does not divide size: pane width 2
    (9, 6),    # pane width 3
    (8, 6),    # pane width 2
    (7, 3),    # gcd = 1: unit-width panes
    (7, 2),    # gcd = 1
    (6, 4),    # pane width 2
    (12, 8),   # pane width 4
    (6, 6),    # tumbling: pane-ineligible, engine must fall back
)


def _random_pattern(rng: random.Random) -> Pattern:
    """A short random pattern; occasionally with a repeated event type."""
    length = rng.randint(2, 3)
    if rng.random() < 0.15:
        # Repeated types stress multi-position dispatch and cohort columns.
        types = [rng.choice(_SCENARIO_TYPES) for _ in range(length)]
    else:
        types = rng.sample(_SCENARIO_TYPES, length)
    return Pattern(tuple(types))


def _random_aggregate(rng: random.Random, pattern: Pattern) -> AggregateSpec:
    """A random RETURN clause targeting one of the pattern's event types."""
    target = rng.choice(pattern.event_types)
    roll = rng.random()
    if roll < 0.45:
        return AggregateSpec.count_star()
    if roll < 0.60:
        return AggregateSpec.count(target)
    if roll < 0.72:
        return AggregateSpec.sum(target, "value")
    if roll < 0.82:
        return AggregateSpec.min(target, "value")
    if roll < 0.92:
        return AggregateSpec.max(target, "value")
    return AggregateSpec.avg(target, "value")


#: Every (size, slide) pair a random run draws from: tumbling and
#: overlapping windows with sizes 4–12, plus the pane-stressing shapes.
RUN_WINDOWS: tuple[tuple[int, int], ...] = tuple(
    sorted(
        {(size, slide) for size in (4, 6, 8, 10, 12) for slide in (2, 3, 4, 6) if slide <= size}
        | {(size, size) for size in (4, 6, 8, 10, 12)}
        | set(PANE_STRESS_WINDOWS)
    )
)

#: How a random run hands its arrivals to the replay runner.
RUN_SOURCES = ("stream", "iterator", "log", "log-v1")

#: Whether a random run resumes from one of its checkpoints, and where: not
#: at all, into a fresh directory, or on top of a copy of its own directory.
RUN_RESUMES = ("none", "fresh", "own")

#: A bounded random run's ``late_policy``; ``"callback"`` stands for a callable.
RUN_LATE_POLICIES = ("raise", "drop", "callback")


def random_maximal_plan(workload: Workload, seed: int) -> SharingPlan:
    """A maximal conflict-free sharing plan, assembled in seeded random order."""
    detector = ConflictDetector(workload)
    candidates = build_candidates(workload)
    random.Random(seed).shuffle(candidates)
    chosen = []
    for candidate in candidates:
        if all(not detector.in_conflict(candidate, other) for other in chosen):
            chosen.append(candidate.with_benefit(1.0))
    return SharingPlan(chosen)


def _active_after(
    initial: Iterable[Query], ops: Iterable[ChurnOp], until: "int | None" = None
) -> "dict[str, Query] | None":
    """The queries running once the ops at or before ``until`` (all: ``None``)
    applied to ``initial``, or ``None`` if one does not apply: a duplicate attach,
    a detach of an inactive query or of the last one left, a plan sharing an
    inactive query."""
    active = {query.name: query for query in initial}
    if not active:
        return None
    for op in ChurnSchedule(ops):
        if until is not None and op.at > until:
            break
        if op.kind == "attach":
            if op.query_name in active:
                return None
            active[op.query_name] = op.query
        elif op.kind == "plan":
            if any(not active.keys() >= set(candidate.query_names) for candidate in op.plan):
                return None
        elif op.query_name not in active or len(active) == 1:
            return None
        else:
            del active[op.query_name]
    return active


@dataclass(frozen=True)
class RandomRun:
    """One randomized end-to-end run: a workload, its arrivals and every switch.

    ``workload`` holds the initial queries and ``churn`` the attach, detach
    and plan ops applied to it.  ``events`` is the arrival order: timestamp order
    unless ``max_lateness`` is set, and then no event arrives more than
    ``max_lateness`` late but the one or two a ``"drop"`` or ``"callback"``
    ``late_policy`` (:data:`RUN_LATE_POLICIES`) gets.  ``source`` and
    ``resume`` take values from
    :data:`RUN_SOURCES` and :data:`RUN_RESUMES`; a resumed run starts from
    checkpoint ``resume_at`` (modulo the number written) of a run that
    checkpoints every ``checkpoint_every`` batches.
    """

    seed: int
    workload: Workload
    events: tuple[Event, ...]
    churn: ChurnSchedule = field(default_factory=ChurnSchedule)
    shared: bool = True
    panes: "bool | None" = None
    max_lateness: "int | None" = None
    late_policy: str = "raise"
    source: str = "stream"
    resume: str = "none"
    checkpoint_every: int = 1
    resume_at: int = 0

    @property
    def plan(self) -> SharingPlan:
        """:func:`random_maximal_plan` of the initial workload, or the empty plan."""
        return random_maximal_plan(self.workload, self.seed) if self.shared else SharingPlan()

    @property
    def stream(self) -> EventStream:
        """The arrivals in timestamp order."""
        return EventStream(self.events, name=f"run-{self.seed}")

    def schedule_applies(self) -> bool:
        """Whether every churn op applies to the workload it meets."""
        return _active_after(self.workload, self.churn) is not None

    def describe(self) -> str:
        """Switches, queries, churn ops and arrivals, one per line."""
        switches = ", ".join(f"{f.name}={getattr(self, f.name)!r}" for f in fields(self)[4:])
        lines = [f"random run {self.seed} ({switches})", f"workload {self.workload.name!r}:"]
        lines += [f"  {query!r}" for query in self.workload]
        lines += [
            f"  {op.kind}@{op.at}: {op.query_name}"
            + (f"  {op.query!r}" if op.query else "")
            + (f"  {op.plan!r}" if op.plan is not None else "")
            for op in self.churn
        ]
        lines.append(f"arrivals ({len(self.events)} events):")
        lines += [
            f"  ({event.event_type!r}, t={event.timestamp}, {dict(event.attributes)!r})"
            for event in self.events
        ]
        return "\n".join(lines)


def random_run(seed: int) -> RandomRun:
    """One randomized run drawing every axis at once; deterministic in ``seed``.

    The workload is 2–5 queries over types A–D sharing one window from
    :data:`RUN_WINDOWS`, with optional grouping, equivalence and filter
    predicates, per-query aggregates (COUNT, SUM, MIN, MAX, AVG — mixed
    aggregates exercise multi-spec shared states) and patterns that may
    repeat a type; the stream is 8–36 events over timestamps 0–22 in bursty
    same-timestamp batches.  On top of that it draws the window strategy
    (the engine's choice or pinned), the plan (random maximal or empty), a
    lateness bound of 1–6 with an arrival order, a churn schedule (possibly
    empty; ops may fall past the last event), the source and the resume.
    Last, it may add a plan op: to the empty plan, or to a random maximal
    plan of the queries running at the op's timestamp.

    Arrival keys are ``timestamp + U[0, L]``.  Equal keys go in ascending
    timestamp order (:func:`~repro.events.bounded_shuffle`'s order) or in
    descending order; only the second ever delivers an event exactly ``L``
    late, at the watermark.  A bounded run not read from a (sorting)
    :class:`~repro.events.stream.EventStream` draws a late policy too; under
    ``"drop"`` or ``"callback"`` one or two arrivals are made late.
    """
    rng = random.Random(seed)
    size, slide = rng.choice(RUN_WINDOWS)
    window = SlidingWindow(size=size, slide=slide)
    group_by = ("region",) if rng.random() < 0.3 else ()
    equivalences = PredicateSet.same("entity").equivalences if rng.random() < 0.4 else ()
    filters = []
    if rng.random() < 0.3:
        event_type = rng.choice((None, rng.choice(_SCENARIO_TYPES)))
        op = rng.choice((">", "<=", "!="))
        filters.append(FilterPredicate("value", op, rng.randint(2, 8), event_type))
    predicates = PredicateSet(equivalences=equivalences, filters=filters)
    queries = []
    for index in range(rng.randint(2, 5)):
        pattern = _random_pattern(rng)
        queries.append(
            Query(
                pattern=pattern,
                window=window,
                aggregate=_random_aggregate(rng, pattern),
                predicates=predicates,
                group_by=group_by,
                name=f"r{seed}q{index}",
            )
        )
    events = [
        Event(
            rng.choice(_SCENARIO_TYPES),
            rng.randint(0, 22),
            {"entity": rng.randint(0, 1), "region": rng.randint(0, 1), "value": rng.randint(0, 10)},
            event_id,
        )
        for event_id in range(rng.randint(8, 36))
    ]
    arrivals = list(EventStream(events))
    last = arrivals[-1].timestamp

    initial, ops = queries, []
    if rng.random() < 0.6:
        initial = queries[: rng.randint(1, len(queries))]
        joiners = queries[len(initial) :]
        ops = [ChurnOp("attach", rng.randint(1, last + 3), query=query) for query in joiners]
        for _ in range(rng.randint(0, 2)):
            target = rng.choice(queries).name
            candidate = ops + [ChurnOp("detach", rng.randint(2, last + 3), query_name=target)]
            if _active_after(initial, candidate) is not None:
                ops = candidate

    max_lateness = rng.randint(1, 6) if rng.random() < 0.5 else None
    if max_lateness is not None:
        ties = rng.choice((1, -1))
        keys = [event.timestamp + rng.randint(0, max_lateness) for event in arrivals]
        order = sorted(
            range(len(arrivals)), key=lambda i: (keys[i], ties * arrivals[i].timestamp, i)
        )
        arrivals = [arrivals[i] for i in order]

    run = RandomRun(
        seed=seed,
        workload=Workload(initial, name=f"run-{seed}"),
        events=tuple(arrivals),
        churn=ChurnSchedule(ops),
        shared=rng.random() < 0.5,
        panes=rng.choice((None, True, False)),
        max_lateness=max_lateness,
        source=rng.choice(RUN_SOURCES),
        resume=rng.choice(RUN_RESUMES),
        checkpoint_every=rng.randint(2, 4),
        resume_at=rng.randrange(1000),
    )
    if max_lateness is not None and run.source != "stream":
        late_policy = rng.choice(RUN_LATE_POLICIES)
        if late_policy != "raise":
            arrivals = _delayed(rng, arrivals, max_lateness)
        run = replace(run, events=tuple(arrivals), late_policy=late_policy)
    if rng.random() < 0.35:
        at = rng.randint(1, last + 3)
        running = Workload(_active_after(initial, ops, at).values())
        shares = rng.random() < 0.7
        plan = random_maximal_plan(running, rng.randrange(1000)) if shares else SharingPlan()
        run = replace(run, churn=ChurnSchedule(ops + [ChurnOp("plan", at, plan=plan)]))
    return run


def _delayed(rng: random.Random, arrivals: list[Event], max_lateness: int) -> list[Event]:
    """``arrivals`` with one or two moved right behind an anchor arrival whose
    timestamp exceeds theirs by more than ``max_lateness``: they arrive late,
    and no other event's lateness changes."""
    early = [
        [i for i in range(j) if arrivals[i].timestamp < anchor.timestamp - max_lateness]
        for j, anchor in enumerate(arrivals)
    ]
    anchors = [j for j, before in enumerate(early) if before]
    if not anchors:
        return arrivals
    anchor = rng.choice(anchors)
    moved = set(rng.sample(early[anchor], min(len(early[anchor]), rng.randint(1, 2))))
    kept = [event for i, event in enumerate(arrivals[: anchor + 1]) if i not in moved]
    return kept + [arrivals[i] for i in sorted(moved)] + arrivals[anchor + 1 :]


def traffic_workload_scaled(
    num_queries: int,
    pattern_length: int = 10,
    config: LinearRoadConfig = LinearRoadConfig(),
    window: SlidingWindow | None = None,
    seed: int = 5,
) -> Workload:
    """A scaled traffic workload over the Linear Road segment types.

    Queries count car trips across ``pattern_length`` consecutive expressway
    segments; starting segments are drawn pseudo-randomly so queries overlap
    heavily (the sharing-rich regime of Figures 14–16).
    """
    chain = ChainConfig(
        num_event_types=config.num_segments,
        type_prefix="Seg",
        entity_attribute="car",
    )
    # Sanity: the chain types must coincide with the LR segment types.
    assert tuple(f"Seg{i}" for i in range(config.num_segments)) == segment_types(config)
    window = window if window is not None else SlidingWindow(size=60, slide=30)
    return chain_workload(
        num_queries,
        pattern_length,
        config=chain,
        window=window,
        seed=seed,
        name=f"traffic-{num_queries}q-len{pattern_length}",
    )
