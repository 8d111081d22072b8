"""Workload definitions and input generation for the benchmark.

Every input the program sees is a *file* written here from ``--seed``: a JSONL
event log recorded through the program's own log writer, a SASE workload file, and
(for ``ops-mixed``) a churn script.  The query set of a workload is fixed —
only the event stream depends on the seed — so that two seeds measure the
same plan on different data and the spread between seeds stays a property of
the machine, not of the sharing opportunities.
"""

from __future__ import annotations

import json
import random
import time
from dataclasses import dataclass
from pathlib import Path

#: ``--seconds`` at which the sizes in :data:`WORKLOADS` apply; other values
#: scale the log duration (``units``) linearly.
RUN_SECONDS = 20

#: Time units generated, then recorded, at a time (bounds the generator's memory).
CHUNK_UNITS = 100

#: Walker transition probabilities (same shape as the repo's chain streams):
#: advance one type along the chain, else jump anywhere, else stay.
ADVANCE, JUMP = 0.8, 0.9


@dataclass(frozen=True)
class WorkloadSpec:
    """One benchmark workload: fixed queries plus stream parameters."""

    name: str
    why: str
    #: Chain-type indices of each query's pattern, in query order.
    patterns: tuple
    chain_types: int
    entities: int
    events_per_unit: int
    within: int
    slide: int
    #: Log duration in time units at ``RUN_SECONDS``.
    units: int
    #: Fixed open-loop arrival rate (about 55% of the seed's capacity).
    paced_rate_eps: int
    #: ``WHERE value > N`` filter (values are uniform in 0..99), or None.
    value_filter: "int | None" = None
    #: Bounded-disorder arrival order and the engine's matching tolerance.
    max_lateness: "int | None" = None
    #: Attach/detach ops and checkpoints spread evenly over the log.
    churn_ops: int = 0
    checkpoints: int = 0

    @property
    def relevant_types(self) -> frozenset:
        """Chain-type indices any base or churn query can react to."""
        types = {index for pattern in self.patterns for index in pattern}
        for index in range((self.churn_ops + 1) // 2):
            types.update(_churn_pattern(self, index))
        return frozenset(types)


def _slices(length: int, offsets) -> tuple:
    return tuple(tuple(range(offset, offset + length)) for offset in offsets)


WORKLOADS = {
    spec.name: spec
    for spec in (
        WorkloadSpec(
            name="dense-sharing",
            why="24 queries on two overlapping length-5 chain slices: prefix "
            "aggregation dominates and sharing must pay (paper Fig. 13/14)",
            patterns=_slices(5, (0, 3) * 12),
            chain_types=10,
            entities=20,
            events_per_unit=20,
            within=20,
            slide=10,
            units=2400,
            paced_rate_eps=12000,
        ),
        WorkloadSpec(
            name="low-sharing",
            why="12 length-4 queries at scattered offsets over few heavy groups: "
            "little to share, so the chosen plan may lose to the empty plan",
            patterns=_slices(4, (3, 0, 4, 1, 2, 4, 0, 3, 1, 2, 0, 4)),
            chain_types=8,
            entities=7,
            events_per_unit=21,
            within=20,
            slide=10,
            units=2400,
            paced_rate_eps=10000,
        ),
        WorkloadSpec(
            name="sparse-routing",
            why="0.6% of events pass type and filter routing: log decode, column "
            "build and routing are the whole cost, aggregation is idle",
            patterns=((0, 1, 2), (1, 2, 3), (0, 1, 3), (0, 2, 3), (0, 1, 2), (1, 2, 3)),
            chain_types=64,
            entities=8,
            events_per_unit=200,
            within=20,
            slide=10,
            units=2400,
            paced_rate_eps=120000,
            value_filter=89,
        ),
        WorkloadSpec(
            name="ops-mixed",
            why="disordered arrivals, query churn, periodic checkpoints and five "
            "overlapping windows: state is written, reordered and recompiled",
            patterns=_slices(4, (0, 3, 6) * 4),
            chain_types=10,
            entities=8,
            events_per_unit=8,
            within=40,
            slide=8,
            units=1648,
            paced_rate_eps=2700,
            max_lateness=8,
            churn_ops=8,
            checkpoints=16,
        ),
    )
}


def _churn_pattern(spec: WorkloadSpec, index: int) -> tuple:
    """Pattern of the ``index``-th churned query (3 consecutive chain types)."""
    offset = (index * 3) % (spec.chain_types - 2)
    return (offset, offset + 1, offset + 2)


def query_text(spec: WorkloadSpec, pattern) -> str:
    """SASE text of one COUNT(*) chain query of ``spec``."""
    where = "[entity]"
    if spec.value_filter is not None:
        where += f" AND value > {spec.value_filter}"
    types = ", ".join(f"T{index}" for index in pattern)
    return (
        f"RETURN COUNT(*)\nPATTERN SEQ({types})\nWHERE {where}\n"
        f"WITHIN {spec.within} SLIDE {spec.slide}"
    )


@dataclass
class ChurnedQuery:
    """A query attached mid-run: emits windows with ``attach <= start``, and
    sees only events before ``detach`` (None = never detached)."""

    name: str
    pattern: tuple
    attach: int
    detach: "int | None"


@dataclass
class Inputs:
    """The generated files plus what the checker needs to recompute results."""

    spec: WorkloadSpec
    seed: int
    units: int
    events: int
    log_path: Path
    log_bytes: int
    #: Seconds the program's log writer spent recording ``events`` events.
    log_write_s: float
    workload_path: Path
    churn_path: "Path | None"
    checkpoint_every: int
    #: Base queries as ``(name, pattern)``, in workload-file order.
    queries: list
    churned: list
    #: entity -> type-relevant events ``(t, id, type_index, value)`` in
    #: canonical ``(t, id)`` order (the only events any result depends on).
    relevant: dict


def scaled_units(spec: WorkloadSpec, seconds: float) -> int:
    """Log duration for ``--seconds``: linear, but never too short to close windows."""
    floor = spec.within + 5 * spec.slide + (spec.max_lateness or 0)
    return max(floor, round(spec.units * seconds / RUN_SECONDS))


def generate(spec: WorkloadSpec, seed: int, seconds: float, workdir: Path) -> Inputs:
    """Write the log, workload file and churn script of ``spec`` for ``seed``.

    The log is recorded by the program's own ``EventLogWriter`` (timed, for
    ``events.log.write_eps``); a disordered workload's arrival order comes
    from the program's ``bounded_shuffle``.
    """
    from repro.events.disorder import bounded_shuffle
    from repro.events.event import Event
    from repro.events.log import EventLogWriter

    workdir.mkdir(parents=True, exist_ok=True)
    units = scaled_units(spec, seconds)
    rng = random.Random(f"{spec.name}:{seed}")
    rand = rng.random
    entities = spec.entities
    chain = spec.chain_types
    type_names = [f"T{index}" for index in range(chain)]
    relevant_types = spec.relevant_types
    relevant: dict = {entity: [] for entity in range(entities)}
    positions = [int(rand() * chain) for _ in range(entities)]

    def walk(first_unit: int, last_unit: int, event_id: int) -> list:
        """Events of the time units ``[first_unit, last_unit)`` in canonical order."""
        chunk = []
        for t in range(first_unit, last_unit):
            for _ in range(spec.events_per_unit):
                entity = int(rand() * entities)
                position = positions[entity]
                value = int(rand() * 100)
                chunk.append(
                    Event(type_names[position], t, {"entity": entity, "value": value}, event_id)
                )
                if position in relevant_types:
                    relevant[entity].append((t, event_id, position, value))
                event_id += 1
                roll = rand()
                if roll < ADVANCE:
                    positions[entity] = (position + 1) % chain
                elif roll < JUMP:
                    positions[entity] = int(rand() * chain)
        return chunk

    # A shuffle needs the whole stream at once; in-order logs are generated
    # and recorded chunk by chunk.
    step = units if spec.max_lateness else CHUNK_UNITS
    log_path = workdir / "events.jsonl"
    events = 0
    write_s = 0.0
    with EventLogWriter(log_path, stream_name="bench") as writer:
        for first_unit in range(0, units, step):
            chunk = walk(first_unit, min(first_unit + step, units), events)
            if spec.max_lateness:
                chunk = bounded_shuffle(chunk, spec.max_lateness, seed)
            started = time.perf_counter()
            writer.extend(chunk)
            if first_unit + step >= units:
                writer.close()  # the final flush and fsync belong to the recording
            write_s += time.perf_counter() - started
            events += len(chunk)

    queries = [(f"q{index + 1}", pattern) for index, pattern in enumerate(spec.patterns)]
    workload_path = workdir / "workload.sase"
    workload_path.write_text(
        "\n\n".join(f"name: {name}\n{query_text(spec, pattern)}" for name, pattern in queries)
        + "\n",
        encoding="utf-8",
    )

    churned: list = []
    churn_path = None
    if spec.churn_ops:
        period = units // (spec.churn_ops + 1)
        ops = []
        for op_index in range(spec.churn_ops):
            at = period * (op_index + 1)
            if op_index % 2 == 0:
                query = ChurnedQuery(
                    f"c{op_index // 2 + 1}", _churn_pattern(spec, op_index // 2), at, None
                )
                churned.append(query)
                text = query_text(spec, query.pattern).replace("\n", " ")
                ops.append({"op": "attach", "at": at, "name": query.name, "query": text})
            else:
                churned[-1].detach = at
                ops.append({"op": "detach", "at": at, "name": churned[-1].name})
        churn_path = workdir / "churn.json"
        churn_path.write_text(json.dumps(ops, indent=1) + "\n", encoding="utf-8")

    return Inputs(
        spec=spec,
        seed=seed,
        units=units,
        events=events,
        log_path=log_path,
        log_bytes=log_path.stat().st_size,
        log_write_s=write_s,
        workload_path=workload_path,
        churn_path=churn_path,
        checkpoint_every=units // (spec.checkpoints + 1) if spec.checkpoints else 0,
        queries=queries,
        churned=churned,
        relevant=relevant,
    )
