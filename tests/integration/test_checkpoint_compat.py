"""Checkpoints written before carry-aware coalescing still resume correctly.

``tests/fixtures/parent_checkpoint/`` holds a recorded event log and two
mid-run checkpoints of it written by the commit *before* eager cohort
coalescing landed (one per kernel backend), when shared states compacted
lazily and every shared runner — prefix-free or not — stored one carry per
cohort.  Those snapshots therefore carry a ``compact_threshold``, a
``compactions`` count, cohort sets that are *not* at the compaction fixed
point, and unit-carry lists on prefix-free runners.  Resuming from them must
still yield the oracle's results.

The fixture was produced by running this module's :func:`fixture_scenario`
through ``ReplayRunner(...).run(log, checkpoint_every=45, ...)`` on the old
commit and keeping the first checkpoint.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

import pytest

from repro.core import SharingCandidate, SharingPlan
from repro.events import Event, EventStream, SlidingWindow
from repro.events.log import EventLogReader
from repro.executor import OracleExecutor
from repro.executor.kernels import numpy_available
from repro.queries import AggregateSpec, Pattern, PredicateSet, Query, Workload
from repro.replay import ReplayRunner, load_checkpoint

FIXTURE_DIR = Path(__file__).resolve().parent.parent / "fixtures" / "parent_checkpoint"
LOG_PATH = FIXTURE_DIR / "events.jsonl"

BACKENDS = ["python"] + (["numpy"] if numpy_available() else [])


def fixture_scenario() -> "tuple[Workload, SharingPlan, list[Event]]":
    """The workload, plan and events the fixture was recorded from.

    ``(A, B)`` is shared as the *prefix* of q1/q2/q7 (prefix-free runners,
    COUNT(*) and MAX column families); ``(C, D)`` is shared as the *suffix*
    of q3–q6 (carry-bearing runners, COUNT(*) and SUM column families).
    """
    window = SlidingWindow(size=60, slide=30)
    predicates = PredicateSet.same("entity")
    count = AggregateSpec.count_star()
    total = AggregateSpec.sum("D", "value")
    peak = AggregateSpec.max("B", "value")

    def query(name, types, aggregate):
        return Query(Pattern(types), window, aggregate, predicates, name=name)

    workload = Workload(
        [
            query("q1", ("A", "B", "C"), count),
            query("q2", ("A", "B", "D"), count),
            query("q3", ("E", "C", "D"), count),
            query("q4", ("B", "C", "D"), count),
            query("q5", ("E", "C", "D"), total),
            query("q6", ("B", "C", "D"), total),
            query("q7", ("A", "B", "C"), peak),
        ],
        name="parent-checkpoint",
    )
    plan = SharingPlan(
        [
            SharingCandidate(Pattern(("A", "B")), ("q1", "q2", "q7"), 1.0),
            SharingCandidate(Pattern(("C", "D")), ("q3", "q4", "q5", "q6"), 1.0),
        ]
    )
    rng = random.Random(20260926)
    events = []
    for timestamp in range(120):
        for _ in range(rng.randint(1, 4)):
            events.append(
                Event(
                    rng.choice("ABCDE"),
                    timestamp,
                    {"entity": rng.randint(0, 1), "value": float(rng.randint(1, 9))},
                    len(events),
                )
            )
    return workload, plan, events


def test_fixture_log_is_the_scenario_stream():
    """The recorded log and the literal scenario cannot drift apart."""
    _, _, events = fixture_scenario()
    assert list(EventLogReader(LOG_PATH)) == events


@pytest.mark.parametrize("backend", BACKENDS)
def test_parent_checkpoint_holds_the_lazy_compaction_schema(backend):
    """Guard the fixture itself: it must exercise what restore now ignores."""
    state = load_checkpoint(FIXTURE_DIR / f"checkpoint-{backend}.json").engine_state
    shared = [dump for scope in state["scopes"] for dump in scope["shared"]]
    assert all("compact_threshold" in dump and "compactions" in dump for dump in shared)
    # Not at the fixed point: some state holds more cohorts than distinct carries.
    assert any(len(dump["anchors"]) > 1 for dump in shared)
    # q1's chain starts with the shared (A, B) runner; the parent stored carries for it.
    assert any(scope["chains"][0][0]["carries"] for scope in state["scopes"])


@pytest.mark.parametrize("resume_backend", BACKENDS)
@pytest.mark.parametrize("written_by", BACKENDS)
def test_resume_from_parent_checkpoint_matches_oracle(written_by, resume_backend):
    workload, plan, events = fixture_scenario()
    checkpoint = FIXTURE_DIR / f"checkpoint-{written_by}.json"
    resumed = ReplayRunner(workload, plan=plan, backend=resume_backend).run(
        LOG_PATH, resume_from=checkpoint
    )
    assert 0 < resumed.events_replayed < len(events)
    oracle = OracleExecutor(workload).run(EventStream(events)).results
    assert resumed.results.matches(oracle), resumed.results.differences(oracle)[:5]
    full = ReplayRunner(workload, plan=plan, backend=resume_backend).run(LOG_PATH)
    assert resumed.results.matches(full.results)


def test_parent_checkpoints_agree_across_backends():
    """Snapshots are backend-agnostic: both fixture files hold the same state."""
    payloads = [
        json.loads((FIXTURE_DIR / f"checkpoint-{backend}.json").read_text(encoding="utf-8"))
        for backend in ("python", "numpy")
    ]
    assert payloads[0] == payloads[1]
