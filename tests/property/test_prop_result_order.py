"""Property: what a session emits, and in which order, is a function of the stream.

The digest in a session snapshot is over the emitted results *in emission
order*, so that order must not depend on anything incidental:

* **group arrival order** — which group of a window happened to be seen
  first decides the insertion order of the scope dicts; finalization walks
  each window's groups in ``repr`` order instead;
* **where a checkpoint fell** — a restored session rebuilds its dicts in
  snapshot (sorted) order, an uninterrupted one in arrival order;
* **the process's hash seed** — group keys are strings here, and pane-mode
  detach collects a window's groups in a ``set``.

Each case compares the canonical result lines and the ``{"count", "digest"}``
summary of an uninterrupted run over one arrival order with a run over
another arrival order (events permuted inside their timestamp) that is
snapshotted and restored at a drawn batch.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro.events import Event, SlidingWindow
from repro.executor import StreamingEngine
from repro.executor.results import encode_result_lines
from repro.queries import AggregateSpec, Pattern, PredicateSet, Query, Workload

ENTITIES = ["ann", "bob", "cy", "dee", "eve"]


def workload() -> Workload:
    window = SlidingWindow(size=6, slide=3)
    predicates = PredicateSet.same("entity")
    count = AggregateSpec.count_star()
    return Workload(
        [
            Query(Pattern(["A", "B"]), window, count, predicates, name="ab"),
            Query(Pattern(["A", "B", "C"]), window, count, predicates, name="abc"),
            Query(Pattern(["B", "C"]), window, count, predicates, name="bc"),
        ]
    )


@st.composite
def arrival_orders(draw):
    """``(events, permuted)``: one event multiset in two within-timestamp orders."""
    drawn = draw(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=20),
                st.sampled_from("ABC"),
                st.sampled_from(ENTITIES),
                st.integers(min_value=0, max_value=1_000),
            ),
            min_size=1,
            max_size=40,
        )
    )
    events = [
        (Event(event_type, timestamp, {"entity": entity}, index), shuffle_key)
        for index, (timestamp, event_type, entity, shuffle_key) in enumerate(drawn)
    ]
    in_order = sorted(events, key=lambda pair: (pair[0].timestamp, pair[0].event_id))
    permuted = sorted(events, key=lambda pair: (pair[0].timestamp, pair[1], pair[0].event_id))
    return [event for event, _ in in_order], [event for event, _ in permuted]


def emitted(panes: bool, events: list, split_after: "int | None" = None):
    """``(result lines, summary)`` of a run, optionally snapshotted and restored mid-run."""
    engine = StreamingEngine(workload(), panes=panes)
    session = engine.new_session()
    consumed = 0
    if split_after is not None:
        batches = session.routed_batches(iter(events))
        for index, (timestamp, batch, groups) in enumerate(batches):
            session.step(timestamp, batch, groups)
            consumed += len(batch)
            if index == split_after:
                break
        snapshot = session.export_state()
        prior = encode_result_lines(session.results)
        engine = StreamingEngine(workload(), panes=panes)
        session = engine.new_session()
        session.restore_state(snapshot, prior)
    report = engine.run(iter(events[consumed:]), session=session)
    return encode_result_lines(report.results), session.export_state()["results"]


@settings(max_examples=60, deadline=None)
@given(
    orders=arrival_orders(),
    panes=st.booleans(),
    split_after=st.integers(min_value=0, max_value=20),
)
def test_emission_order_and_digest_ignore_arrival_order_and_checkpoints(
    orders, panes, split_after
):
    events, permuted = orders
    expected = emitted(panes, events)
    assert emitted(panes, permuted) == expected
    assert emitted(panes, permuted, split_after=split_after) == expected
    assert emitted(panes, events, split_after=split_after) == expected


_HASH_SEED_SCRIPT = """
import random
from repro.events import Event
from repro.executor import ChurnOp, ChurnSchedule, StreamingEngine
from tests.property.test_prop_result_order import ENTITIES, workload

rng = random.Random(5)
events = [
    Event(rng.choice("ABC"), timestamp, {"entity": rng.choice(ENTITIES)}, timestamp * 4 + slot)
    for timestamp in range(40)
    for slot in range(4)
]
for panes in (False, True):
    engine = StreamingEngine(workload(), panes=panes)
    session = engine.new_session()
    churn = ChurnSchedule([ChurnOp("detach", 20, query_name="bc")])
    engine.run(iter(events), session=session, churn=churn)
    summary = session.export_state()["results"]
    print(panes, summary["count"], summary["digest"])
"""


def test_digest_is_the_same_under_every_hash_seed():
    """String group keys hash differently per process; the digest must not notice."""
    root = Path(__file__).resolve().parents[2]
    source = Path(repro.__file__).resolve().parents[1]
    outputs = set()
    for seed in ("0", "1", "2"):
        done = subprocess.run(
            [sys.executable, "-c", _HASH_SEED_SCRIPT],
            capture_output=True,
            text=True,
            cwd=root,
            env={**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": f"{source}{os.pathsep}{root}"},
            timeout=120,
        )
        assert done.returncode == 0, done.stderr
        outputs.add(done.stdout)
    assert len(outputs) == 1, outputs
    assert all(int(line.split()[1]) > 0 for line in outputs.pop().splitlines())
