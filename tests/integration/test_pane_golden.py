"""A pane run reproduces, byte for byte, what an older commit wrote for it.

``tests/fixtures/pane_golden/`` holds one overlapping-window run written by
the commit before the pane path stopped folding entries no window reads (row
0 at a window's first pane, column ``l`` at its last): :func:`write_fixture`
with that commit's ``src`` on the path.  The run is :func:`golden_scenario` —
WITHIN 12 SLIDE 4 (pane width 4, three panes per window, so every window
has a first, a middle and a last pane), COUNT(*) next to SUM/AVG/MIN/MAX,
a repeated-type pattern, the optimizer's plan, one attach inside an open
pane and one detach — replayed from its ``events.jsonl`` with
``checkpoint_every`` so the directory keeps the checkpoint files and the
``results.jsonl`` next to them; ``golden.json`` keeps the state hash and
the run's counters.  Regenerating the run must write the same files with
the same bytes, and every stored checkpoint must resume to the same results
log and state hash.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

from repro.core.optimizer import SharonOptimizer
from repro.events import Event, EventStream, SlidingWindow
from repro.events.log import EventLogReader, write_event_log
from repro.executor.churn import ChurnOp
from repro.queries import AggregateSpec, Pattern, PredicateSet, Query, Workload
from repro.replay import ReplayRunner
from repro.utils.rates import RateCatalog

GOLDEN_DIR = Path(__file__).resolve().parent.parent / "fixtures" / "pane_golden"
LOG_NAME = "events.jsonl"
CHECKPOINT_EVERY = 30
#: The run's counters kept in ``golden.json`` (the non-deterministic ones left out).
COUNTERS = (
    "total_events",
    "relevant_events",
    "columnar_batches",
    "state_updates",
    "panes_created",
    "pane_merges",
    "windows_finalized",
    "results_emitted",
)


def golden_scenario() -> "tuple[Workload, list[Event], list[ChurnOp]]":
    """The workload, events and churn ops of the golden run."""
    window = SlidingWindow(size=12, slide=4)
    same = PredicateSet.same("entity")

    def query(name, types, aggregate):
        return Query(Pattern(types), window, aggregate, same, name=name)

    workload = Workload(
        [
            query("q1", ("A", "B", "C"), AggregateSpec.count_star()),
            query("q2", ("A", "B", "D"), AggregateSpec.count_star()),
            query("q3", ("B", "C", "D"), AggregateSpec.sum("D", "value")),
            query("q4", ("A", "B", "A"), AggregateSpec.count_star()),
            query("q5", ("C", "D"), AggregateSpec.avg("D", "value")),
            query("q6", ("A", "B", "C"), AggregateSpec.max("C", "value")),
        ],
        name="pane-golden",
    )
    rng = random.Random(4711)
    events = []
    for timestamp in range(120):
        for _ in range(rng.randint(1, 4)):
            events.append(
                Event(
                    rng.choice("ABCD"),
                    timestamp,
                    {"entity": rng.randint(0, 2), "value": rng.randint(-40, 90) / 8},
                    len(events),
                )
            )
    late = query("q7", ("A", "C", "D"), AggregateSpec.min("D", "value"))
    ops = [ChurnOp("attach", at=37, query=late), ChurnOp("detach", at=61, query_name="q2")]
    return workload, events, ops


def golden_runner() -> ReplayRunner:
    """The golden run's runner: the optimizer's plan over the whole stream, the churn ops."""
    workload, events, ops = golden_scenario()
    rates = RateCatalog.from_stream(EventStream(events), per="time-unit")
    plan = SharonOptimizer(rates).optimize(workload).plan
    return ReplayRunner(workload, plan=plan, churn=ops)


def run_golden(log: Path, directory: Path, resume_from: "Path | None" = None):
    """Replay ``log`` through :func:`golden_runner` with checkpoints into ``directory``."""
    return golden_runner().run(
        log,
        checkpoint_every=CHECKPOINT_EVERY,
        checkpoint_dir=directory,
        resume_from=resume_from,
    )


def write_fixture(directory: Path) -> None:
    """Write the log, the run's checkpoints and results log, and ``golden.json``."""
    directory.mkdir(parents=True, exist_ok=True)
    _, events, _ = golden_scenario()
    write_event_log(EventStream(events), directory / LOG_NAME, stream_name="pane-golden")
    replay = run_golden(directory / LOG_NAME, directory)
    golden = {
        "state_hash": replay.state_hash,
        "counters": {name: getattr(replay.metrics, name) for name in COUNTERS},
    }
    (directory / "golden.json").write_text(json.dumps(golden, indent=1) + "\n", encoding="utf-8")


def run_files(directory: Path) -> dict[str, bytes]:
    """The files a golden run writes (checkpoints and results log), by name."""
    return {
        path.name: path.read_bytes()
        for path in sorted(directory.iterdir())
        if path.name not in (LOG_NAME, "golden.json")
    }


def golden() -> dict:
    return json.loads((GOLDEN_DIR / "golden.json").read_text(encoding="utf-8"))


def as_rows(events) -> list[tuple]:
    return [(event.event_type, event.timestamp, dict(event.attributes)) for event in events]


def test_the_fixture_log_is_the_scenario_stream():
    _, events, _ = golden_scenario()
    assert as_rows(EventLogReader(GOLDEN_DIR / LOG_NAME)) == as_rows(events)


def test_the_golden_run_is_reproduced_byte_for_byte(tmp_path):
    replay = run_golden(GOLDEN_DIR / LOG_NAME, tmp_path)
    recorded = run_files(GOLDEN_DIR)
    assert len(recorded) > 2 and "results.jsonl" in recorded
    written = run_files(tmp_path)
    assert sorted(written) == sorted(recorded)
    for name, data in recorded.items():
        assert written[name] == data, name
    expected = golden()
    assert replay.state_hash == expected["state_hash"]
    assert {name: getattr(replay.metrics, name) for name in COUNTERS} == expected["counters"]
    assert expected["counters"]["pane_merges"] > 0  # the run took the pane path


def test_every_golden_checkpoint_resumes_to_the_golden_results_and_hash(tmp_path):
    recorded = (GOLDEN_DIR / "results.jsonl").read_bytes()
    checkpoints = sorted(GOLDEN_DIR.glob("checkpoint-*.json"))
    assert len(checkpoints) >= 3
    for number, checkpoint in enumerate(checkpoints):
        directory = tmp_path / str(number)
        resumed = run_golden(GOLDEN_DIR / LOG_NAME, directory, resume_from=checkpoint)
        assert resumed.events_replayed < 305  # a resume replays only the rest
        assert (directory / "results.jsonl").read_bytes() == recorded, checkpoint.name
        assert resumed.state_hash == golden()["state_hash"], checkpoint.name
