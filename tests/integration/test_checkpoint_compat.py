"""Checkpoints written by older commits still resume correctly.

``tests/fixtures/parent_checkpoint/`` holds a recorded event log and two
mid-run checkpoints of it written by the commit *before* eager cohort
coalescing landed (one by each numeric backend the engine had then; both
hold the same state), when shared states compacted
lazily and every shared runner — prefix-free or not — stored one carry per
cohort.  Those snapshots therefore carry a ``compact_threshold``, a
``compactions`` count, cohort sets that are *not* at the compaction fixed
point, and unit-carry lists on prefix-free runners.  Resuming from them must
still yield the oracle's results.

The fixture was produced by running this module's :func:`fixture_scenario`
through ``ReplayRunner(...).run(log, checkpoint_every=45, ...)`` on the old
commit and keeping the first checkpoint.  ``checkpoint-panes.json`` is the
same run with ``panes=True`` on the commit before the engine started choosing
its window strategy (and before pane matrices were addressed by index in
memory): all three files record their strategy as ``engine_config["mode"]``,
and a runner built without ``panes=`` continues in it.

``tests/fixtures/v1_checkpoint/`` holds the last kind of version-1 file: a
mid-run checkpoint of :func:`v1_scenario` (bounded-disorder arrivals, an
attach and a detach already applied) written by the commit before results
moved out of the snapshots, so ``engine_state["results"]`` lists every
emitted result inline, sorted by ``repr`` of the result key.  Resuming from
it matches the uninterrupted run on *results*; it cannot match on
``state_hash``, because the digest in the state is over emission order and
a version-1 prefix is only known in sorted order.  It was produced with
``ReplayRunner(workload, plan=plan, max_lateness=V1_MAX_LATENESS,
churn=schedule).run(log, checkpoint_every=20, ...)`` on that commit, keeping
the fourth checkpoint.

``tests/fixtures/parent_checkpoint/results-detach.jsonl`` is the results log
the commit *before results became rows* wrote for that directory's
``events.jsonl`` (:func:`fixture_scenario`), with ``q6`` detached at
timestamp 50 — while two of its windows were open, so the detach-time
partials are in it — and ``checkpoint_every=25``.  Frozen ``QueryResult``
dataclasses, an eager ``ResultSet`` index and a ``repr`` sort at every window
close produced those bytes, once with ``panes=False`` and once with
``panes=True`` (the two files were identical, so one is kept).
Both strategies must still write exactly them.

``checkpoint-uncompacted.json`` comes from the commit *before the engine's
``columnar`` and ``compaction`` switches were deleted*: the first checkpoint
of :func:`fixture_scenario` through a per-instance ``ReplayRunner`` with both
switches set to ``False``, ``.run(log, checkpoint_every=45)``.  Its
``engine_config`` records both switches off, its shared states hold one
cohort per START batch (equal carries side by side, nothing merged), and its
``columnar_batches`` counter is 0.  Loading drops the two legacy keys
(``upgrade_snapshot``), restore keeps the stored cohorts as they are, and
coalescing is lossless, so it resumes to the oracle's results like the other
files.

``checkpoint-panes-churn.json`` and ``results-panes-churn.jsonl`` come from
the commit *before pane cells were shared across queries*: the first
checkpoint (``checkpoint_every=45``, last timestamp 44) and the complete
results log of :func:`fixture_scenario` under :func:`pane_churn_ops` — two
queries attached at 36 and 38, inside the open pane ``[30, 60)``.  Its scope
snapshots hold one block of rows per matrix, and the attached queries'
blocks count only post-attach events, so they disagree with the older
blocks on every sequence they have in common.

``tests/fixtures/migration_checkpoint/`` comes from the commit *before a
cohort became a column index*: :func:`fixture_scenario` through a
per-instance ``ReplayRunner`` under :func:`migration_ops` (``q6`` detached
at 50 with a plan that stops sharing ``(A, B)``),
``.run(log, checkpoint_every=45, checkpoint_dir=...)``, keeping the second
checkpoint (last timestamp 89) and the run's complete ``results.jsonl``.
Window ``[0, 60)`` has emitted; ``[30, 90)`` is open under the first
generation with ``q6``'s zombie chain, ``[60, 120)`` under the second.  Its
shared states store one START event per cohort (``anchors``, several
cohorts each) and its shared runners a nonzero ``combinations`` count from
the detach partials; loading drops both.
"""

from __future__ import annotations

import functools
import json
import random
from pathlib import Path

import pytest

from repro.core import SharingCandidate, SharingPlan
from repro.events import Event, EventStream, SlidingWindow, bounded_shuffle
from repro.events.log import EventLogReader
from repro.executor import ChurnOp, ChurnSchedule, OracleExecutor
from repro.executor.results import encode_result_lines
from repro.queries import AggregateSpec, Pattern, PredicateSet, Query, Workload
from repro.replay import RESULTS_LOG_NAME, CheckpointError, ReplayRunner, load_checkpoint

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"
FIXTURE_DIR = FIXTURES / "parent_checkpoint"
LOG_PATH = FIXTURE_DIR / "events.jsonl"
V1_DIR = FIXTURES / "v1_checkpoint"
V1_MAX_LATENESS = 3
MIGRATION_DIR = FIXTURES / "migration_checkpoint"
MIGRATION_CHECKPOINT = MIGRATION_DIR / "checkpoint-000000215.json"

#: The two mid-run checkpoints of :func:`fixture_scenario` written with lazy compaction.
LAZY_COMPACTION_CHECKPOINTS = ["checkpoint-python.json", "checkpoint-numpy.json"]

#: Every parent-written per-instance checkpoint of :func:`fixture_scenario`.
PARENT_CHECKPOINTS = [*LAZY_COMPACTION_CHECKPOINTS, "checkpoint-uncompacted.json"]


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


@functools.lru_cache(maxsize=None)
def fixture_oracle_results():
    """The brute-force oracle's results over :func:`fixture_scenario` (computed once)."""
    workload, _, events = fixture_scenario()
    return OracleExecutor(workload).run(EventStream(events)).results


def read_payload(path: Path) -> dict:
    """A checkpoint file as written, before ``load_checkpoint`` upgrades it."""
    return json.loads(path.read_text(encoding="utf-8"))


def test_fixture_log_is_the_scenario_stream():
    """The recorded log and the literal scenario cannot drift apart."""
    _, _, events = fixture_scenario()
    assert list(EventLogReader(LOG_PATH)) == events


@pytest.mark.parametrize("fixture", LAZY_COMPACTION_CHECKPOINTS)
def test_parent_checkpoint_holds_the_lazy_compaction_schema(fixture):
    """Guard the fixture itself: it must exercise what loading drops and restore keeps."""
    state = read_payload(FIXTURE_DIR / fixture)["engine_state"]
    shared = [dump for scope in state["scopes"] for dump in scope["shared"]]
    assert all("compact_threshold" in dump and "compactions" in dump for dump in shared)
    upgraded = load_checkpoint(FIXTURE_DIR / fixture).engine_state
    legacy = {"compact_threshold", "compactions"}
    assert not any(legacy & set(dump) for scope in upgraded["scopes"] for dump in scope["shared"])
    # Not at the fixed point: some state holds more cohorts than distinct carries.
    assert any(len(dump["anchors"]) > 1 for dump in shared)
    # q1's chain starts with the shared (A, B) runner; the parent stored carries for it.
    assert any(scope["chains"][0][0]["carries"] for scope in state["scopes"])


@pytest.mark.parametrize("panes", [None, False], ids=["recorded-mode", "explicit-instances"])
@pytest.mark.parametrize("fixture", PARENT_CHECKPOINTS)
def test_resume_from_parent_checkpoint_matches_oracle(fixture, panes):
    """Every file resumes, whether the runner adopts its mode or names the same one."""
    workload, plan, events = fixture_scenario()
    resumed = ReplayRunner(workload, plan=plan, panes=panes).run(
        LOG_PATH, resume_from=FIXTURE_DIR / fixture
    )
    assert resumed.metrics.panes_created == 0
    assert 0 < resumed.events_replayed < len(events)
    oracle = fixture_oracle_results()
    assert resumed.results.matches(oracle), resumed.results.differences(oracle)[:5]
    full = ReplayRunner(workload, plan=plan).run(LOG_PATH)
    assert resumed.results.matches(full.results)


def test_both_parent_written_checkpoints_hold_one_state():
    """Two files written by the parent, one state: neither fixture drifts alone."""
    payloads = [
        json.loads((FIXTURE_DIR / fixture).read_text(encoding="utf-8"))
        for fixture in LAZY_COMPACTION_CHECKPOINTS
    ]
    assert payloads[0] == payloads[1]


def _carry_runs(scope):
    """Per carry-bearing chain runner of one scope dump: its stored carries."""
    return [
        runner["carries"] for chain in scope["chains"] for runner in chain if runner.get("carries")
    ]


def test_uncompacted_fixture_holds_one_cohort_per_start_batch():
    """Guard the fixture itself: both legacy switches off, no cohort ever merged."""
    payload = read_payload(FIXTURE_DIR / "checkpoint-uncompacted.json")
    assert payload["engine_config"] == {
        "columnar": False,
        "compaction": False,
        "late_policy": "raise",
        "max_lateness": None,
        "mode": "instances",
    }
    state = payload["engine_state"]
    assert state["metrics"]["columnar_batches"] == 0 and state["results"]["count"] == 0
    shared = [dump for scope in state["scopes"] for dump in scope["shared"]]
    assert shared and all(dump["cohorts_merged"] == 0 for dump in shared)
    assert all(len(dump["anchors"]) == dump["cohorts_created"] for dump in shared)
    # Off the coalescing fixed point: some runner holds equal carries side by side.
    carries = [run for scope in state["scopes"] for run in _carry_runs(scope)]
    assert any(a == b for run in carries for a, b in zip(run, run[1:]))


def _uncompacted_runner():
    workload, plan, _ = fixture_scenario()
    return ReplayRunner(workload, plan=plan, panes=False)


def test_uncompacted_checkpoint_resumes_to_the_full_runs_results_log(tmp_path):
    """Stored cohorts stay as they are, new ones coalesce: not one result byte moves.

    The first checkpoint written after the resume holds this commit's layout
    from there on, and resuming from it reaches the resumed run's state.
    """
    runner = _uncompacted_runner()
    full = runner.run(LOG_PATH, checkpoint_every=45, checkpoint_dir=tmp_path / "full")
    resumed = runner.run(
        LOG_PATH,
        resume_from=FIXTURE_DIR / "checkpoint-uncompacted.json",
        checkpoint_every=45,
        checkpoint_dir=tmp_path / "resumed",
    )
    log = (tmp_path / "full" / RESULTS_LOG_NAME).read_bytes()
    assert log.count(b"\n") > 1
    assert (tmp_path / "resumed" / RESULTS_LOG_NAME).read_bytes() == log
    # Counters are hashed: the fixture counted no columnar batch before its checkpoint.
    assert resumed.metrics.columnar_batches < full.metrics.columnar_batches
    again = runner.run(LOG_PATH, resume_from=resumed.checkpoints[0])
    assert again.state_hash == resumed.state_hash


@pytest.mark.parametrize(
    "columnar,compaction", [(True, True), (False, False), (True, False), (False, True)]
)
def test_legacy_switch_keys_validate_whatever_their_value(columnar, compaction, tmp_path):
    """A file that differs from the runner only in the two legacy keys loads and resumes."""
    runner = _uncompacted_runner()
    payload = read_payload(FIXTURE_DIR / "checkpoint-uncompacted.json")
    payload["engine_config"].update({"columnar": columnar, "compaction": compaction})
    assert set(payload["engine_config"]) - set(runner.engine_config) == {"columnar", "compaction"}
    path = tmp_path / "checkpoint-legacy.json"
    path.write_text(json.dumps(payload), encoding="utf-8")
    checkpoint = load_checkpoint(path)
    assert checkpoint.engine_config == runner.engine_config
    checkpoint.validate_against(runner.fingerprint, runner.engine_config)
    _, _, events = fixture_scenario()
    resumed = runner.run(LOG_PATH, resume_from=path)
    assert resumed.events_replayed == len(events) - checkpoint.events_consumed


@pytest.mark.parametrize(
    "key,value",
    [("max_lateness", 3), ("late_policy", "drop"), ("mode", "panes"), ("churn", [])],
)
def test_every_other_config_key_is_still_compared_exactly(key, value):
    """Only the legacy keys are dropped on load: any other difference refuses the resume."""
    runner = _uncompacted_runner()
    checkpoint = load_checkpoint(FIXTURE_DIR / "checkpoint-uncompacted.json")
    checkpoint.engine_config[key] = value
    with pytest.raises(CheckpointError, match="engine config"):
        checkpoint.validate_against(runner.fingerprint, runner.engine_config)
    with pytest.raises(CheckpointError, match="engine config"):
        runner.run(LOG_PATH, resume_from=checkpoint)


@pytest.mark.parametrize("panes", [False, True], ids=["instances", "panes"])
def test_parent_written_results_log_is_reproduced_byte_for_byte(panes, tmp_path):
    """Rows instead of result objects changed no byte of ``results.jsonl``."""
    workload, plan, _ = fixture_scenario()
    recorded = (FIXTURE_DIR / "results-detach.jsonl").read_bytes()
    # The fixture covers what it claims to: detach-time partials of open windows first.
    assert recorded.splitlines()[1:3] == [b'["q6",[0,60],[0],711.0]', b'["q6",[0,60],[1],1829.0]']
    replay = ReplayRunner(
        workload, plan=plan, panes=panes, churn=[ChurnOp("detach", at=50, query_name="q6")]
    ).run(LOG_PATH, checkpoint_every=25, checkpoint_dir=tmp_path)
    assert (tmp_path / RESULTS_LOG_NAME).read_bytes() == recorded
    assert len(replay.checkpoints) == 4
    # The report reads the same file: every line, as a result.
    assert encode_result_lines(replay.results) == recorded.partition(b"\n")[2]
    # A resume in another directory copies the prefix and appends the same suffix.
    elsewhere = tmp_path / "resumed"
    resumed = ReplayRunner(
        workload, plan=plan, panes=panes, churn=[ChurnOp("detach", at=50, query_name="q6")]
    ).run(
        LOG_PATH, resume_from=replay.checkpoints[1], checkpoint_every=25, checkpoint_dir=elsewhere
    )
    assert (elsewhere / RESULTS_LOG_NAME).read_bytes() == recorded
    assert resumed.state_hash == replay.state_hash


def migration_ops() -> "list[ChurnOp]":
    """The migration behind ``migration_checkpoint``: ``q6`` detached, ``(A, B)`` no longer shared."""
    plan = SharingPlan([SharingCandidate(Pattern(("C", "D")), ("q3", "q4", "q5"), 1.0)])
    return [ChurnOp("detach", at=50, query_name="q6", plan=plan)]


def test_parent_checkpoint_after_a_plan_migration_resumes_byte_for_byte(tmp_path):
    """Stored START events and combination counts are dropped on load; not one byte moves."""
    state = read_payload(MIGRATION_CHECKPOINT)["engine_state"]
    # Guard the fixture: emitted windows, both generations, what loading drops.
    assert state["results"]["count"] > 0
    assert sorted({scope["generation"] for scope in state["scopes"]}) == [0, 1]
    shared = [dump for scope in state["scopes"] for dump in scope["shared"]]
    runners = [r for scope in state["scopes"] for chain in scope["chains"] for r in chain]
    assert any(len(dump["anchors"]) > 1 for dump in shared)
    assert any(runner.get("combinations") for runner in runners)
    upgraded = load_checkpoint(MIGRATION_CHECKPOINT).engine_state
    assert not any("anchors" in dump for scope in upgraded["scopes"] for dump in scope["shared"])
    assert not any(
        "combinations" in runner
        for scope in upgraded["scopes"]
        for chain in scope["chains"]
        for runner in chain
    )

    workload, plan, events = fixture_scenario()

    def runner() -> ReplayRunner:
        return ReplayRunner(workload, plan=plan, panes=False, churn=migration_ops())

    resumed = runner().run(
        LOG_PATH,
        resume_from=MIGRATION_CHECKPOINT,
        checkpoint_every=45,
        checkpoint_dir=tmp_path / "resumed",
    )
    assert 0 < resumed.events_replayed < len(events)
    recorded = (MIGRATION_DIR / RESULTS_LOG_NAME).read_bytes()
    assert (tmp_path / "resumed" / RESULTS_LOG_NAME).read_bytes() == recorded
    full = runner().run(LOG_PATH, checkpoint_every=45, checkpoint_dir=tmp_path / "full")
    assert (tmp_path / "full" / RESULTS_LOG_NAME).read_bytes() == recorded
    assert resumed.state_hash == full.state_hash


def v1_scenario() -> "tuple[Workload, SharingPlan, list[Event], ChurnSchedule]":
    """The workload, plan, arrival-ordered events and churn script of the v1 fixture."""
    window = SlidingWindow(size=20, slide=10)
    predicates = PredicateSet.same("entity")

    def query(name, types, aggregate=None):
        aggregate = aggregate or AggregateSpec.count_star()
        return Query(Pattern(types), window, aggregate, predicates, name=name)

    workload = Workload(
        [query("q1", ("A", "B", "C")), query("q2", ("A", "B", "D")), query("q3", ("B", "C"))],
        name="v1-checkpoint",
    )
    plan = SharingPlan([SharingCandidate(Pattern(("A", "B")), ("q1", "q2"), 1.0)])
    schedule = ChurnSchedule(
        [
            ChurnOp("attach", 25, query=query("late", ("C", "D"), AggregateSpec.sum("D", "value"))),
            ChurnOp("detach", 55, query_name="q3"),
        ]
    )
    rng = random.Random(20260927)
    events = []
    for timestamp in range(150):
        for _ in range(rng.randint(1, 3)):
            events.append(
                Event(
                    rng.choice("ABCD"),
                    timestamp,
                    {"entity": rng.randint(0, 2), "value": float(rng.randint(1, 9))},
                    len(events),
                )
            )
    return workload, plan, bounded_shuffle(events, V1_MAX_LATENESS, seed=20260927), schedule


def v1_runner() -> ReplayRunner:
    workload, plan, _, schedule = v1_scenario()
    return ReplayRunner(workload, plan=plan, max_lateness=V1_MAX_LATENESS, churn=schedule)


def test_v1_fixture_is_a_version_1_file_with_disorder_churn_and_inline_results():
    """Guard the fixture itself: it must hold what version 2 moved or dropped."""
    _, _, events, _ = v1_scenario()
    assert list(EventLogReader(V1_DIR / "events.jsonl")) == events
    checkpoint = load_checkpoint(V1_DIR / "checkpoint.json")
    assert checkpoint.version == 1 and checkpoint.results_offset == 0
    assert not (V1_DIR / RESULTS_LOG_NAME).exists()
    state = checkpoint.engine_state
    rows = state["results"]
    assert isinstance(rows, list) and len(rows) > 20
    names = [row[0] for row in rows]
    assert names == sorted(names) and len(set(names)) > 1  # key order, not emission order
    assert sum(len(batch) for _ts, batch in state["reorder"]["batches"]) > 0
    assert [entry["op"] for entry in state["churn"]["history"]] == ["attach", "detach"]


def test_resume_from_v1_checkpoint_matches_the_full_run_on_results(tmp_path):
    """...and only on results: its prefix is known in sorted, not emission, order."""
    workload, _, events, _ = v1_scenario()
    log_path = V1_DIR / "events.jsonl"
    full = v1_runner().run(log_path)
    resumed = v1_runner().run(
        log_path,
        resume_from=V1_DIR / "checkpoint.json",
        checkpoint_every=20,
        checkpoint_dir=tmp_path / "cks",
    )
    assert 0 < resumed.events_replayed < len(events)
    assert resumed.results.as_dict() == full.results.as_dict()
    assert resumed.metrics.results_emitted == full.metrics.results_emitted == len(full.results)
    # Same multiset of lines, different sequence, hence a different digest and hash.
    assert sorted(encode_result_lines(resumed.results).splitlines()) == sorted(
        encode_result_lines(full.results).splitlines()
    )
    assert resumed.state_hash != full.state_hash

    # The inline list became the prefix of a version-2 directory that resumes like any other.
    body = (tmp_path / "cks" / RESULTS_LOG_NAME).read_bytes().partition(b"\n")[2]
    assert body == encode_result_lines(resumed.results)
    again = v1_runner().run(log_path, resume_from=resumed.checkpoints[0])
    assert again.state_hash == resumed.state_hash
    assert again.results.as_dict() == full.results.as_dict()


# -- the window strategy travels with the checkpoint ------------------------------------------


def test_both_fixture_sets_predate_the_engine_choosing_panes_for_their_windows():
    """Guard the premise: a fresh default engine runs panes where the files say instances."""
    fixtures = (
        (fixture_scenario, FIXTURE_DIR / "checkpoint-python.json"),
        (v1_scenario, V1_DIR / "checkpoint.json"),
    )
    for build, path in fixtures:
        workload = build()[0]
        assert ReplayRunner(workload).engine_config["mode"] == "panes"
        assert load_checkpoint(path).engine_config["mode"] == "instances"


def test_default_runner_resumes_instance_checkpoints_in_their_recorded_strategy():
    """``panes=None`` adopts the file's mode; the finish equals the uninterrupted run."""
    workload, plan, _ = fixture_scenario()
    runner = ReplayRunner(workload, plan=plan)
    resumed = runner.run(LOG_PATH, resume_from=FIXTURE_DIR / "checkpoint-python.json")
    assert resumed.session.mode == "instances" and resumed.metrics.panes_created == 0
    full = runner.run(LOG_PATH)  # the same runner, fresh: back to the engine's own choice
    assert full.session.mode == "panes" and full.metrics.panes_created > 0
    assert runner.engine_config["mode"] == "panes"  # a resume leaves the runner unchanged
    assert encode_result_lines(resumed.results) == encode_result_lines(full.results)

    v1_resumed = v1_runner()
    report = v1_resumed.run(V1_DIR / "events.jsonl", resume_from=V1_DIR / "checkpoint.json")
    assert report.session.mode == "instances"
    assert report.results.as_dict() == v1_runner().run(V1_DIR / "events.jsonl").results.as_dict()


@pytest.mark.parametrize("panes", [None, True])
def test_parent_pane_checkpoint_restores_and_finishes_equal_to_the_full_run(panes):
    """``checkpoint-panes.json`` was written with ``panes=True`` and per-matrix pane state.

    Same scenario and cadence as the other two files (first checkpoint of
    ``checkpoint_every=45``: pane 0 folded, pane 1 open, nothing emitted yet).
    Its open scopes hold ``"matrices"`` rows, which restore scatters into the
    shared cell table.  Equal results, not an equal state hash: the file's
    ``state_updates`` counted one update per matrix cell, and counters are
    hashed.
    """
    workload, plan, events = fixture_scenario()
    path = FIXTURE_DIR / "checkpoint-panes.json"
    state = load_checkpoint(path).engine_state
    assert state["mode"] == "panes" and state["accumulators"]
    assert all("matrices" in scope for scope in state["open_pane_scopes"])
    resumed = ReplayRunner(workload, plan=plan, panes=panes).run(LOG_PATH, resume_from=path)
    assert 0 < resumed.events_replayed < len(events)
    full = ReplayRunner(workload, plan=plan, panes=True).run(LOG_PATH)
    assert encode_result_lines(resumed.results) == encode_result_lines(full.results)
    assert resumed.metrics.state_updates > full.metrics.state_updates
    oracle = fixture_oracle_results()
    assert resumed.results.matches(oracle), resumed.results.differences(oracle)[:5]


def pane_churn_ops() -> "list[ChurnOp]":
    """The two attaches behind ``checkpoint-panes-churn.json``: COUNT(*) and SUM cells in common."""
    window = SlidingWindow(size=60, slide=30)
    predicates = PredicateSet.same("entity")
    late1 = Query(
        Pattern(("A", "B", "C", "D")), window, AggregateSpec.count_star(), predicates, name="late1"
    )
    late2 = Query(
        Pattern(("A", "C", "D")), window, AggregateSpec.sum("D", "value"), predicates, name="late2"
    )
    return [ChurnOp("attach", at=36, query=late1), ChurnOp("attach", at=38, query=late2)]


def test_parent_checkpoint_after_an_attach_inside_an_open_pane_resumes_to_the_full_log(tmp_path):
    """Disagreeing per-matrix rows scatter into shared cells; the results log does not move."""
    workload, plan, events = fixture_scenario()
    path = FIXTURE_DIR / "checkpoint-panes-churn.json"
    checkpoint = load_checkpoint(path)
    assert checkpoint.last_timestamp == 44 and checkpoint.engine_state["results"]["count"] == 0
    # Guard the fixture: the attached (A, B, C, D) block saw fewer A events than q1's.
    blocks = dict(checkpoint.engine_state["open_pane_scopes"][0]["matrices"])
    assert blocks[0]["cells"][0] == [6] and blocks[7]["cells"][0] == [4]

    def runner() -> ReplayRunner:
        return ReplayRunner(workload, plan=plan, churn=pane_churn_ops())

    full = runner().run(LOG_PATH, checkpoint_every=45, checkpoint_dir=tmp_path / "full")
    resumed = runner().run(
        LOG_PATH, resume_from=path, checkpoint_every=45, checkpoint_dir=tmp_path / "resumed"
    )
    assert 0 < resumed.events_replayed < len(events)
    recorded = (FIXTURE_DIR / "results-panes-churn.jsonl").read_bytes()
    assert b'["late1",[60,120]' in recorded and b'["late1",[30,90]' not in recorded
    assert (tmp_path / "full" / RESULTS_LOG_NAME).read_bytes() == recorded
    assert (tmp_path / "resumed" / RESULTS_LOG_NAME).read_bytes() == recorded
    # The scattered state is this commit's from here on: its next checkpoint resumes exactly.
    again = runner().run(LOG_PATH, resume_from=resumed.checkpoints[0])
    assert again.state_hash == resumed.state_hash


@pytest.mark.parametrize(
    "fixture,panes", [("checkpoint-python.json", True), ("checkpoint-panes.json", False)]
)
def test_an_explicit_strategy_that_contradicts_the_file_is_refused(fixture, panes):
    workload, plan, _ = fixture_scenario()
    recorded, requested = ("instances", "panes") if panes else ("panes", "instances")
    both_modes = f"'mode': '{recorded}'.*'mode': '{requested}'"
    with pytest.raises(CheckpointError, match=both_modes):
        ReplayRunner(workload, plan=plan, panes=panes).run(
            LOG_PATH, resume_from=FIXTURE_DIR / fixture
        )
