"""Engine throughput: linear stream scaling and the Fig. 13 sharing win.

This is the asymptotics safety net of the shared online engine
(:mod:`repro.executor.engine`): it runs the canonical benchmark of
:mod:`repro.experiments.bench` and asserts

1. **Sub-quadratic stream scaling.**  Scaling the stream 1× → 16× multiplies
   the events per window by 16; a quadratic per-window engine (per-anchor
   state rescanned on every extension and carry read) loses ~16× of its
   events/sec, while the incremental anchored engine must stay within a small
   constant factor.
2. **Sharing beats non-sharing.**  On the dense Fig. 13 scenario the Sharon
   executor must reach at least A-Seq's throughput — the paper's headline
   claim, and the reason the shared engine exists.
3. **Panes beat per-instance fan-out.**  On the small-slide scenario
   (overlap factor 20) the pane-partitioned mode must reach at least 2x the
   per-instance throughput while producing bit-identical results — the
   pane refactor's reason to exist.
4. **Columnar routing beats per-event routing.**  On the routing-bound
   scenario (many event types × groups × selective predicates) the columnar
   micro-batch path must reach at least 2x the scalar per-event throughput
   while producing bit-identical results — the columnar ingestion
   pipeline's reason to exist.
5. **Group sharding beats one process, given cores.**  On the many-group
   scenario the group-sharded engine (4 worker processes) must reach at
   least 1.5x the in-process throughput while producing bit-identical
   results.  Unlike every other gate this one is about *parallelism*, not
   reduced work, so the speedup assertion only runs on machines with at
   least 4 CPUs (e.g. CI runners); the zero-divergence check and the shard
   plan shape are enforced everywhere.  The *tracked* ``BENCH_engine.json``
   is additionally gated on its own recorded ``cpu_count``: a sub-1.5x
   sharded ratio is acceptable in the tracked artifact only when the record
   itself says it was measured on fewer than 4 CPUs.
6. **Replay is deterministic and affordable.**  Recording the dense stream
   to a durable event log and replaying it through ``ReplayRunner`` must
   reach the same final state hash every time, produce results identical to
   the live in-memory run, and keep a usable fraction of live throughput
   (the log adds JSON decode work, not engine work).
7. **Disorder tolerance is affordable and correct.**  Routing the dense
   in-order stream through the bounded-lateness reorder buffer
   (``docs/disorder.md``) must cost at most 1.5x wall clock vs no buffer,
   and a bounded-disorder arrival order must reproduce the sorted run's
   results exactly with zero late events.

``python -m repro bench`` / ``make bench`` runs the same scenarios and
writes the machine-readable ``BENCH_engine.json`` performance trajectory.
"""

from __future__ import annotations

import os

import pytest

from pathlib import Path

from repro.experiments import (
    SCALE_FACTORS,
    SHARD_BENCH_SHARDS,
    long_window_scenario,
    run_compaction_benchmark,
    run_disorder_benchmark,
    run_engine_benchmark,
    run_pane_benchmark,
    run_replay_benchmark,
    run_routing_benchmark,
    run_sharding_benchmark,
    write_bench_json,
)

#: Maximum tolerated events/sec degradation from 1× to 16× stream scale.
#: A quadratic engine degrades by ~the scale factor (16); the linear engine
#: typically stays within ~1.5×.  4 leaves headroom for CI jitter while still
#: failing any reintroduced per-anchor scan.
MAX_SLOWDOWN_AT_16X = 4.0

#: Sharon may not fall below this fraction of A-Seq on the dense scenario.
MIN_SHARING_ADVANTAGE = 1.0

#: Compaction-on throughput may not fall below this fraction of compaction-off
#: on the long-window scenario (it is typically well *above* 1: fewer cohorts
#: mean less column work per event; 0.9 leaves headroom for CI jitter).
MIN_COMPACTION_THROUGHPUT_RATIO = 0.9

#: Pane partitioning must reach at least this multiple of the panes-off
#: throughput on the small-slide scenario (overlap factor 20; the pane engine
#: typically lands ~6-9x, so 2x leaves ample headroom for CI jitter while
#: still failing any reintroduced per-instance fan-out).
MIN_PANE_SPEEDUP = 2.0

#: Columnar micro-batch ingestion must reach at least this multiple of the
#: scalar per-event throughput on the routing-bound scenario (many event
#: types × groups × selective predicates; the columnar path typically lands
#: ~4-6x there, so 2x leaves ample headroom for CI jitter while still
#: failing any reintroduced per-event routing work).
MIN_COLUMNAR_SPEEDUP = 2.0

#: Group-sharded fan-out must reach at least this multiple of the in-process
#: throughput on the many-group scenario — when the machine has the cores to
#: deliver it (4 shards on >= 4 CPUs typically land ~2.5-3x; 1.5x leaves
#: headroom for slicing/IPC overhead and CI jitter).
MIN_SHARD_SPEEDUP = 1.5

#: The sharded speedup is pure parallelism, so the assertion is meaningless
#: below this CPU count (a 1-core machine *cannot* run shards concurrently;
#: there the gate still enforces zero divergence and the shard-plan shape).
MIN_SHARD_CPUS = SHARD_BENCH_SHARDS

#: Replaying the durable event log must keep at least this fraction of the
#: live in-memory throughput on the dense scenario.  Replay adds JSON
#: decoding per event but no engine work, so it typically lands ~0.6-0.9x;
#: 0.2 leaves ample headroom while still failing a replay path that
#: re-processes events or copies state per batch.
MIN_REPLAY_THROUGHPUT_RATIO = 0.2

#: Routing an already-sorted stream through the reorder buffer may cost at
#: most this factor of the no-buffer wall clock on the dense scenario (the
#: buffer adds a dict/heap hop per event; it typically lands ~1.05-1.15x,
#: so 1.5x leaves headroom for CI jitter while still failing a buffer that
#: re-sorts or copies batches per event).
MAX_REORDER_OVERHEAD = 1.5

#: The tracked performance-trajectory artifact at the repo root.
TRACKED_BENCH_PATH = Path(__file__).resolve().parent.parent / "BENCH_engine.json"


@pytest.fixture(scope="module")
def bench_records():
    # The tracked BENCH_engine.json artifact is refreshed explicitly via
    # `python -m repro bench` / `make bench`; the test run itself stays
    # side-effect free (test_bench_json_schema writes to tmp_path).
    return run_engine_benchmark()


def _events_per_sec(records, scenario: str, executor: str) -> float:
    for record in records:
        if record.scenario == scenario and record.executor == executor:
            return record.events_per_sec
    raise AssertionError(f"missing benchmark record for {scenario}/{executor}")


def test_scale_factors_cover_1x_to_16x():
    assert SCALE_FACTORS[0] == 1 and SCALE_FACTORS[-1] == 16


@pytest.mark.parametrize("executor", ["Sharon", "A-Seq"])
def test_throughput_scales_subquadratically(bench_records, executor):
    base = _events_per_sec(bench_records, "scale-1x", executor)
    scaled = _events_per_sec(bench_records, "scale-16x", executor)
    slowdown = base / scaled if scaled > 0 else float("inf")
    assert slowdown <= MAX_SLOWDOWN_AT_16X, (
        f"{executor} events/sec degraded {slowdown:.1f}x from 1x to 16x stream scale "
        f"({base:,.0f} -> {scaled:,.0f} ev/s): the engine is super-linear in the "
        "events per window again"
    )


def test_sharon_beats_aseq_on_dense_scenario(bench_records):
    sharon = _events_per_sec(bench_records, "fig13-dense", "Sharon")
    aseq = _events_per_sec(bench_records, "fig13-dense", "A-Seq")
    assert sharon >= aseq * MIN_SHARING_ADVANTAGE, (
        f"Sharon ({sharon:,.0f} ev/s) slower than A-Seq ({aseq:,.0f} ev/s) on the "
        "dense Fig. 13 scenario - shared online aggregation lost its advantage"
    )


@pytest.fixture(scope="module")
def compaction_record():
    return run_compaction_benchmark()


def test_compaction_keeps_one_cohort_per_scope(compaction_record):
    """Every long-window query starts with the shared pattern: nothing to combine.

    No runner holds a carry, so each START batch after a scope's first is
    coalesced and ``created - merged`` is exactly the number of window
    instances (ungrouped workload: one scope per instance, each sees an A).
    """
    workload, stream, _plan = long_window_scenario()
    window = workload[0].window
    covering = [window.instances_containing(t) for t in sorted({e.timestamp for e in stream})]
    # One START batch per timestamp per covering instance ...
    assert compaction_record.cohorts_created == sum(len(instances) for instances in covering)
    # ... of which only each instance's first opens a cohort.
    assert compaction_record.cohorts_remaining == len(
        {instance for instances in covering for instance in instances}
    )
    assert (
        compaction_record.cohorts_created - compaction_record.cohorts_merged
        == compaction_record.cohorts_remaining
    )


def test_compaction_does_not_regress_throughput(compaction_record):
    on = compaction_record.compaction_on_events_per_sec
    off = compaction_record.compaction_off_events_per_sec
    assert on >= off * MIN_COMPACTION_THROUGHPUT_RATIO, (
        f"compaction-on throughput ({on:,.0f} ev/s) fell below "
        f"{MIN_COMPACTION_THROUGHPUT_RATIO:.0%} of compaction-off ({off:,.0f} ev/s) "
        "on the long-window scenario - compaction is costing more than it saves"
    )


@pytest.fixture(scope="module")
def pane_record():
    return run_pane_benchmark()


def test_pane_sharing_speedup(pane_record):
    """Panes on must beat panes off by ≥2x on the small-slide scenario.

    ``run_pane_benchmark`` already refuses to produce a record when the two
    modes disagree on any result, so a passing gate certifies both the
    speedup and zero divergence.
    """
    on = pane_record.panes_on_events_per_sec
    off = pane_record.panes_off_events_per_sec
    assert on >= off * MIN_PANE_SPEEDUP, (
        f"pane-partitioned throughput ({on:,.0f} ev/s) below "
        f"{MIN_PANE_SPEEDUP:.0f}x of per-instance throughput ({off:,.0f} ev/s) "
        "on the small-slide scenario - the pane layer lost its advantage"
    )


def test_pane_sharing_exercises_panes(pane_record):
    """The record must prove pane mode actually ran (counters non-trivial)."""
    assert pane_record.panes_created > 0
    assert pane_record.events_per_pane > 0
    # Every pane × group scope is folded once into each covering window it
    # overlaps, so fold counts must dominate scope counts under overlap
    # (panes_per_window = 20 here; groups dilute the per-scope fold count,
    # but a silent per-instance fallback would record zero folds).
    assert pane_record.pane_merges >= pane_record.panes_created


@pytest.fixture(scope="module")
def routing_record():
    return run_routing_benchmark()


def test_columnar_routing_speedup(routing_record):
    """Columnar on must beat columnar off by ≥2x on the routing-bound scenario.

    ``run_routing_benchmark`` already refuses to produce a record when the
    two modes disagree on any result, so a passing gate certifies both the
    speedup and zero divergence.
    """
    on = routing_record.columnar_on_events_per_sec
    off = routing_record.columnar_off_events_per_sec
    assert on >= off * MIN_COLUMNAR_SPEEDUP, (
        f"columnar-routing throughput ({on:,.0f} ev/s) below "
        f"{MIN_COLUMNAR_SPEEDUP:.0f}x of the scalar per-event throughput "
        f"({off:,.0f} ev/s) on the routing-bound scenario - the columnar "
        "micro-batch path lost its advantage"
    )


def test_columnar_routing_is_routing_bound(routing_record):
    """The record must prove the scenario shape and that columnar mode ran."""
    assert routing_record.columnar_batches > 0
    # Routing-bound by construction: almost every event is dropped by type
    # dispatch or the selective predicate before reaching any scope.
    assert routing_record.relevant_fraction < 0.05
    assert routing_record.event_types > routing_record.pattern_event_types * 4
    assert routing_record.groups > 1


@pytest.fixture(scope="module")
def sharding_record():
    # run_sharding_benchmark raises on any sharded-vs-unsharded result
    # divergence, so every test below certifies zero divergence implicitly.
    return run_sharding_benchmark()


def test_sharded_groups_speedup(sharding_record):
    """4-shard fan-out must beat the in-process engine by ≥1.5x, given cores.

    The sharded win is wall-clock parallelism across real CPUs — on fewer
    than ``MIN_SHARD_CPUS`` cores the workers time-slice one core and the
    ratio necessarily lands near or below 1x, so there the assertion is
    skipped (the record is still produced, still divergence-checked, and
    still schema-gated below).
    """
    cpus = os.cpu_count() or 1
    if cpus < MIN_SHARD_CPUS:
        pytest.skip(
            f"sharded speedup needs >= {MIN_SHARD_CPUS} CPUs to be "
            f"observable; this machine has {cpus}"
        )
    sharded = sharding_record.sharded_events_per_sec
    unsharded = sharding_record.unsharded_events_per_sec
    assert sharded >= unsharded * MIN_SHARD_SPEEDUP, (
        f"group-sharded throughput ({sharded:,.0f} ev/s at "
        f"{sharding_record.shards} shards) below {MIN_SHARD_SPEEDUP}x of the "
        f"in-process throughput ({unsharded:,.0f} ev/s) on the many-group "
        "scenario - the sharding layer lost its advantage"
    )


def test_sharded_groups_plan_shape(sharding_record):
    """The record must prove real fan-out over a balanced many-group plan."""
    assert sharding_record.shards == SHARD_BENCH_SHARDS
    assert len(sharding_record.groups_per_shard) == SHARD_BENCH_SHARDS
    # Every shard must carry real work: an empty shard means the scenario is
    # not the many-group regime the section claims to measure.
    assert all(groups > 0 for groups in sharding_record.groups_per_shard)
    assert sharding_record.groups >= SHARD_BENCH_SHARDS * 4
    # The greedy planner must keep the heaviest shard near the ideal load.
    assert 1.0 <= sharding_record.shard_skew <= 1.25
    assert sharding_record.cpu_count >= 1


def test_tracked_sharded_record_is_cpu_contextualized():
    """The tracked artifact may only record a sub-gate sharded ratio on a
    machine that could not have done better.

    A ``sharded_groups`` record whose speedup is below ``MIN_SHARD_SPEEDUP``
    is legitimate *only* when its own ``cpu_count`` field shows the
    measurement was taken on fewer than ``MIN_SHARD_CPUS`` cores — a 1-CPU
    box time-slices the 4 workers and typically lands ~0.8x, which is the
    slicing/IPC overhead, not a sharding regression (``docs/benchmarks.md``
    explains the field).  On a machine with real cores, a slow tracked
    record means the artifact must be re-recorded or the regression fixed.
    """
    if not TRACKED_BENCH_PATH.is_file():
        pytest.skip(f"no tracked benchmark artifact at {TRACKED_BENCH_PATH}")
    import json

    payload = json.loads(TRACKED_BENCH_PATH.read_text(encoding="utf-8"))
    section = payload.get("sharded_groups")
    if section is None:
        pytest.skip("tracked artifact predates the sharded_groups section")
    assert "cpu_count" in section, (
        "the tracked sharded_groups record must carry the cpu_count it was "
        "measured on; re-record with `python -m repro bench`"
    )
    speedup = section["sharded_events_per_sec"] / max(section["unsharded_events_per_sec"], 1e-9)
    if section["cpu_count"] >= MIN_SHARD_CPUS:
        assert speedup >= MIN_SHARD_SPEEDUP, (
            f"tracked sharded_groups record shows {speedup:.2f}x on "
            f"{section['cpu_count']} CPUs - re-record the artifact or fix "
            "the sharding regression"
        )


def test_tracked_artifact_holds_exactly_the_harness_sections():
    """The tracked artifact is one full recording of the current harness.

    It is re-recorded whole whenever the harness changes, so it must hold
    every section ``python -m repro bench`` writes and no section the
    harness no longer has.
    """
    if not TRACKED_BENCH_PATH.is_file():
        pytest.skip(f"no tracked benchmark artifact at {TRACKED_BENCH_PATH}")
    import json

    from repro.cli import BENCH_SECTION_NAMES

    payload = json.loads(TRACKED_BENCH_PATH.read_text(encoding="utf-8"))
    json_keys = {"engine": "results", "compaction": "cohort_compaction"}
    expected = {"benchmark", "python"} | {json_keys.get(name, name) for name in BENCH_SECTION_NAMES}
    assert set(payload) == expected, (
        "the tracked artifact's sections differ from the harness's; re-record "
        "the whole file with `make bench`"
    )


@pytest.fixture(scope="module")
def replay_record():
    return run_replay_benchmark()


def test_replay_reaches_identical_state(replay_record):
    """Every replay of the same log must reach the same final state hash."""
    assert replay_record.replays >= 2
    assert replay_record.replays_identical, (
        f"{replay_record.replays} replays of the same event log reached "
        "different final state hashes - replay determinism is broken "
        "(use `repro replay --trace` on two runs and first_divergence to "
        "localise the offending batch)"
    )
    assert len(replay_record.state_hash) == 64


def test_replay_matches_live_run(replay_record):
    """Replaying the log must produce the live in-memory run's results."""
    assert replay_record.matches_live, (
        "replayed results diverge from the live run on the dense scenario - "
        "the event-log codec or the replay ingestion path drops or reorders "
        "events"
    )


def test_replay_throughput(replay_record):
    """Replay must keep a usable fraction of live throughput."""
    replay = replay_record.replay_events_per_sec
    live = replay_record.live_events_per_sec
    assert replay >= live * MIN_REPLAY_THROUGHPUT_RATIO, (
        f"replay throughput ({replay:,.0f} ev/s) below "
        f"{MIN_REPLAY_THROUGHPUT_RATIO:.0%} of live ({live:,.0f} ev/s) - the "
        "replay path is doing more than decode-and-feed"
    )
    assert replay_record.log_bytes > 0
    assert replay_record.record_events_per_sec > 0


@pytest.fixture(scope="module")
def disorder_record():
    # run_disorder_benchmark raises when buffering an in-order stream changes
    # any result, so every test below certifies that invariant implicitly.
    return run_disorder_benchmark()


def test_reorder_buffer_overhead_is_bounded(disorder_record):
    """The buffer may cost at most 1.5x on an already-sorted stream."""
    assert disorder_record.reorder_overhead <= MAX_REORDER_OVERHEAD, (
        f"reorder buffer costs {disorder_record.reorder_overhead:.2f}x wall "
        f"clock on the in-order dense scenario (limit "
        f"{MAX_REORDER_OVERHEAD}x) - the watermark path is doing more than "
        "a dict/heap hop per event"
    )
    assert disorder_record.inorder_events_per_sec > 0
    assert disorder_record.reordered_shuffled_events_per_sec > 0


def test_disordered_arrivals_reproduce_sorted_results(disorder_record):
    """A ≤L arrival order must match the sorted run with zero late events."""
    assert disorder_record.shuffled_matches_sorted, (
        "the bounded-disorder run's results diverge from the sorted run on "
        "the dense scenario - the reorder buffer is releasing batches in the "
        "wrong order or dropping in-bound events"
    )
    assert disorder_record.events_late == 0
    assert disorder_record.events_dropped == 0
    assert disorder_record.max_lateness > 0


def test_records_expose_sample_spread(bench_records):
    """Best-of-N records must carry the median so noise stays visible."""
    for record in bench_records:
        assert record.samples >= 2
        assert record.elapsed_median_seconds >= record.elapsed_seconds


def test_bench_json_schema(
    bench_records,
    compaction_record,
    pane_record,
    routing_record,
    sharding_record,
    replay_record,
    disorder_record,
    tmp_path,
):
    import json

    target = write_bench_json(
        bench_records,
        tmp_path / "BENCH_engine.json",
        compaction=compaction_record,
        pane_sharing=pane_record,
        columnar_routing=routing_record,
        sharded_groups=sharding_record,
        replay=replay_record,
        disorder=disorder_record,
    )
    payload = json.loads(target.read_text(encoding="utf-8"))
    assert payload["benchmark"] == "engine-throughput"
    assert len(payload["results"]) == len(bench_records)
    for row in payload["results"]:
        assert {
            "scenario",
            "executor",
            "events_per_sec",
            "peak_mb",
            "elapsed_median_seconds",
            "samples",
        } <= set(row)
    section = payload["cohort_compaction"]
    assert section["scenario"] == "long-window"
    assert section["cohorts_created"] - section["cohorts_merged"] == section["cohorts_remaining"]
    assert 0 < section["cohorts_remaining"] < section["cohorts_merged"]
    assert {
        "cohorts_created",
        "cohorts_remaining",
        "compaction_on_events_per_sec",
        "compaction_off_events_per_sec",
    } <= set(section)
    pane_section = payload["pane_sharing"]
    assert pane_section["scenario"] == "small-slide"
    assert pane_section["panes_created"] > 0
    assert {
        "window_size",
        "window_slide",
        "pane_width",
        "panes_per_window",
        "pane_merges",
        "events_per_pane",
        "panes_on_events_per_sec",
        "panes_off_events_per_sec",
    } <= set(pane_section)
    routing_section = payload["columnar_routing"]
    assert routing_section["scenario"] == "columnar-routing"
    assert routing_section["columnar_batches"] > 0
    assert {
        "event_types",
        "pattern_event_types",
        "groups",
        "relevant_fraction",
        "columnar_on_events_per_sec",
        "columnar_off_events_per_sec",
        "samples",
    } <= set(routing_section)
    sharded_section = payload["sharded_groups"]
    assert sharded_section["scenario"] == "many-group"
    assert sharded_section["shards"] == SHARD_BENCH_SHARDS
    assert len(sharded_section["groups_per_shard"]) == SHARD_BENCH_SHARDS
    assert {
        "events",
        "groups",
        "strategy",
        "cpu_count",
        "shard_skew",
        "sharded_events_per_sec",
        "unsharded_events_per_sec",
        "samples",
    } <= set(sharded_section)
    replay_section = payload["replay"]
    assert replay_section["scenario"] == "dense-sharing-replay"
    assert replay_section["replays_identical"] is True
    assert replay_section["matches_live"] is True
    assert {
        "events",
        "log_bytes",
        "record_events_per_sec",
        "replay_events_per_sec",
        "live_events_per_sec",
        "state_hash",
        "replays",
        "samples",
    } <= set(replay_section)
    disorder_section = payload["disorder"]
    assert disorder_section["scenario"] == "dense-sharing-disorder"
    assert disorder_section["shuffled_matches_sorted"] is True
    assert disorder_section["events_late"] == 0
    assert {
        "events",
        "max_lateness",
        "inorder_events_per_sec",
        "reordered_inorder_events_per_sec",
        "reordered_shuffled_events_per_sec",
        "reorder_overhead",
        "events_dropped",
        "samples",
    } <= set(disorder_section)
