"""Smoke test of the benchmark command: tiny logs, every metric, probe degradation."""

from __future__ import annotations

import contextlib
import io
import json
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
if str(BENCH_DIR) not in sys.path:
    sys.path.insert(0, str(BENCH_DIR))

import inputs  # noqa: E402
import probes  # noqa: E402
import run  # noqa: E402

#: 2% of the full run length: logs of a few thousand events.
SMOKE_SECONDS = 0.02 * run.RUN_SECONDS


@pytest.fixture(scope="module")
def smoke(tmp_path_factory):
    """One tiny run of all four workloads, end-to-end and traced, one leg of each kind."""
    out = tmp_path_factory.mktemp("bench") / "report.json"
    captured = io.StringIO()
    with contextlib.redirect_stdout(captured):
        code = run.main(["--seconds", str(SMOKE_SECONDS), "--workers", "1", "--out", str(out)])
    text = captured.getvalue()
    results = [json.loads(line) for line in text.splitlines() if line.startswith("{")]
    return code, text, results, out


def test_every_declared_metric_is_reported_with_its_unit(smoke):
    code, text, results, _out = smoke
    contract = run.load_contract()
    assert code == 0, text
    assert len(results) == len(contract["workloads"]) == len(run.WORKLOADS)
    declared = {m["name"]: m["unit"] for m in contract["end_to_end"] + contract["per_layer"]}
    for result in results:
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
        assert {name: metric["unit"] for name, metric in result["metrics"].items()} == declared
    for name, unit in declared.items():
        assert any(name in line and f" {unit} " in line for line in text.splitlines()), name
    assert [w["name"] for w in contract["workloads"]] == list(run.WORKLOADS)


def test_a_metric_is_null_only_when_its_patch_points_are_missing(smoke):
    _code, _text, results, out = smoke
    contract = run.load_contract()
    report = json.loads(out.read_text())["workloads"]
    targets: dict = {}
    for point in probes.PATCH_POINTS:
        for metric in filter(None, (point.metric, point.first)):
            targets.setdefault(metric, set()).add(point.target)
    always = {m["name"] for m in contract["end_to_end"]}
    always |= {m["name"] for m in contract["per_layer"] if m["unit"] in ("count", "bytes")}
    for result, entry in zip(results, report.values()):
        missing = set(entry["missing_probes"])
        for name, metric in result["metrics"].items():
            if name in targets:
                # A refactor may remove a patch point: then, and only then, null.
                assert (metric["value"] is None) == (targets[name] <= missing), name
            elif name in always:
                assert metric["value"] is not None, name


def test_layers_and_unattributed_time_add_up_to_the_traced_wall(smoke):
    _code, _text, results, out = smoke
    report = json.loads(out.read_text())["workloads"]
    spans = {m for point in probes.PATCH_POINTS for m in (point.metric, point.first) if m}
    # Read from the resume leg, not from the traced leg whose wall this is.
    spans -= {"executor.engine.restore_s", "replay.checkpoint.load_s", "events.log.seek_s"}
    for result, entry in zip(results, report.values()):
        (wall,) = entry["traced_wall_s"]
        values = {name: metric["value"] for name, metric in result["metrics"].items()}
        covered = sum(values[name] or 0.0 for name in spans)
        covered += values["bench.unattributed_frac"] * wall
        assert abs(covered - wall) <= 0.01 * wall, (covered, wall)


def test_legs_that_disagree_on_a_counter_or_a_cell_count_as_failed():
    spec = inputs.WORKLOADS["dense-sharing"]
    generated = inputs.Inputs(spec, 1, 10, 7, None, 0, 0.0, None, None, 0, [], [], {})
    leg = {"digest": "d", "results": 40, "cells": [3, None], "counts": {"total_events": 7, "state_updates": 5}}
    legs = {"closed0": leg, "paced0": dict(leg), "traced0": dict(leg)}
    assert run.check_legs(generated, legs, [3, 0]) == (120, 0, [])
    # The smoke run passes this check with a traced and an untraced leg per
    # workload; here a traced leg that counted differently fails all its results.
    legs["traced0"] = {**leg, "counts": {"total_events": 7, "state_updates": 6}}
    attempted, failed, notes = run.check_legs(generated, legs, [3, 0])
    assert (attempted, failed) == (120, 40) and "traced0" in notes[0]
    legs["traced0"] = {**leg, "cells": [3, 2]}
    assert run.check_legs(generated, legs, [3, 0])[1] == 1
    legs["traced0"] = {"crashed": "boom"}
    assert run.check_legs(generated, legs, [3, 0])[:2] == (120, 40)


@pytest.fixture
def baseline(smoke, tmp_path):
    """The smoke run's ``--out`` report, for ``compare``."""
    _code, _text, _results, out = smoke
    report = json.loads(out.read_text())
    for entry in report["workloads"].values():
        # A 0.3 s paced leg on a busy test host may end behind its schedule.
        entry["sustained"] = [True]
    path = tmp_path / "baseline.json"
    path.write_text(json.dumps(report))
    return path


def test_compare_of_a_report_with_itself_is_all_same(baseline, capsys):
    out = baseline
    assert run.main(["compare", str(out), str(out)]) == 0
    rows = [line for line in capsys.readouterr().out.splitlines() if line.endswith(("same", "worse", "better", "unresolved"))]
    contract = run.load_contract()
    # One row per bounded metric, one for failed_frac, one for the unbounded tail latency.
    assert len(rows) == len(run.WORKLOADS) * (len(contract["end_to_end"]) + 2)
    assert all(row.endswith("unresolved" if "emit_latency_p95_ms" in row else "same") for row in rows)


def test_compare_flags_a_regression_beyond_the_bound(baseline, tmp_path):
    out = baseline
    report = json.loads(out.read_text())
    slower = report["workloads"]["dense-sharing"]["metrics"]["throughput_eps"]
    slower["values"] = [value * 0.5 for value in slower["values"]]
    worse = tmp_path / "worse.json"
    worse.write_text(json.dumps(report))
    assert run.main(["compare", str(out), str(worse)]) == 1


def test_compare_reads_spread_from_the_legs_and_fails_an_unsustained_paced_leg(baseline, tmp_path, capsys):
    out = baseline
    report = json.loads(out.read_text())
    entry = report["workloads"]["low-sharing"]
    value = entry["metrics"]["throughput_eps"]["values"][0]
    # One run whose five workers disagree by more than any bound.
    entry["leg_samples"]["throughput_eps"] = [[value * f for f in (0.5, 0.8, 1.0, 1.2, 1.5)]]
    report["workloads"]["dense-sharing"]["sustained"] = [False]
    changed = tmp_path / "changed.json"
    changed.write_text(json.dumps(report))
    assert run.main(["compare", str(out), str(changed)]) == 1
    rows = {tuple(line.split()[:2]): line.split()[-1] for line in capsys.readouterr().out.splitlines() if line}
    assert rows["low-sharing", "throughput_eps"] == "unresolved"
    assert rows["dense-sharing", "emit_latency_p50_ms"] == "worse"
    assert rows["dense-sharing", "throughput_eps"] == "same"


def test_missing_patch_point_degrades_to_null():
    points = (
        probes.PatchPoint("events.log.decode_s", "repro.events.log", "EventLogReader.no_such_method"),
        probes.PatchPoint("executor.gone_s", "repro.executor.no_such_module", "Thing.method"),
        probes.PatchPoint("replay.checkpoint.save_s", "repro.replay.runner", "save_checkpoint"),
    )
    recorder = probes.install(points)
    try:
        assert recorder.missing == [
            "repro.events.log.EventLogReader.no_such_method",
            "repro.executor.no_such_module.Thing.method",
        ]
        with recorder.root("root"):
            pass
        report = recorder.report(points)
    finally:
        recorder.restore()
    assert report["layers"] == {
        "events.log.decode_s": None,
        "executor.gone_s": None,
        "replay.checkpoint.save_s": 0.0,
    }
    import repro.replay.runner as runner

    assert not hasattr(runner.save_checkpoint, "__wrapped__")
