"""Log-bytes-to-results benchmark of the Sharon reproduction.

    python3 bench/run.py [--workload NAME] [--seed S] [--seconds F] [--trace 0|1]
                         [--runs N] [--workers N] [--out FILE] [--workdir DIR]
    python3 bench/run.py compare OLD.json NEW.json

For each workload the command writes the inputs as files (JSONL event log,
SASE workload file, churn script), runs the program on them in fresh worker
processes (``worker.py``), checks the results, and prints every metric by name
with its unit; the last line of a workload's output is one JSON object
(``correct``/``attempted``/``failed``/``metrics``).  ``--trace 0`` measures the
end-to-end metrics only, ``--trace 1`` the per-layer metrics only, neither
flag measures both.  See ``bench/README.md``.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
from collections import Counter
from itertools import cycle
from math import ceil
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"

import compare as compare_tool
import verify
from inputs import RUN_SECONDS, WORKLOADS, Inputs, generate

DEFAULT_SEED = 20260925
CLOSED_LOOP_WORKERS = 5
#: Open-loop legs per end-to-end run (each is a full pass over the log).
PACED_LEGS = 2
#: Traced legs, and the untraced closed-loop and empty-plan legs they are
#: compared against; the median of each kind is used.
REFERENCE_LEGS = 2
#: A leg that takes longer than this is killed and counted as crashed.
LEG_TIMEOUT_S = 150
#: Interpreter work a closed-loop worker times right before and right after
#: its run (``worker.calibrate``), and the seconds both took together on the
#: host this was built on when it was quiet.  Their ratio is the machine's
#: speed during that leg; it only fixes the scale of ``throughput_eps``.
CALIBRATION_ROUNDS = 800_000
REFERENCE_CALIBRATION_S = 0.45


def load_contract() -> dict:
    """``BENCHMARK.json``: the metric names, units, directions and bounds."""
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def percentile(samples: list, fraction: float) -> float:
    """Nearest-rank percentile of ``samples``."""
    ordered = sorted(samples)
    return ordered[max(0, ceil(fraction * len(ordered)) - 1)]


# ---------------------------------------------------------------------------
# running legs
# ---------------------------------------------------------------------------

def allowed_cpus() -> list:
    """CPUs legs may be pinned to (``[None]`` where affinity is not supported)."""
    if not hasattr(os, "sched_getaffinity"):
        return [None]
    return sorted(os.sched_getaffinity(0))


def run_leg(workdir: Path, tag: str, inputs: Inputs, cells: list, cpu=None, **options) -> dict:
    """Run one worker process (pinned to ``cpu``); a crash returns ``{"crashed": ...}``."""
    spec = inputs.spec
    job = {
        "src": str(SRC),
        "workload": str(inputs.workload_path),
        "log": str(inputs.log_path),
        "churn": str(inputs.churn_path) if inputs.churn_path else None,
        "max_lateness": spec.max_lateness,
        "checkpoint_every": inputs.checkpoint_every,
        "checkpoint_dir": str(workdir / f"checkpoints-{tag}"),
        "resume_from": options.get("resume_from"),
        "plan": options.get("plan", "optimized"),
        "paced_rate_eps": spec.paced_rate_eps if options.get("paced") else 0,
        "within": spec.within,
        "slide": spec.slide,
        "cells": cells,
        "trace": bool(options.get("trace")),
        "calibration_rounds": options.get("calibration_rounds", 0),
        "spans_path": str(workdir / f"spans-{tag}.jsonl") if options.get("trace") else None,
    }
    job_path = workdir / f"job-{tag}.json"
    job_path.write_text(json.dumps(job), encoding="utf-8")
    try:
        done = subprocess.run(
            [sys.executable, str(BENCH_DIR / "worker.py"), str(job_path)],
            capture_output=True,
            text=True,
            timeout=LEG_TIMEOUT_S,
            preexec_fn=None if cpu is None else (lambda: os.sched_setaffinity(0, {cpu})),
            # One hash seed for every leg: set/dict iteration order of type
            # names is part of what a leg executes.
            env={**os.environ, "PYTHONHASHSEED": "0"},
        )
    except subprocess.TimeoutExpired:
        return {"crashed": f"{tag}: no result within {LEG_TIMEOUT_S} s"}
    if done.returncode != 0 or not done.stdout.strip():
        tail = done.stderr.strip().splitlines()[-1:] or ["no output"]
        return {"crashed": f"{tag}: exit {done.returncode}: {tail[0]}"}
    return json.loads(done.stdout.strip().splitlines()[-1])


# ---------------------------------------------------------------------------
# one workload, one seed
# ---------------------------------------------------------------------------

def measure(spec, seed: int, seconds: float, trace, workers: int, workdir: Path) -> dict:
    """Generate inputs, run the legs ``trace`` selects, verify, compute metrics."""
    workdir.mkdir(parents=True, exist_ok=True)
    inputs = generate(spec, seed, seconds, workdir)
    cells, expected = verify.reference_cells(inputs)

    end_to_end = trace in (0, None)
    layers = trace in (1, None)
    reference_legs = min(REFERENCE_LEGS, workers)
    closed_legs = workers if end_to_end else reference_legs
    paced_legs = min(PACED_LEGS, workers) if end_to_end else 1
    # Legs take the CPUs in turn, and paced legs are spread between the
    # closed-loop ones: shared-host noise is per core and lasts seconds to
    # minutes, so legs of one kind should differ in core and be far apart in
    # time for their median to come from a quiet stretch.
    cpus = cycle(allowed_cpus())
    legs: dict = {}

    def leg(tag: str, **options) -> None:
        legs[tag] = run_leg(workdir, tag, inputs, cells, cpu=next(cpus), **options)

    order = [f"closed{index}" for index in range(closed_legs)]
    for index in range(paced_legs):
        order.insert((index + 1) * closed_legs // paced_legs + index, f"paced{index}")
    # Every leg whose wall clock is compared with another leg's is calibrated.
    timed = {"calibration_rounds": CALIBRATION_ROUNDS}
    for tag in order:
        if tag.startswith("paced"):
            leg(tag, paced=True)
        else:
            leg(tag, **timed)
    if layers:
        for index in range(reference_legs):
            leg(f"traced{index}", trace=True, **timed)
            leg(f"empty{index}", plan="empty", **timed)
        written = legs["closed0"].get("checkpoints") or []
        if written:
            leg("resume", trace=True, resume_from=written[len(written) // 2])

    attempted, failed, notes = check_legs(inputs, legs, expected)
    if not any(expected):
        # Zero and absent results are interchangeable, so with no match to
        # find the oracle check would pass an engine that emits nothing.
        failed += 1
        notes.append("no sampled cell has a non-zero reference value")
    result = {
        "workload": spec.name,
        "seed": seed,
        "seconds": seconds,
        "events": inputs.events,
        "units": inputs.units,
        "attempted": attempted,
        "failed": failed,
        "notes": notes,
        "end_to_end": None,
        "paced": None,
        "per_layer": None,
        "traced": None,
        "missing_probes": [],
    }
    if end_to_end:
        result["end_to_end"], result["paced"] = end_to_end_metrics(inputs, legs)
    if layers:
        result["per_layer"], result["traced"] = per_layer_metrics(inputs, legs)
        result["missing_probes"] = (result["traced"] or {}).get("missing_probes", [])
    return result


def check_legs(inputs: Inputs, legs: dict, expected: list) -> tuple:
    """Count emitted results (attempted) and the ones that cannot be trusted (failed)."""
    alive = {tag: leg for tag, leg in legs.items() if "crashed" not in leg}
    digests = Counter(leg["digest"] for leg in alive.values())
    agreed = digests.most_common(1)[0][0] if digests else None
    typical = max((leg["results"] for leg in alive.values()), default=1)
    # Every leg under the optimized plan must repeat every counter exactly.
    counters = Counter(
        json.dumps(leg["counts"], sort_keys=True)
        for tag, leg in alive.items()
        if not tag.startswith("empty")
    )
    usual_counts = json.loads(counters.most_common(1)[0][0]) if counters else None
    attempted = failed = 0
    notes = []
    for tag, leg in legs.items():
        if "crashed" in leg:
            # A crashed run counts all the results it should have emitted.
            attempted += typical
            failed += typical
            notes.append(f"crashed: {leg['crashed']}")
            continue
        attempted += leg["results"]
        bad_cells = verify.mismatched_cells(expected, leg["cells"])
        dropped = leg["counts"].get("events_dropped") or 0
        same_counts = tag.startswith("empty") or leg["counts"] == usual_counts
        if leg["digest"] != agreed or leg["counts"].get("total_events") != inputs.events:
            failed += leg["results"]
            notes.append(f"{tag}: results differ from the other runs")
        elif not same_counts:
            failed += leg["results"]
            notes.append(f"{tag}: counters differ from the other runs")
        elif bad_cells or dropped:
            failed += bad_cells + dropped
            notes.append(f"{tag}: {bad_cells} cells differ from the oracle, {dropped} events dropped")
    return attempted, failed, notes


def legs_named(legs: dict, prefix: str) -> list:
    """The finished (not crashed) legs ``prefix0``, ``prefix1``, ..."""
    return [
        leg
        for tag, leg in legs.items()
        if tag.startswith(prefix) and tag[len(prefix):].isdigit() and "crashed" not in leg
    ]


def machine_speed(leg: dict) -> float:
    """Speed of the host while ``leg`` ran: 1 = the reference, 0.8 = a fifth slower."""
    return REFERENCE_CALIBRATION_S / leg["calibration_s"]


def scaled_run_s(leg: dict) -> float:
    """Seconds ``leg``'s run would have taken on a host at the reference speed."""
    return leg["run_s"] * machine_speed(leg)


def end_to_end_metrics(inputs: Inputs, legs: dict) -> tuple:
    """``(metrics, paced-leg facts)``: each metric is a median, with every leg's value as ``samples``.

    The closed-loop metrics are the median over the worker processes; the
    emit latency is the median over the window closings of all paced legs.
    A worker's wall clock is scaled by the machine's speed during its run: a
    shared host drifts by 10% and more over minutes, which no median inside a
    run can remove.
    """
    closed = legs_named(legs, "closed")
    paced = [leg for leg in legs_named(legs, "paced") if leg["latencies_ms"]]
    if not closed or not paced:
        return {}, None
    workers = f"{len(closed)} closed-loop workers"
    latencies = [ms for leg in paced for ms in leg["latencies_ms"]]
    samples = {
        "setup_s": ([leg["setup_s"] for leg in closed], workers),
        "throughput_eps": (
            [inputs.events / scaled_run_s(leg) for leg in closed],
            workers,
        ),
        "peak_rss_mb": ([leg["rss_mb"] for leg in closed], workers),
    }
    metrics = {
        name: {"value": statistics.median(values), "samples": values, "of": of}
        for name, (values, of) in samples.items()
    }
    metrics["emit_latency_p50_ms"] = {
        "value": percentile(latencies, 0.50),
        "samples": [percentile(leg["latencies_ms"], 0.50) for leg in paced],
        "of": f"{len(latencies)} window closings in {len(paced)} paced legs",
    }
    return metrics, {
        "rate_eps": inputs.spec.paced_rate_eps,
        "sustained": all(leg["sustained"] for leg in paced),
        "backlog_max_ms": max(leg["backlog_max_ms"] for leg in paced),
        "windows": len(latencies),
        "raw_eps": statistics.median(inputs.events / leg["run_s"] for leg in closed),
        "machine_speed": statistics.median(machine_speed(leg) for leg in closed),
        # No bound holds for the tail on this host (see README), so it is
        # reported next to the bounded metrics and never gates a change.
        "emit_latency_p95_ms": percentile(latencies, 0.95),
    }


def per_layer_metrics(inputs: Inputs, legs: dict) -> tuple:
    """``(metrics, traced-leg facts)``: medians over the traced legs and the legs they are compared to."""
    closed, empty, paced, traced = (
        legs_named(legs, prefix) for prefix in ("closed", "empty", "paced", "traced")
    )
    resume = legs.get("resume")
    if not (closed and empty and paced and traced) or "crashed" in (resume or {}):
        return {}, None

    def median(group: list, read):
        """Median over ``group`` of ``read(leg)``; None when a leg has no value."""
        values = [read(leg) for leg in group]
        return None if None in values else statistics.median(values)

    closed_s = median(closed, scaled_run_s)
    wall = median(traced, lambda leg: leg["trace"]["root_s"])
    latencies = [ms for leg in paced for ms in leg["latencies_ms"]]
    # Counters repeat exactly between legs (``check_legs``); read the first.
    first = traced[0]
    counts = first["counts"]
    missing = list(first["trace"]["missing_probes"])

    metrics = {
        name: median(traced, lambda leg, name=name: leg["trace"]["layers"].get(name))
        for name in first["trace"]["layers"]
    }
    for name, field in (
        ("bench.import_s", "import_s"),
        ("queries.parser.parse_s", "parse_s"),
        ("utils.rates.sample_s", "sample_s"),
        ("core.optimizer.optimize_s", "optimize_s"),
        ("executor.engine.compile_s", "compile_s"),
    ):
        metrics[name] = median(traced, lambda leg, field=field: leg[field])
    metrics.update(
        {
            "core.optimizer.candidates": first["candidates"],
            "core.optimizer.plans_considered": first["plans_considered"],
            "core.optimizer.plan_score": first["plan_score"],
            "core.optimizer.state_updates_saved_frac": 1.0
            - counts["state_updates"] / max(empty[0]["counts"]["state_updates"], 1),
            "core.optimizer.speedup_vs_unshared": median(empty, scaled_run_s) / closed_s,
            "events.log.write_eps": inputs.events / inputs.log_write_s,
            "events.log.bytes": inputs.log_bytes,
            "events.disorder.events_late": counts["events_late"],
            "events.disorder.events_dropped": counts["events_dropped"],
            "events.columnar.batches": counts["columnar_batches"],
            "executor.engine.relevant_frac": (
                None
                if counts["relevant_events"] is None
                else counts["relevant_events"] / counts["total_events"]
            ),
            "executor.engine.windows_finalized": counts["windows_finalized"],
            "executor.engine.results_emitted": counts["results_emitted"],
            "executor.prefix_agg.state_updates": counts["state_updates"],
            "executor.prefix_agg.cohorts_created": counts["cohorts_created"],
            "executor.prefix_agg.cohorts_merged": counts["cohorts_merged"],
            "executor.panes.panes_created": counts["panes_created"],
            "executor.panes.pane_merges": counts["pane_merges"],
            "executor.churn.ops": first["churn_ops"],
            "replay.checkpoint.count": len(first["checkpoints"]),
            "replay.checkpoint.bytes": first["checkpoint_bytes"],
            "replay.runner.resume_s": 0.0,
            "bench.raw_throughput_eps": inputs.events / median(closed, lambda leg: leg["run_s"]),
            "bench.machine_speed": median(closed, machine_speed),
            "bench.trace_overhead_frac": median(traced, scaled_run_s) / closed_s - 1.0,
            "bench.unattributed_frac": median(
                traced, lambda leg: leg["trace"]["unattributed_s"] / leg["trace"]["root_s"]
            ),
            "bench.emit_latency_p95_ms": percentile(latencies, 0.95) if latencies else None,
            "bench.backlog_max_ms": max(leg["backlog_max_ms"] for leg in paced),
            "bench.paced_sustained": int(all(leg["sustained"] for leg in paced)),
        }
    )
    if resume is not None:
        # What only a resumed run does is read from the resume leg.
        layers = resume["trace"]["layers"]
        for name in ("executor.engine.restore_s", "replay.checkpoint.load_s", "events.log.seek_s"):
            metrics[name] = layers.get(name)
        metrics["replay.runner.resume_s"] = resume["resume_s"]
        missing += [m for m in resume["trace"]["missing_probes"] if m not in missing]
    return metrics, {
        "wall_s": wall,
        "spans": sorted(first["trace"]["layers"]),
        "missing_probes": missing,
    }


# ---------------------------------------------------------------------------
# reporting
# ---------------------------------------------------------------------------

def print_result(result: dict, contract: dict) -> dict:
    """Print one workload's metrics by name with units; returns the JSON line object."""
    spec = WORKLOADS[result["workload"]]
    print(
        f"== {spec.name}  seed={result['seed']} seconds={result['seconds']:g} "
        f"events={result['events']} units={result['units']}"
    )
    metrics = {}
    complete = True
    end_to_end = result["end_to_end"]
    if end_to_end is not None:
        paced = result["paced"]
        if paced:
            print(
                f"end-to-end: closed loop, 1 client, {paced['raw_eps']:.6g} events/s of wall clock "
                f"at machine speed {paced['machine_speed']:.3f}; "
                f"open loop at {paced['rate_eps']} events/s "
                f"(sustained={str(paced['sustained']).lower()}, "
                f"max source lateness {paced['backlog_max_ms']:.1f} ms)"
            )
        for declared in contract["end_to_end"]:
            name, unit = declared["name"], declared["unit"]
            entry = end_to_end.get(name)
            if entry is None:
                complete = False
                print(f"  {name:<44} missing")
                continue
            value = entry["value"]
            metrics[name] = {"value": value, "unit": unit}
            q1, _median, q3 = compare_tool.quartiles(entry["samples"])
            print(
                f"  {name:<44} {value:>14.6g} {unit:<9} median of {entry['of']}; "
                f"quartiles of the legs {q1:.6g} .. {q3:.6g}"
            )
        if paced:
            print(
                f"  {compare_tool.UNBOUNDED:<44} {paced[compare_tool.UNBOUNDED]:>14.6g} {'ms':<9} "
                f"same window closings; no bound, see README"
            )
    per_layer = result["per_layer"]
    if per_layer is not None:
        traced = result["traced"] or {"wall_s": 0.0, "spans": []}
        wall = traced["wall_s"]
        print(f"per-layer: traced run, wall {wall:.4f} s")
        for declared in contract["per_layer"]:
            name, unit = declared["name"], declared["unit"]
            if name not in per_layer:
                complete = False
                print(f"  {name:<44} missing")
                continue
            value = per_layer[name]
            metrics[name] = {"value": value, "unit": unit}
            shown = "null" if value is None else f"{value:.6g}"
            share = ""
            if value is not None and wall and name in traced["spans"]:
                share = f"{100.0 * value / wall:5.1f}% of traced wall"
            print(f"  {name:<44} {shown:>14} {unit:<9} {share}")
        if result["missing_probes"]:
            print(f"  missing_probes: {', '.join(result['missing_probes'])}")
    failed_frac = result["failed"] / max(result["attempted"], 1)
    print(f"  {'failed_frac':<44} {failed_frac:>14.6g} {'ratio':<9} "
          f"{result['failed']} of {result['attempted']} emitted results")
    for note in result["notes"]:
        print(f"  ! {note}")
    return {
        "correct": result["failed"] == 0 and complete,
        "attempted": max(result["attempted"], 1),
        "failed": result["failed"],
        "metrics": metrics,
    }


def add_to_report(report: dict, result: dict, line: dict) -> None:
    """Append one run's values to the ``--out`` report (one list per metric)."""
    entry = report["workloads"].setdefault(
        result["workload"],
        {"seeds": [], "attempted": [], "failed": [], "sustained": [], "traced_wall_s": [],
         "metrics": {}, "leg_samples": {}, "missing_probes": []},
    )
    entry["seeds"].append(result["seed"])
    entry["attempted"].append(line["attempted"])
    entry["failed"].append(line["failed"])
    entry["missing_probes"] = sorted(set(entry["missing_probes"]) | set(result["missing_probes"]))
    for name, metric in line["metrics"].items():
        slot = entry["metrics"].setdefault(name, {"unit": metric["unit"], "values": []})
        slot["values"].append(metric["value"])
    # Every leg's own value, so the spread inside a run stays on record.
    for name, measured in (result["end_to_end"] or {}).items():
        entry["leg_samples"].setdefault(name, []).append(measured["samples"])
    if result["traced"]:
        entry["traced_wall_s"].append(result["traced"]["wall_s"])
    if result["paced"]:
        entry["sustained"].append(result["paced"]["sustained"])
        tail = entry["metrics"].setdefault(compare_tool.UNBOUNDED, {"unit": "ms", "values": []})
        tail["values"].append(result["paced"][compare_tool.UNBOUNDED])


def main(argv: "list | None" = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv and argv[0] == "compare":
        return compare_tool.main(argv[1:], load_contract())

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), help="default: all four")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=float(RUN_SECONDS),
                        help=f"measuring time per run; scales the log length (default {RUN_SECONDS})")
    parser.add_argument("--trace", type=int, choices=(0, 1),
                        help="0: end-to-end metrics only; 1: per-layer metrics only; default both")
    parser.add_argument("--runs", type=int, default=1,
                        help="repeat every workload this often on the same seed (for --out/compare)")
    parser.add_argument("--workers", type=int, default=CLOSED_LOOP_WORKERS,
                        help="closed-loop worker processes per run (also caps the repeats "
                        "of the other leg kinds; 1 = one leg of each)")
    parser.add_argument("--out", help="write every run's metric values to this JSON file")
    parser.add_argument("--workdir", help="keep generated inputs, checkpoints and spans here")
    args = parser.parse_args(argv)

    if not (SRC / "repro").is_dir():
        print(f"error: the program's sources are not at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    contract = load_contract()

    scratch = ROOT / ".bench_work"
    if args.workdir:
        workdir = Path(args.workdir)
        workdir.mkdir(parents=True, exist_ok=True)
    else:
        # Inside the checkout (and git-ignored): the benchmark writes nowhere else.
        scratch.mkdir(exist_ok=True)
        workdir = Path(tempfile.mkdtemp(dir=scratch))

    names = [args.workload] if args.workload else list(WORKLOADS)
    report = {"seconds": args.seconds, "workers": args.workers, "workloads": {}}
    all_correct = True
    try:
        for run_index in range(args.runs):
            for name in names:
                run_dir = workdir / f"{name}-{run_index}"
                try:
                    result = measure(
                        WORKLOADS[name], args.seed, args.seconds, args.trace, args.workers, run_dir
                    )
                finally:
                    if not args.workdir:
                        shutil.rmtree(run_dir, ignore_errors=True)
                line = print_result(result, contract)
                add_to_report(report, result, line)
                all_correct = all_correct and line["correct"]
                print(json.dumps(line))
    finally:
        if not args.workdir:
            shutil.rmtree(workdir, ignore_errors=True)
            with contextlib.suppress(OSError):  # still in use by a concurrent run
                scratch.rmdir()
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
    return 0 if all_correct else 1


if __name__ == "__main__":
    sys.exit(main())
