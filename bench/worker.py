"""One benchmark leg in a fresh process: set up the program, run a log, report.

Usage: ``python3 bench/worker.py JOB.json`` — prints one JSON object.

This is the end-to-end path, so it touches the program only through its
narrowest user-facing surface (workload file -> rate sample -> optimizer ->
``ReplayRunner.run``) and passes no engine switch beyond what the workload
itself needs (``max_lateness``, ``churn``, checkpoint arguments).  Probes are
installed only for a traced leg; end-to-end numbers never come from one.
"""

from __future__ import annotations

import time

_STARTED = time.perf_counter()

import hashlib
import json
import resource
import sys
from itertools import islice
from pathlib import Path

#: Log events sampled for the optimizer's rate catalog.
RATE_SAMPLE_EVENTS = 20_000

#: ``RunMetrics`` counters reported per leg (all repeat exactly across runs).
COUNT_FIELDS = (
    "total_events",
    "relevant_events",
    "windows_finalized",
    "results_emitted",
    "state_updates",
    "cohorts_created",
    "cohorts_merged",
    "panes_created",
    "pane_merges",
    "columnar_batches",
    "events_late",
    "events_dropped",
)


#: The paced source busy-waits the last stretch before an event is due.
SPIN_BELOW_S = 0.001


class PacedSource:
    """Open-loop arrival schedule over a recorded log.

    Event ``i`` is due at ``origin + i / rate``.  The source sleeps until an
    event is due and never waits when it is behind, so a stall in the engine
    shows up as lateness of the following events, not as a slower schedule.
    For each window end it remembers the due time of the first arrival that
    made the window closable: the first event with ``t - max_lateness >= end``
    (no admissible later event can still fall inside the window).
    """

    def __init__(self, events, rate: float, within: int, slide: int, lateness: int) -> None:
        self.events = events
        self.rate = rate
        self.slide = slide
        self.lateness = lateness
        self.next_end = within
        self.closable_due: dict = {}
        #: How late each event was pulled, sampled at every 64th event.
        self.lateness_samples: list = []
        self.duration = 0.0

    def __iter__(self):
        perf = time.perf_counter
        sleep = time.sleep
        period = 1.0 / self.rate
        lateness = self.lateness
        slide = self.slide
        samples = self.lateness_samples
        origin = perf()
        for index, event in enumerate(self.events):
            due = origin + index * period
            now = perf()
            if now < due:
                # Sleep only while far ahead, then spin: a sleeping vCPU wakes
                # late and erratically, which would be measured as latency.
                if due - now > SPIN_BELOW_S:
                    sleep(due - now - SPIN_BELOW_S)
                while perf() < due:
                    pass
                now = due
            if not index & 63:
                samples.append(now - due)
            closable = event.timestamp - lateness
            while closable >= self.next_end:
                self.closable_due[self.next_end] = due
                self.next_end += slide
            yield event
        self.duration = perf() - origin


def calibrate(rounds: int) -> float:
    """Seconds this CPU takes, right now, for a fixed amount of interpreter work.

    Dictionary, list and integer operations in a loop: what the engine itself
    is made of, so a host that slows the engine slows this by the same factor.
    """
    started = time.perf_counter()
    table: dict = {}
    acc = 0
    for i in range(rounds):
        key = (i * 7919) & 4095
        acc += table.get(key, 0) + i % 7
        table[key] = acc & 0xFFFF
        row = [acc, key, i]
        acc ^= row[i % 3]
    return time.perf_counter() - started


def peak_rss_mb() -> float:
    """Peak resident set of this process in MB.

    ``VmHWM`` belongs to this program image; ``ru_maxrss`` also remembers the
    parent's size from before ``exec`` and is only the fallback.
    """
    try:
        with open("/proc/self/status", encoding="ascii") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def main(argv: list) -> int:
    job = json.loads(Path(argv[1]).read_text(encoding="utf-8"))
    sys.path.insert(0, job["src"])

    mark = time.perf_counter()
    from repro.cli import load_workload
    from repro.core.optimizer import SharonOptimizer
    from repro.core.plan import SharingPlan
    from repro.events.log import EventLogReader
    from repro.events.stream import EventStream
    from repro.executor.churn import parse_churn_script
    from repro.replay import ReplayRunner
    from repro.utils.rates import RateCatalog

    import_s = time.perf_counter() - mark

    mark = time.perf_counter()
    workload = load_workload(job["workload"])
    churn = None
    if job["churn"]:
        churn = parse_churn_script(Path(job["churn"]).read_text(encoding="utf-8"))
    parse_s = time.perf_counter() - mark

    mark = time.perf_counter()
    log = job["log"]
    sample = EventStream(islice(EventLogReader(log), RATE_SAMPLE_EVENTS))
    rates = RateCatalog.from_stream(sample, per="time-unit")
    del sample
    sample_s = time.perf_counter() - mark

    mark = time.perf_counter()
    optimized = SharonOptimizer(rates).optimize(workload)
    optimize_s = time.perf_counter() - mark

    mark = time.perf_counter()
    plan = SharingPlan() if job["plan"] == "empty" else optimized.plan
    runner_options = {}
    if job["max_lateness"] is not None:
        runner_options["max_lateness"] = job["max_lateness"]
    if churn is not None:
        runner_options["churn"] = churn
    runner = ReplayRunner(workload, plan=plan, **runner_options)
    compile_s = time.perf_counter() - mark

    run_options = {}
    if job["checkpoint_every"]:
        run_options["checkpoint_every"] = job["checkpoint_every"]
        run_options["checkpoint_dir"] = job["checkpoint_dir"]
    if job["resume_from"]:
        run_options["resume_from"] = job["resume_from"]

    source = log
    paced = None
    latencies: list = []
    first_batch_at: list = []
    if job["paced_rate_eps"]:
        paced = PacedSource(
            EventLogReader(log),
            job["paced_rate_eps"],
            job["within"],
            job["slide"],
            job["max_lateness"] or 0,
        )
        source = paced
        slide = job["slide"]
        closable_due = paced.closable_due
        next_close = job["within"]

        def on_batch(timestamp, _events) -> None:
            # One sample per batch that closed at least one window: emission
            # time minus the due time of the arrival that made the earliest
            # of those windows closable.
            nonlocal next_close
            if timestamp >= next_close:
                # No due time: the end-of-stream drain closed the window, not
                # an arrival, so there is no latency to sample.
                due = closable_due.get(next_close)
                if due is not None:
                    latencies.append(time.perf_counter() - due)
                while next_close <= timestamp:
                    next_close += slide

        run_options["on_batch"] = on_batch
    elif job["resume_from"]:

        def on_batch(_timestamp, _events) -> None:
            if not first_batch_at:
                first_batch_at.append(time.perf_counter())

        run_options["on_batch"] = on_batch

    setup_s = time.perf_counter() - _STARTED
    recorder = None
    if job["trace"]:
        # Only now: a span closed outside the root span (the rate sample reads
        # the log too) would be booked to a layer but not to the traced wall.
        import probes

        recorder = probes.install()
    calibration_s = calibrate(job["calibration_rounds"])
    run_started = time.perf_counter()
    if recorder is not None:
        with recorder.root("replay.runner.run"):
            replay = runner.run(source, **run_options)
    else:
        replay = runner.run(source, **run_options)
    run_s = time.perf_counter() - run_started
    calibration_s += calibrate(job["calibration_rounds"])
    rss_mb = peak_rss_mb()

    metrics = replay.report.metrics
    wanted = {tuple(cell): None for cell in job["cells"]}
    lines = []
    for result in replay.report.results:
        if result.group:
            key = (result.query_name, result.window.start, result.group[0])
            if key in wanted:
                wanted[key] = result.value
        # Zero and absent results are interchangeable (an executor may or may
        # not emit a zero for a scope that saw events but no match).
        if result.value:
            lines.append(
                f"{result.query_name}|{result.window.start}|{result.window.end}|"
                f"{result.group!r}|{result.value!r}"
            )
    lines.sort()
    digest = hashlib.sha256("\n".join(lines).encode("utf-8")).hexdigest()

    checkpoints = [str(path) for path in replay.checkpoints]
    out = {
        "setup_s": setup_s,
        "run_s": run_s,
        "calibration_s": calibration_s,
        "rss_mb": rss_mb,
        "import_s": import_s,
        "parse_s": parse_s,
        "sample_s": sample_s,
        "optimize_s": optimize_s,
        "compile_s": compile_s,
        "candidates": optimized.candidates_total,
        "plans_considered": optimized.plans_considered,
        "plan_score": optimized.score,
        "events_replayed": replay.events_replayed,
        "counts": {name: getattr(metrics, name, None) for name in COUNT_FIELDS},
        "results": len(replay.report.results),
        "digest": digest,
        "cells": [wanted[tuple(cell)] for cell in job["cells"]],
        "churn_ops": len(churn) if churn is not None else 0,
        "checkpoints": checkpoints,
        "checkpoint_bytes": sum(Path(path).stat().st_size for path in checkpoints),
    }
    if paced is not None:
        late = paced.lateness_samples
        tail = late[-max(1, len(late) // 10):]
        out["latencies_ms"] = [value * 1000.0 for value in latencies]
        out["backlog_max_ms"] = max(late) * 1000.0
        # Sustained: at the end of the run the source is not far behind its
        # schedule (mean lateness of the last tenth below 5% of the run).
        out["sustained"] = sum(tail) / len(tail) < 0.05 * paced.duration
    if first_batch_at:
        out["resume_s"] = first_batch_at[0] - run_started
    if recorder is not None:
        out["trace"] = recorder.report()
        if job.get("spans_path"):
            recorder.write_spans(job["spans_path"])
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
