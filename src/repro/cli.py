"""Command-line interface for the Sharon reproduction.

The CLI exposes the library's main workflows without writing Python:

``python -m repro optimize``
    Parse a workload file (one SASE-style query per block separated by blank
    lines), generate or load rates, run the chosen optimizer, and print the
    sharing plan.

``python -m repro run``
    Optimize a workload and execute it over a generated data set with the
    chosen executor, printing results and metrics.

``python -m repro figures``
    Reproduce the evaluation figures as text tables (same sweeps as
    ``examples/reproduce_figures.py``).

``python -m repro datasets``
    Generate one of the synthetic data sets and print its statistics (or
    write it to a CSV file).

``python -m repro record``
    Generate a synthetic data set and write it as a durable, seekable JSONL
    event log (the format ``repro replay`` consumes).

``python -m repro replay``
    Feed a recorded event log through the deterministic engine — at instant,
    realtime, or Nx speed — optionally writing checkpoints, resuming from
    one, recording a state-hash trace, or repeating the replay to verify
    byte-identical final state (see ``docs/replay.md``).

The CLI is intentionally thin: every command maps onto documented library
calls so scripts can graduate to the Python API without surprises.

Exit status: 0 when the command succeeds; 1 for a user error — bad
arguments, or input the program refuses with a named error (a malformed
event log, checkpoint, query or churn script, disordered events, a file
that cannot be read), reported as one ``repro: error: ...`` line; 2 for
anything else, an internal error, reported with its traceback.
"""

from __future__ import annotations

import argparse
import csv
import sys
import traceback
from pathlib import Path

from .core import ExhaustiveOptimizer, GreedyOptimizer, SharonOptimizer
from .events import EventStream
from .events.disorder import DisorderError
from .events.log import EventLogError
from .executor import (
    ASeqExecutor,
    CompiledPaneWorkload,
    FlinkLikeExecutor,
    SharonExecutor,
    SpassLikeExecutor,
)
from .executor.churn import ChurnError
from .queries import NonUniformWorkloadError, Workload, parse_query
from .queries.parser import QueryParseError
from .replay.checkpoint import CheckpointError
from .utils import RateCatalog

__all__ = ["main", "build_parser"]


# ---------------------------------------------------------------------------
# input helpers
# ---------------------------------------------------------------------------

def load_workload(path: str | Path) -> Workload:
    """Load a workload file: SASE-style queries separated by blank lines.

    Lines starting with ``#`` are comments.  Each query block may start with
    ``name: <identifier>`` to name the query; unnamed queries get ``q1``,
    ``q2``, ... in file order.
    """
    text = Path(path).read_text(encoding="utf-8")
    blocks = [block.strip() for block in text.split("\n\n") if block.strip()]
    queries = []
    for index, block in enumerate(blocks, start=1):
        lines = [line for line in block.splitlines() if not line.strip().startswith("#")]
        name = f"q{index}"
        if lines and lines[0].lower().startswith("name:"):
            name = lines[0].split(":", 1)[1].strip()
            lines = lines[1:]
        query_text = " ".join(line.strip() for line in lines if line.strip())
        if not query_text:
            continue
        queries.append(parse_query(query_text, name=name))
    if not queries:
        raise SystemExit(f"no queries found in workload file {path}")
    return Workload(queries, name=Path(path).stem)


def builtin_workload(name: str) -> Workload:
    from .datasets import purchase_workload, traffic_workload

    if name == "traffic":
        return traffic_workload()
    if name == "purchase":
        return purchase_workload()
    raise SystemExit(f"unknown built-in workload {name!r}; choose traffic or purchase")


def build_stream(dataset: str, duration: int, rate: float, seed: int) -> EventStream:
    from .datasets import (
        EcommerceConfig,
        LinearRoadConfig,
        TaxiConfig,
        generate_ecommerce_stream,
        generate_linear_road_stream,
        generate_taxi_stream,
    )

    if dataset == "taxi":
        return generate_taxi_stream(
            TaxiConfig(duration_seconds=duration, reports_per_second=rate, seed=seed)
        )
    if dataset == "linear-road":
        return generate_linear_road_stream(
            LinearRoadConfig(
                duration_seconds=duration, initial_rate=max(rate / 4, 1.0), final_rate=rate, seed=seed
            )
        )
    if dataset == "ecommerce":
        return generate_ecommerce_stream(
            EcommerceConfig(duration_seconds=duration, purchases_per_second=rate, seed=seed)
        )
    raise SystemExit(f"unknown dataset {dataset!r}; choose taxi, linear-road, or ecommerce")


def resolve_workload(args: argparse.Namespace) -> Workload:
    if args.workload_file:
        return load_workload(args.workload_file)
    return builtin_workload(args.workload)


OPTIMIZERS = {
    "sharon": lambda rates: SharonOptimizer(rates, time_budget_seconds=10.0),
    "sharon-expanded": lambda rates: SharonOptimizer(rates, expand=True, time_budget_seconds=10.0),
    "greedy": lambda rates: GreedyOptimizer(rates),
    "exhaustive": lambda rates: ExhaustiveOptimizer(rates),
}

EXECUTORS = {
    "sharon": lambda workload, plan, args: SharonExecutor(
        workload,
        plan=plan,
        memory_sample_interval=8,
        max_lateness=args.max_lateness,
        late_policy=args.late_policy,
    ),
    "aseq": lambda workload, plan, args: ASeqExecutor(
        workload,
        memory_sample_interval=8,
        max_lateness=args.max_lateness,
        late_policy=args.late_policy,
    ),
    "flink": lambda workload, plan, args: FlinkLikeExecutor(workload, memory_sample_interval=8),
    "spass": lambda workload, plan, args: SpassLikeExecutor(
        workload, plan=plan, memory_sample_interval=8
    ),
}

#: Executors that understand disorder tolerance (``--max-lateness``): the
#: engine-backed pair, since the reorder buffer lives in the engine.
DISORDER_EXECUTORS = ("sharon", "aseq")


def strategy_line(session, pinned_by: str = "") -> str:
    """One summary line: which window strategy a finished session ran, and why."""
    window = session.compiled.window
    geometry = (
        "tumbling windows"
        if window.max_overlap == 1
        else f"{window.max_overlap} overlapping windows, pane width {window.pane_width}"
    )
    if session.mode == "panes":
        cells = CompiledPaneWorkload(session.compiled)
        geometry += f", {cells.distinct_cells} pane cells for {cells.matrix_cells} matrix cells"
    return (
        f"strategy: {session.mode} — "
        f"WITHIN {window.size} SLIDE {window.slide}, {geometry}"
        + (f" ({pinned_by})" if pinned_by else "")
    )


# ---------------------------------------------------------------------------
# sub-commands
# ---------------------------------------------------------------------------

def cmd_optimize(args: argparse.Namespace) -> int:
    workload = resolve_workload(args)
    stream = build_stream(args.dataset, args.duration, args.rate, args.seed)
    rates = RateCatalog.from_stream(stream, per="time-unit")
    optimizer = OPTIMIZERS[args.optimizer](rates)
    result = optimizer.optimize(workload)

    print(f"Workload {workload.name!r}: {len(workload)} queries")
    print(
        f"Candidates: {result.candidates_total} "
        f"(after expansion {result.candidates_after_expansion}, "
        f"after reduction {result.candidates_after_reduction})"
    )
    print(f"Optimizer latency: {result.total_seconds * 1000:.2f} ms; "
          f"plans considered: {result.plans_considered}; "
          f"fallback used: {result.used_fallback}")
    print(f"\nSharing plan (score {result.plan.score:.2f}):")
    if result.plan.is_empty:
        print("  (empty plan - every query runs non-shared)")
    for candidate in result.plan:
        print(f"  share {candidate.pattern!r} among {list(candidate.query_names)} "
              f"(benefit {candidate.benefit:.2f})")
    return 0


def cmd_run(args: argparse.Namespace) -> int:
    if args.checkpoint_every and args.executor != "sharon":
        raise SystemExit(
            "--checkpoint-every requires the sharon executor "
            "(checkpointing snapshots the engine; see docs/replay.md)"
        )
    if args.max_lateness is not None and args.executor not in DISORDER_EXECUTORS:
        raise SystemExit(
            f"--max-lateness is only supported by the engine-backed executors "
            f"{DISORDER_EXECUTORS}, not {args.executor!r}"
        )
    workload = resolve_workload(args)
    stream = build_stream(args.dataset, args.duration, args.rate, args.seed)
    if args.record:
        from .events.log import write_event_log

        written = write_event_log(stream, args.record, stream_name=stream.name)
        print(f"Recorded {written} events to {args.record}")
    rates = RateCatalog.from_stream(stream, per="time-unit")
    plan = OPTIMIZERS[args.optimizer](rates).optimize(workload).plan
    if args.checkpoint_every:
        from .replay import ReplayRunner

        runner = ReplayRunner(
            workload,
            plan=plan,
            name="Sharon",
            max_lateness=args.max_lateness,
            late_policy=args.late_policy,
        )
        replay_report = runner.run(
            stream,
            checkpoint_every=args.checkpoint_every,
            checkpoint_dir=args.checkpoint_dir,
        )
        report = replay_report.report
        session = replay_report.session
        print(f"state hash: {replay_report.state_hash}")
        print(
            f"wrote {len(replay_report.checkpoints)} checkpoints "
            f"(every {args.checkpoint_every} batches) to {args.checkpoint_dir}"
        )
    else:
        executor = EXECUTORS[args.executor](workload, plan, args)
        engine = getattr(executor, "engine", None)  # the two-step baselines have none
        session = None if engine is None else engine.new_session()
        report = executor.run(stream) if session is None else engine.run(stream, session=session)

    print(report.metrics.summary())
    if session is not None:
        print(strategy_line(session))
    if report.metrics.events_late:
        print(
            f"late events beyond --max-lateness: {report.metrics.events_late} "
            f"({report.metrics.events_dropped} dropped)"
        )
    shown = sorted(report.results.nonzero(), key=lambda result: result[:2])[: args.limit]
    rows = [[name, repr(window), repr(group), value] for name, window, group, value in shown]
    if rows:
        from .experiments import format_table

        print()
        print(format_table(["query", "window", "group", "value"], rows, title="Results (first rows)"))
    else:
        print("No non-zero results produced.")
    return 0


def cmd_figures(args: argparse.Namespace) -> int:
    from .experiments import run_all_figures

    results = run_all_figures(quick=not args.full)
    for result in results:
        print(result.render())
        print()
    return 0


def cmd_datasets(args: argparse.Namespace) -> int:
    from .experiments import format_table

    stream = build_stream(args.dataset, args.duration, args.rate, args.seed)
    stats = stream.statistics()
    print(f"{args.dataset}: {stats.total_events} events over {stats.duration} time units "
          f"({stats.overall_rate:.1f} events per time unit)")
    rows = [
        [event_type, count, round(stats.rate_of(event_type), 3)]
        for event_type, count in sorted(stats.counts_per_type.items())
    ]
    print(format_table(["event type", "events", "rate"], rows))
    if args.output:
        _write_csv(stream, args.output)
        print(f"\nWrote {len(stream)} events to {args.output}")
    return 0


def cmd_record(args: argparse.Namespace) -> int:
    from .events.log import write_event_log

    stream = build_stream(args.dataset, args.duration, args.rate, args.seed)
    written = write_event_log(
        stream, args.output, stream_name=stream.name, fsync_every=args.fsync_every
    )
    size = Path(args.output).stat().st_size
    print(f"Recorded {written} events ({size:,} bytes) to {args.output}")
    print(f"Replay with: repro replay --log {args.output}")
    return 0


def cmd_replay(args: argparse.Namespace) -> int:
    from .events.log import EventLogReader
    from .events.stream import StreamStatistics
    from .replay import ReplayRunner, ReplayTrace, first_divergence

    if args.repeat < 1:
        raise SystemExit(f"--repeat must be >= 1, got {args.repeat}")
    if args.repeat > 1 and args.resume:
        raise SystemExit("--repeat verifies full replays; it cannot be combined with --resume")
    reader = EventLogReader(args.log)
    recorded = StreamStatistics.from_runs(reader.batches_from(0))
    workload = resolve_workload(args)
    rates = RateCatalog.from_statistics(recorded, per="time-unit")
    plan = OPTIMIZERS[args.optimizer](rates).optimize(workload).plan
    churn = None
    if args.churn_script:
        from .executor.churn import load_churn_script

        try:
            churn = load_churn_script(args.churn_script)
        except ValueError as error:
            raise SystemExit(f"churn script {args.churn_script}: {error}") from None

    runner = ReplayRunner(
        workload,
        plan=plan,
        panes=args.panes,
        max_lateness=args.max_lateness,
        late_policy=args.late_policy,
        churn=churn,
    )
    replay_report = runner.run(
        reader,
        speed=args.speed,
        checkpoint_every=args.checkpoint_every,
        checkpoint_dir=args.checkpoint_dir,
        resume_from=args.resume,
        trace=bool(args.trace),
    )
    print(replay_report.report.metrics.summary())
    pinned_by = {True: "--panes", False: "--no-panes"}.get(
        args.panes, "as checkpointed" if args.resume else ""
    )
    print(strategy_line(replay_report.session, pinned_by))
    print(
        f"log: v{reader.header['version']}, {recorded.total_events} events "
        f"in {reader.count_lines()} lines"
    )
    print(f"replayed {replay_report.events_replayed} events "
          f"in {replay_report.batches} timestamp batches")
    if args.resume:
        print(f"resumed from {args.resume}")
    if churn:
        print(f"applied churn script {args.churn_script} ({len(churn)} ops)")
    if replay_report.checkpoints:
        print(f"wrote {len(replay_report.checkpoints)} checkpoints to {args.checkpoint_dir}")
    if args.trace:
        replay_report.trace.write(args.trace)
        print(f"wrote {len(replay_report.trace)} trace entries to {args.trace}")
    print(f"state hash: {replay_report.state_hash}")

    for iteration in range(2, args.repeat + 1):
        trace = ReplayTrace() if args.trace else None
        repeat_report = runner.run(args.log, speed=args.speed, trace=trace)
        if repeat_report.state_hash != replay_report.state_hash:
            divergence = None
            if trace is not None:
                divergence = first_divergence(replay_report.trace, trace)
            raise SystemExit(
                f"replay {iteration}/{args.repeat} DIVERGED: "
                f"state hash {repeat_report.state_hash} != {replay_report.state_hash}"
                + (f"; first divergence at batch {divergence['index']}" if divergence else "")
            )
        print(f"replay {iteration}/{args.repeat}: state hash identical")
    if args.repeat > 1:
        print(f"{args.repeat} replays produced byte-identical final state")
    return 0


def _write_csv(stream: EventStream, path: str | Path) -> None:
    attribute_names = sorted({name for event in stream for name in event.attributes})
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(["event_type", "timestamp", *attribute_names])
        for event in stream:
            writer.writerow(
                [event.event_type, event.timestamp]
                + [event.attribute(name, "") for name in attribute_names]
            )


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def _add_common_input_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--workload",
        default="traffic",
        choices=["traffic", "purchase"],
        help="built-in workload to use (default: traffic)",
    )
    parser.add_argument(
        "--workload-file",
        help="path to a workload file with one SASE-style query per blank-line-separated block",
    )
    parser.add_argument(
        "--dataset",
        default="taxi",
        choices=["taxi", "linear-road", "ecommerce"],
        help="synthetic data set to generate (default: taxi)",
    )
    parser.add_argument("--duration", type=int, default=300, help="stream duration in time units")
    parser.add_argument("--rate", type=float, default=10.0, help="events per time unit")
    parser.add_argument("--seed", type=int, default=1, help="random seed of the generator")
    parser.add_argument(
        "--optimizer",
        default="sharon",
        choices=sorted(OPTIMIZERS),
        help="optimizer choosing the sharing plan (default: sharon)",
    )


def _add_disorder_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--max-lateness",
        type=int,
        default=None,
        metavar="L",
        help="tolerate out-of-order arrival up to L time units through a "
        "watermark-driven reorder buffer (default: off = strict in-order; "
        "see docs/disorder.md)",
    )
    parser.add_argument(
        "--late-policy",
        default="raise",
        choices=["raise", "drop"],
        help="what to do with events later than --max-lateness allows: "
        "'raise' aborts the run, 'drop' counts and discards them "
        "(default: raise)",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduction of 'Sharon: Shared Online Event Sequence Aggregation' (ICDE 2018)",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    optimize_parser = subparsers.add_parser(
        "optimize", help="compute and print a sharing plan for a workload"
    )
    _add_common_input_arguments(optimize_parser)
    optimize_parser.set_defaults(handler=cmd_optimize)

    run_parser = subparsers.add_parser(
        "run", help="optimize a workload and execute it over a generated stream"
    )
    _add_common_input_arguments(run_parser)
    run_parser.add_argument(
        "--executor",
        default="sharon",
        choices=sorted(EXECUTORS),
        help="executor to use (default: sharon)",
    )
    run_parser.add_argument("--limit", type=int, default=15, help="number of result rows to print")
    run_parser.add_argument(
        "--record",
        metavar="PATH",
        help="also write the generated stream to this JSONL event log "
        "(replayable with `repro replay --log PATH`)",
    )
    run_parser.add_argument(
        "--checkpoint-every",
        type=int,
        default=0,
        metavar="N",
        help="write an engine checkpoint every N timestamp batches "
        "(sharon executor; default: 0 = off)",
    )
    run_parser.add_argument(
        "--checkpoint-dir",
        default="checkpoints",
        help="directory for checkpoint files (default: checkpoints)",
    )
    _add_disorder_arguments(run_parser)
    run_parser.set_defaults(handler=cmd_run)

    figures_parser = subparsers.add_parser(
        "figures", help="reproduce the evaluation figures as text tables"
    )
    figures_parser.add_argument("--full", action="store_true", help="run the full sweeps")
    figures_parser.set_defaults(handler=cmd_figures)

    datasets_parser = subparsers.add_parser(
        "datasets", help="generate a synthetic data set and print its statistics"
    )
    datasets_parser.add_argument(
        "--dataset",
        default="taxi",
        choices=["taxi", "linear-road", "ecommerce"],
    )
    datasets_parser.add_argument("--duration", type=int, default=120)
    datasets_parser.add_argument("--rate", type=float, default=10.0)
    datasets_parser.add_argument("--seed", type=int, default=1)
    datasets_parser.add_argument("--output", help="optional CSV file to write the events to")
    datasets_parser.set_defaults(handler=cmd_datasets)

    record_parser = subparsers.add_parser(
        "record", help="generate a synthetic data set and write it as a replayable event log"
    )
    record_parser.add_argument(
        "--dataset",
        default="taxi",
        choices=["taxi", "linear-road", "ecommerce"],
    )
    record_parser.add_argument("--duration", type=int, default=300)
    record_parser.add_argument("--rate", type=float, default=10.0)
    record_parser.add_argument("--seed", type=int, default=1)
    record_parser.add_argument(
        "--output",
        default="events.jsonl",
        help="path of the event-log file to write (default: events.jsonl)",
    )
    record_parser.add_argument(
        "--fsync-every",
        type=int,
        default=512,
        help="fsync the log after this many appended events (default: 512)",
    )
    record_parser.set_defaults(handler=cmd_record)

    replay_parser = subparsers.add_parser(
        "replay", help="replay a recorded event log through the deterministic engine"
    )
    _add_common_input_arguments(replay_parser)
    replay_parser.add_argument(
        "--log", required=True, help="event log to replay (written by `repro record` or `run --record`)"
    )
    replay_parser.add_argument(
        "--speed",
        default="instant",
        help="replay pacing: 'instant' (default), 'realtime', or an Nx multiplier like '4x'",
    )
    replay_parser.add_argument(
        "--panes",
        action=argparse.BooleanOptionalAction,
        default=None,
        help="pin the window strategy: pane-partitioned (--panes) or per-instance "
        "(--no-panes); default: the engine chooses from the window geometry",
    )
    replay_parser.add_argument(
        "--checkpoint-every",
        type=int,
        default=0,
        metavar="N",
        help="write a checkpoint every N timestamp batches (default: 0 = off)",
    )
    replay_parser.add_argument(
        "--checkpoint-dir",
        default="checkpoints",
        help="directory for checkpoint files (default: checkpoints)",
    )
    replay_parser.add_argument(
        "--resume",
        metavar="CHECKPOINT",
        help="resume from this checkpoint file instead of replaying from the start",
    )
    replay_parser.add_argument(
        "--trace",
        metavar="PATH",
        help="record a per-batch state-hash trace to this JSONL file",
    )
    replay_parser.add_argument(
        "--repeat",
        type=int,
        default=1,
        metavar="N",
        help="replay N times and verify every run reaches a byte-identical final state",
    )
    replay_parser.add_argument(
        "--churn-script",
        metavar="PATH",
        help=(
            "JSON attach/detach/plan schedule applied deterministically at batch "
            "boundaries while replaying (see docs/churn.md)"
        ),
    )
    _add_disorder_arguments(replay_parser)
    replay_parser.set_defaults(handler=cmd_replay)

    return parser


#: Errors that describe bad input, not a bug: one line, exit status 1.
_USER_ERRORS = (
    ChurnError,
    EventLogError,
    CheckpointError,
    DisorderError,
    NonUniformWorkloadError,
    QueryParseError,
    OSError,
)


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns the process exit code (0 ok, 1 user error, 2 internal error).

    A usage error leaves as ``SystemExit(1)``, like the commands' own
    ``SystemExit`` messages (argparse itself would exit 2).
    """
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exit:
        raise SystemExit(1 if exit.code else 0) from None
    try:
        return args.handler(args)
    except _USER_ERRORS as error:
        print(f"repro: error: {error}", file=sys.stderr)
        return 1
    except Exception:
        traceback.print_exc()
        return 2


if __name__ == "__main__":  # pragma: no cover - exercised via python -m repro
    sys.exit(main())
