"""ReplayRunner: feed a recorded event log through the engine, reproducibly.

The runner drives a :class:`~repro.executor.engine.StreamingEngine` session
through the same batch loop as ``StreamingEngine.run`` (``EngineSession.drive``)
and adds its own per-batch work — pacing, tracing, checkpointing:

* events enter through the engine's normal ingestion path — the one
  routing loop of ``StreamingEngine.routed_batches``, fed the log's column
  rows, or its events through the reorder feed — so a replayed run takes
  exactly the code path a live run would;
* pacing (``realtime`` or ``Nx``) sleeps between timestamp batches with the
  metrics timer paused, so throughput numbers measure engine work, not
  sleep time;
* with ``checkpoint_every`` set, every batch's results are appended to the
  directory's results log as the batch ends, and every ``checkpoint_every``
  batches the session state is snapshotted to a checkpoint file that
  records the log's length; resuming from one and consuming the
  rest of the log is byte-identical to a full replay — state, results and
  results log (the replay determinism suite pins this).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from itertools import islice
from pathlib import Path
from typing import Iterable, Optional

from ..core.benefit import BenefitModel
from ..core.optimizer import SharonOptimizer
from ..core.plan import SharingPlan
from ..events.event import Event
from ..events.log import EventLogReader
from ..events.stream import EventStream
from ..executor.churn import ChurnOp, ChurnSchedule
from ..executor.engine import EngineSession, ExecutionReport, StreamingEngine
from ..queries.workload import Workload
from ..utils.rates import RateCatalog
from .checkpoint import (
    RESULTS_LOG_NAME,
    Checkpoint,
    CheckpointError,
    ResultsLogWriter,
    describe_churn_op,
    load_checkpoint,
    save_checkpoint,
    workload_fingerprint,
)
from .trace import ReplayTrace, state_hash

__all__ = ["ReplayRunner", "ReplayReport"]


def _parse_speed(speed: "str | float | int") -> float:
    """Normalise a speed spec to a sleep factor (seconds per stream time unit).

    ``"instant"`` (or any non-positive multiplier) means no pacing;
    ``"realtime"`` is one second per time unit; ``"4x"``/``4`` replays four
    stream time units per wall-clock second.
    """
    if isinstance(speed, str):
        text = speed.strip().lower()
        if text == "instant":
            return 0.0
        if text == "realtime":
            return 1.0
        if text.endswith("x"):
            text = text[:-1]
        try:
            multiplier = float(text)
        except ValueError:
            raise ValueError(
                f"unsupported replay speed {speed!r} (use 'instant', 'realtime', or e.g. '4x')"
            ) from None
    else:
        multiplier = float(speed)
    if multiplier <= 0:
        return 0.0
    return 1.0 / multiplier


@dataclass
class ReplayReport:
    """Everything one replay produced, beyond the engine's own report."""

    report: ExecutionReport
    #: sha256 of the session's final exported state (count and digest of the
    #: emitted results + counters + residual engine state); two replays of
    #: the same log agree iff equal.
    state_hash: str
    #: Events consumed by this run (excludes events skipped by a resume).
    events_replayed: int
    #: Timestamp batches processed by this run.
    batches: int
    #: The finished session: its ``mode`` and ``compiled`` are the strategy
    #: and the compilation the run ended with.
    session: EngineSession
    #: Checkpoint files written during the run, in write order.
    checkpoints: list[Path] = field(default_factory=list)
    #: Per-batch state-hash trace (only when tracing was requested).
    trace: Optional[ReplayTrace] = None

    @property
    def results(self):
        """The engine's result set (convenience passthrough)."""
        return self.report.results

    @property
    def metrics(self):
        """The engine's run metrics (convenience passthrough)."""
        return self.report.metrics


class ReplayRunner:
    """Replays recorded event logs through a deterministic engine.

    Every :meth:`run` is a fresh session of the runner's engine (a resume's
    too, in its checkpoint's strategy), so one runner replays any number of
    times.

    Parameters
    ----------
    workload:
        The uniform workload to evaluate (must match the one used when any
        checkpoint being resumed was taken; enforced via fingerprint).
    plan:
        Sharing plan to execute under.  When omitted, a plan is optimized
        from ``rates`` if given, else the empty plan is used (Non-Shared
        evaluation — still deterministic, just unshared).
    rates:
        Rate catalog used to optimize when no plan is given.
    panes / memory_sample_interval:
        Engine options, with :class:`~repro.executor.shared.SharonExecutor`
        semantics.  The window strategy is part of the determinism contract
        and of the *state*: checkpoints record it, and with ``panes=None`` (the
        default, "engine decides") a resumed run continues in the strategy
        its checkpoint recorded, whatever the engine would pick today; an
        explicit ``panes=`` that contradicts the file is refused.
    max_lateness / late_policy:
        Bounded-lateness disorder tolerance (``docs/disorder.md``): with
        ``max_lateness`` set the log is read in recorded *arrival* order and
        reordered through the engine's watermark-driven buffer, and
        checkpoints snapshot the buffer (so ``events_consumed`` counts log
        events read, including ones still held).  Also part of the
        determinism contract recorded into checkpoints.
    churn:
        Optional :class:`~repro.executor.churn.ChurnSchedule` (or ops to
        build one from) of timestamped attach/detach/plan operations
        (``docs/churn.md``), applied deterministically at batch boundaries
        by the batch loop :meth:`StreamingEngine.run` uses too.  Part of the
        determinism contract: the full schedule is pinned into
        ``engine_config`` (so resuming under a different script is refused)
        and the applied-op history travels in every snapshot (so resume
        re-applies the checkpoint's churn prefix before restoring state).
    """

    def __init__(
        self,
        workload: Workload,
        plan: "SharingPlan | None" = None,
        rates: "RateCatalog | BenefitModel | None" = None,
        name: str = "Replay",
        panes: "bool | None" = None,
        memory_sample_interval: int = 0,
        max_lateness: "int | None" = None,
        late_policy="raise",
        churn: "ChurnSchedule | Iterable[ChurnOp] | None" = None,
    ) -> None:
        if plan is None:
            plan = (
                SharonOptimizer(rates).optimize(workload).plan if rates is not None else SharingPlan()
            )
        self.churn = ChurnSchedule(churn)
        self.engine = StreamingEngine(
            workload,
            plan=plan,
            name=name,
            memory_sample_interval=memory_sample_interval,
            panes=panes,
            max_lateness=max_lateness,
            late_policy=late_policy,
        )
        self.fingerprint = workload_fingerprint(workload, plan)

    @property
    def engine_config(self) -> dict:
        """The toggle set a fresh run records into (and validates against) checkpoints."""
        engine = self.engine
        late_policy = engine.late_policy
        config = {
            # The strategy a fresh session takes, not the ``panes=`` request.
            "mode": "panes" if engine.uses_panes else "instances",
            "max_lateness": engine.max_lateness,
            # Callables cannot be serialised; any side channel records as
            # "callback" (resuming requires a callback policy again, though
            # not the same function object).
            "late_policy": late_policy if isinstance(late_policy, str) else "callback",
        }
        # Only churned runs record a churn key, so pre-churn checkpoints keep
        # validating against churn-free runners unchanged.
        if self.churn:
            config["churn"] = [describe_churn_op(op) for op in self.churn]
        return config

    # -- source handling ---------------------------------------------------------
    @staticmethod
    def _event_source(source, skip: int) -> Iterable[Event]:
        """Resolve a replay source to an event iterable, skipping ``skip`` events.

        A log comes back as a reader positioned at ``skip``: the engine takes
        its timestamp runs as column rows, and the reorder feed its rows one
        event at a time.
        """
        if isinstance(source, EventLogReader):
            source = source.path
        if isinstance(source, (str, Path)):
            return EventLogReader(source, start=skip)
        if skip:
            return islice(iter(source), skip, None)
        return source

    def _reapply_churn_prefix(self, session, checkpoint: Checkpoint) -> int:
        """Re-apply the checkpoint's applied-churn history on a fresh session.

        Returns the index of the first schedule op still pending.  Every
        history entry must match the runner's schedule op (kind, effective
        timestamp, query name) and, once applied, reproduce the recorded
        history entry byte for byte — including the fingerprint of the
        recompiled workload+plan — else the checkpoint belongs to a
        different churn script and resume is refused.
        """
        history = (checkpoint.engine_state.get("churn") or {}).get("history", [])
        ops = self.churn.ops
        if len(history) > len(ops):
            raise CheckpointError(
                f"checkpoint had applied {len(history)} churn ops but this "
                f"runner's schedule only has {len(ops)}"
            )
        for index, entry in enumerate(history):
            op = ops[index]
            if (entry.get("op"), entry.get("at"), entry.get("query")) != (
                op.kind,
                op.at,
                op.query_name,
            ):
                raise CheckpointError(
                    f"checkpoint churn history entry #{index} {entry!r} does not "
                    f"match schedule op {op.kind}@{op.at}:{op.query_name}"
                )
            session.apply_churn_op(op)
            applied = session.churn_history()[-1]
            if applied != entry:
                raise CheckpointError(
                    f"re-applying churn op #{index} produced {applied!r}, but the "
                    f"checkpoint recorded {entry!r}; the workloads or plans differ"
                )
        return len(history)

    # -- the run loop -------------------------------------------------------------
    def run(
        self,
        source: "str | Path | EventLogReader | EventStream | Iterable[Event]",
        speed: "str | float" = "instant",
        checkpoint_every: int = 0,
        checkpoint_dir: "str | Path | None" = None,
        resume_from: "str | Path | Checkpoint | None" = None,
        trace: "ReplayTrace | bool | None" = None,
        on_batch=None,
    ) -> ReplayReport:
        """Replay ``source`` to completion and report results + state hash.

        Parameters
        ----------
        source:
            An event-log path, an open :class:`~repro.events.log.EventLogReader`,
            an :class:`~repro.events.stream.EventStream`, or any
            timestamp-ordered event iterable.
        speed:
            ``"instant"`` (default), ``"realtime"``, or an ``Nx`` multiplier
            (``"4x"``, ``2.5``): sleeps between timestamp batches so stream
            time advances N units per wall-clock second.  Sleeping happens
            with the metrics timer paused.
        checkpoint_every:
            Write a checkpoint after every N timestamp batches (0 disables).
            Requires ``checkpoint_dir``.
        checkpoint_dir:
            Directory for the ``checkpoint-<events>.json`` files and the
            ``results.jsonl`` they point into (created if missing; ignored,
            and not created, when ``checkpoint_every`` is 0).  The report's
            ``results`` read that log: read them while the directory exists.
        resume_from:
            A checkpoint (object or file path) to restore before consuming
            the rest of the log; its fingerprint and engine config must
            match this runner's.  The results emitted before it, a prefix
            of the ``results.jsonl`` next to it, are counted and hashed as
            bytes and decoded only if the report's ``results`` are read.
        trace:
            ``True`` (record a fresh :class:`~repro.replay.trace.ReplayTrace`)
            or an existing trace to append to.  Each batch hashes a full
            export of the live state (open scopes, reorder buffer, counters)
            and digests the rows its batch emitted (each row still once): a
            debugging tool, not a fast path.
        on_batch:
            Optional callback ``on_batch(timestamp, batch_events)`` after each
            processed batch (timer paused; the events are built for it).
        """
        if checkpoint_every < 0:
            raise ValueError("checkpoint_every must be >= 0")
        if checkpoint_every and checkpoint_dir is None:
            raise ValueError("checkpoint_every needs a checkpoint_dir")

        checkpoint = None
        if resume_from is not None:
            checkpoint = (
                resume_from
                if isinstance(resume_from, Checkpoint)
                else load_checkpoint(resume_from)
            )
        # A resumed run continues in its checkpoint's strategy (unless panes=
        # pinned one); a fresh run of the same runner is the engine's choice.
        recorded_mode = checkpoint.engine_config.get("mode") if checkpoint else None
        session = self.engine.new_session(recorded_mode)
        config = dict(self.engine_config, mode=session.mode)
        applied_ops = 0
        events_consumed = 0
        prior_results = b""
        if checkpoint is not None:
            checkpoint.validate_against(self.fingerprint, config)
            # Snapshots restore structurally, so the churn prefix the
            # checkpointed session had applied (recompiled workloads, plan,
            # emission gates) must be re-applied on the fresh session first;
            # each re-applied op is verified against the snapshot's history.
            applied_ops = self._reapply_churn_prefix(session, checkpoint)
            prior_results = checkpoint.results_body()

        replay_trace: "ReplayTrace | None"
        if trace is True:
            replay_trace = ReplayTrace()
        else:
            replay_trace = trace or None

        sleep_per_unit = _parse_speed(speed)
        collector = session.collector
        checkpoints: list[Path] = []
        batches = 0
        # Pacing runs on an absolute schedule anchored at the first paced
        # batch: a batch at stream time t is due at
        # ``origin_clock + (t - origin_timestamp) * sleep_per_unit``, so the
        # sleep shrinks by however long processing the previous batches took
        # (clamped at 0) instead of drifting later by it.
        origin_timestamp: "int | None" = None
        origin_clock = 0.0

        def pace(timestamp: int) -> None:
            nonlocal origin_timestamp, origin_clock
            if origin_timestamp is None:
                origin_timestamp = timestamp
                origin_clock = time.perf_counter()
                return
            due_in = (timestamp - origin_timestamp) * sleep_per_unit - (
                time.perf_counter() - origin_clock
            )
            if due_in > 0:
                collector.stop()
                time.sleep(due_in)
                collector.start()

        results_log: "ResultsLogWriter | None" = None
        if checkpoint_every:
            checkpoint_dir = Path(checkpoint_dir)
            checkpoint_dir.mkdir(parents=True, exist_ok=True)
            # From here on every block of lines the session encodes (after
            # each batch, or earlier inside a snapshot or trace sample that
            # needed the digest) lands in the log, which replaces the
            # ledger's spill file: the log is their only copy.  Attached
            # before the restore, which then finds the restored prefix in it
            # and writes it nowhere else.  Closed when the run ends.
            results_log = ResultsLogWriter(checkpoint_dir / RESULTS_LOG_NAME, prior_results)
            session.ledger.attach_log(results_log)

        try:
            if checkpoint is not None:
                session.restore_state(checkpoint.engine_state, prior_results)
                events_consumed = checkpoint.events_consumed
            events = self._event_source(source, events_consumed)
            skipped = events_consumed
            # With max_lateness configured the session wraps the log in its
            # reorder feed; events_consumed then counts *log* events read
            # (including ones still buffered), which pairs with the buffer
            # snapshot inside the session export to make checkpoints exact.
            # Wrapped here so the feed's source position is at hand; the batch
            # loop passes a feed through unchanged.
            stream = session.ingest(events)
            feed = stream if stream is not events else None
            for timestamp, batch in session.drive(
                stream, self.churn.ops[applied_ops:], pace if sleep_per_unit else None
            ):
                if feed is not None:
                    events_consumed = skipped + feed.source_consumed
                else:
                    events_consumed += len(batch)
                batches += 1

                if on_batch is not None:
                    collector.stop()
                    on_batch(timestamp, list(batch))
                    collector.start()

                if replay_trace is not None:
                    collector.stop()
                    replay_trace.record(timestamp, events_consumed, session)
                    collector.start()

                if checkpoint_every and batches % checkpoint_every == 0:
                    collector.stop()
                    path = checkpoint_dir / f"checkpoint-{events_consumed:09d}.json"
                    # The export appends the newly emitted results to the log, so
                    # the offset read after it covers exactly what it counted.
                    state = session.export_state()
                    save_checkpoint(
                        Checkpoint(
                            events_consumed=events_consumed,
                            last_timestamp=timestamp,
                            workload_fingerprint=self.fingerprint,
                            engine_config=config,
                            engine_state=state,
                            results_offset=results_log.offset,
                        ),
                        path,
                    )
                    checkpoints.append(path)
                    collector.start()

            report = session.finish()
            final_hash = state_hash(session)
        finally:
            if results_log is not None:
                results_log.close()
        return ReplayReport(
            report=report,
            state_hash=final_hash,
            events_replayed=events_consumed - skipped,
            batches=batches,
            session=session,
            checkpoints=checkpoints,
            trace=replay_trace,
        )
