"""A-Seq: the non-shared online baseline (Section 3.2, [24]).

A-Seq aggregates event sequences online — no sequence is ever constructed —
but evaluates every query independently of the others, repeating the work for
patterns that several queries have in common.  In this library it is the
:class:`~repro.executor.engine.StreamingEngine` run with an *empty* sharing
plan: each query keeps one private prefix-aggregation state spanning its
whole pattern, which is exactly the per-query count maintenance of
Figure 6.
"""

from __future__ import annotations

from typing import Iterable

from ..core.plan import SharingPlan
from ..events.event import Event
from ..events.stream import EventStream
from ..queries.workload import Workload
from .churn import ChurnOp, ChurnSchedule
from .engine import ExecutionReport, StreamingEngine
from .sharding import ShardedEngine

__all__ = ["ASeqExecutor"]


class ASeqExecutor:
    """Online, non-shared event sequence aggregation.

    Parameters
    ----------
    workload:
        The queries to evaluate.  Must be uniform (same window, predicates,
        and grouping) like all executors in this library; non-uniform
        workloads should be segmented per context first (Section 7.2).
    memory_sample_interval:
        How often (in finalized windows) to sample peak memory; ``0``
        disables sampling for maximum throughput.
    panes:
        Window-state strategy override: ``None`` (default) lets the engine
        choose from the window geometry, ``False`` pins the per-instance
        loop (A-Seq proper), ``True`` pins pane-partitioned evaluation (each
        event processed once per pane instead of once per covering window
        instance; tumbling windows still fall back).
    columnar:
        Route ingestion through columnar micro-batches (on by default);
        ``False`` selects the scalar per-event reference path.
    shards:
        Group-sharded parallel execution across worker processes
        (:class:`~repro.executor.sharding.ShardedEngine`); ``1`` (default)
        keeps the in-process engine, and unshardable workloads fall back.
    shard_strategy:
        ``"greedy"`` (count-balanced, default) or ``"hash"``; only used when
        ``shards > 1``.
    start_method:
        :mod:`multiprocessing` start method for shard workers (``None`` =
        platform default; spawn-safe).
    max_lateness:
        Bounded-lateness disorder tolerance (``docs/disorder.md``); ``None``
        (default) keeps the strict in-order contract.  Incompatible with
        ``shards > 1``.
    late_policy:
        ``"raise"`` (default), ``"drop"``, or a callable side channel for
        events beyond the lateness bound.
    churn:
        Optional attach/detach schedule applied at batch boundaries while
        :meth:`run` consumes the stream (``docs/churn.md``); since A-Seq
        never shares, attached queries simply run unshared from their attach
        timestamp on.  Incompatible with ``shards > 1``.
    """

    name = "A-Seq"

    def __init__(
        self,
        workload: Workload,
        memory_sample_interval: int = 0,
        panes: "bool | None" = None,
        columnar: bool = True,
        shards: int = 1,
        shard_strategy: str = "greedy",
        start_method: str | None = None,
        max_lateness: int | None = None,
        late_policy="raise",
        churn: "ChurnSchedule | Iterable[ChurnOp] | None" = None,
    ) -> None:
        if shards < 1:
            raise ValueError(f"shards must be >= 1, got {shards}")
        if shards > 1 and max_lateness is not None:
            raise ValueError(
                "max_lateness is not supported with shards > 1: the shard "
                "splitter consumes the stream in timestamp order — reorder "
                "upstream of the sharded engine instead"
            )
        if churn is None:
            churn = ChurnSchedule()
        elif not isinstance(churn, ChurnSchedule):
            churn = ChurnSchedule(churn)
        if churn and shards > 1:
            raise ValueError(
                "query churn is not supported with shards > 1: the shard "
                "workers run fixed workload copies — churn the in-process "
                "engine, or restart the sharded run with the new workload"
            )
        self.workload = workload
        self.churn = churn
        #: The engine this executor drives (``uses_panes`` is its strategy).
        if shards > 1:
            self.engine: "StreamingEngine | ShardedEngine" = ShardedEngine(
                workload,
                plan=SharingPlan(),
                shards=shards,
                strategy=shard_strategy,
                name=self.name,
                memory_sample_interval=memory_sample_interval,
                panes=panes,
                columnar=columnar,
                start_method=start_method,
            )
        else:
            self.engine = StreamingEngine(
                workload,
                plan=SharingPlan(),
                name=self.name,
                memory_sample_interval=memory_sample_interval,
                panes=panes,
                columnar=columnar,
                max_lateness=max_lateness,
                late_policy=late_policy,
            )

    def run(self, stream: "EventStream | Iterable[Event]") -> ExecutionReport:
        """Evaluate the workload over ``stream`` and return results + metrics."""
        if self.churn:
            return self.engine.run(stream, churn=self.churn)
        return self.engine.run(stream)
