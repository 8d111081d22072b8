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
    max_lateness:
        Bounded-lateness disorder tolerance (``docs/disorder.md``); ``None``
        (default) keeps the strict in-order contract.
    late_policy:
        ``"raise"`` (default), ``"drop"``, or a callable side channel for
        events beyond the lateness bound.
    churn:
        Optional attach/detach schedule applied at batch boundaries while
        :meth:`run` consumes the stream (``docs/churn.md``); since A-Seq
        never shares, attached queries simply run unshared from their attach
        timestamp on.
    """

    name = "A-Seq"

    def __init__(
        self,
        workload: Workload,
        memory_sample_interval: int = 0,
        panes: "bool | None" = None,
        max_lateness: int | None = None,
        late_policy="raise",
        churn: "ChurnSchedule | Iterable[ChurnOp] | None" = None,
    ) -> None:
        if churn is None:
            churn = ChurnSchedule()
        elif not isinstance(churn, ChurnSchedule):
            churn = ChurnSchedule(churn)
        self.workload = workload
        self.churn = churn
        #: The engine this executor drives (``uses_panes`` is its strategy).
        self.engine = StreamingEngine(
            workload,
            plan=SharingPlan(),
            name=self.name,
            memory_sample_interval=memory_sample_interval,
            panes=panes,
            max_lateness=max_lateness,
            late_policy=late_policy,
        )

    def run(self, stream: "EventStream | Iterable[Event]") -> ExecutionReport:
        """Evaluate the workload over ``stream`` and return results + metrics."""
        if self.churn:
            return self.engine.run(stream, churn=self.churn)
        return self.engine.run(stream)
