"""The Sharon executor: shared online event sequence aggregation (Section 3.3).

Given a sharing plan — typically produced by the
:class:`~repro.core.optimizer.SharonOptimizer` — the executor computes the
aggregates of every shared pattern exactly once per window and group and
combines them with each sharing query's private prefix/suffix aggregates.
Queries not covered by any candidate fall back to the Non-Shared method, so
with an empty plan the executor behaves exactly like A-Seq (the paper notes
this degenerate case at the end of Section 6).
"""

from __future__ import annotations

from typing import Iterable

from ..core.benefit import BenefitModel
from ..core.optimizer import SharonOptimizer
from ..core.plan import SharingPlan
from ..events.event import Event
from ..events.stream import EventStream
from ..queries.workload import Workload
from ..utils.rates import RateCatalog
from .churn import ChurnOp, ChurnSchedule
from .engine import ExecutionReport, StreamingEngine

__all__ = ["SharonExecutor", "run_workload"]


class SharonExecutor:
    """Shared online executor guided by a sharing plan.

    Every :meth:`run` is a fresh engine session that its churn ops change,
    so the executor runs any number of times.

    Parameters
    ----------
    workload:
        The (uniform) query workload.
    plan:
        The sharing plan to follow.  When omitted, a plan is computed on the
        fly with the :class:`~repro.core.optimizer.SharonOptimizer` from
        ``rates`` (one of the two must be provided).
    rates:
        Rate catalog used to optimize when no plan is given.
    memory_sample_interval:
        How often (in finalized windows) to sample peak memory; ``0`` disables
        sampling.
    panes:
        Window-state strategy override.  ``None`` (the default) lets the
        engine choose from the window geometry
        (:meth:`StreamingEngine.panes_eligible`): pane-partitioned on
        overlapping windows (each event processed once per pane of width
        ``gcd(size, slide)``; see :mod:`repro.executor.panes`), per-instance
        on tumbling ones.  ``False`` pins
        the per-instance loop — the strategy in which the sharing plan acts —
        and ``True`` pins panes (tumbling windows still fall back).
    max_lateness:
        Bounded-lateness disorder tolerance (``docs/disorder.md``): when set,
        the engine accepts arrival orders shuffled up to this many time units
        through a watermark-driven reorder buffer.  ``None`` (the default)
        keeps the strict in-order contract.
    late_policy:
        What happens to events beyond the lateness bound: ``"raise"`` (the
        default), ``"drop"`` (counted in ``events_dropped``), or a callable
        side channel receiving each late event.
    churn:
        Optional :class:`~repro.executor.churn.ChurnSchedule` (or ops to
        build one from) of timestamped attach/detach/plan operations applied at
        batch boundaries while :meth:`run` consumes the stream
        (``docs/churn.md``).
    """

    name = "Sharon"

    def __init__(
        self,
        workload: Workload,
        plan: SharingPlan | None = None,
        rates: "RateCatalog | BenefitModel | None" = None,
        memory_sample_interval: int = 0,
        panes: "bool | None" = None,
        max_lateness: int | None = None,
        late_policy="raise",
        churn: "ChurnSchedule | Iterable[ChurnOp] | None" = None,
    ) -> None:
        if plan is None:
            if rates is None:
                raise ValueError("SharonExecutor needs either a sharing plan or a rate catalog")
            plan = SharonOptimizer(rates).optimize(workload).plan
        self.churn = churn
        #: The engine this executor drives (configuration only).
        self.engine = StreamingEngine(
            workload,
            plan=plan,
            name=self.name,
            memory_sample_interval=memory_sample_interval,
            panes=panes,
            max_lateness=max_lateness,
            late_policy=late_policy,
        )

    def run(self, stream: "EventStream | Iterable[Event]") -> ExecutionReport:
        """Evaluate the workload over ``stream`` according to the sharing plan."""
        return self.engine.run(stream, churn=self.churn)


def run_workload(
    workload: Workload,
    stream: "EventStream | Iterable[Event]",
    rates: "RateCatalog | BenefitModel | None" = None,
    plan: SharingPlan | None = None,
    memory_sample_interval: int = 0,
) -> ExecutionReport:
    """One-call convenience API: optimize (if needed) and execute a workload.

    This is the library's quickstart entry point::

        report = run_workload(workload, stream, rates=RateCatalog.from_stream(stream))
        for result in report.results:
            print(result)
    """
    if plan is None and rates is None:
        if not isinstance(stream, EventStream):  # sampled, then run: read a one-shot iterable once
            stream = EventStream(stream)
        rates = RateCatalog.from_stream(stream, per="window", window_size=workload[0].window.size)
    executor = SharonExecutor(
        workload, plan=plan, rates=rates, memory_sample_interval=memory_sample_interval
    )
    return executor.run(stream)
