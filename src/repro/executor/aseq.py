"""A-Seq: the non-shared online baseline (Section 3.2, [24]).

A-Seq aggregates event sequences online — no sequence is ever constructed —
but evaluates every query independently of the others, repeating the work for
patterns that several queries have in common.  In this library it is the
:class:`~repro.executor.shared.SharonExecutor` with an *empty* sharing plan:
each query keeps one private prefix-aggregation state spanning its whole
pattern, which is exactly the per-query count maintenance of Figure 6.
"""

from __future__ import annotations

from typing import Iterable

from ..core.plan import SharingPlan
from ..queries.workload import Workload
from .churn import ChurnOp, ChurnSchedule
from .shared import SharonExecutor

__all__ = ["ASeqExecutor"]


class ASeqExecutor(SharonExecutor):
    """Online, non-shared event sequence aggregation: Sharon with the empty plan.

    Takes the :class:`~repro.executor.shared.SharonExecutor` options except
    ``plan`` and ``rates``: ``panes=False`` pins the per-instance loop (A-Seq
    proper), and since A-Seq never shares, queries a ``churn`` schedule
    attaches simply run unshared from their attach timestamp on.
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
        super().__init__(
            workload,
            plan=SharingPlan(),
            memory_sample_interval=memory_sample_interval,
            panes=panes,
            max_lateness=max_lateness,
            late_policy=late_policy,
            churn=churn,
        )
