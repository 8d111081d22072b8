"""Dynamic workloads: statistics monitoring, re-optimization, plan migration
(Section 7.4).

Even with a fixed query set, the stream's per-type rates fluctuate, so a
sharing plan chosen at compile time can become sub-optimal.  The paper
sketches the remedy: collect runtime statistics, trigger the optimizer when
they drift, and migrate from the old to the new plan without losing results
of stateful operators.

This module implements that control loop as a policy on the engine's one
batch loop:

* :class:`RateMonitor` maintains per-type rate estimates over a sliding
  horizon and reports the relative drift against the rates the current plan
  was optimized for.
* :class:`AdaptiveSharonExecutor` iterates a session's ``drive`` and, when
  drift makes the optimizer pick another plan, applies a ``plan`` churn op —
  the migration attach and detach use too, so scopes that are already open
  finish under the plan they were created with: no results are lost or
  corrupted, the requirement the paper states for stateful operators.
"""

from __future__ import annotations

from collections import Counter
from typing import TYPE_CHECKING, Iterable

from ..events.event import Event, EventType
from ..events.stream import EventStream
from ..queries.workload import NonUniformWorkloadError, Workload
from ..utils.rates import RateCatalog
from .optimizer import SharonOptimizer
from .plan import SharingPlan

if TYPE_CHECKING:  # pragma: no cover - the engine layer sits above this module
    from ..events.columnar import ColumnarBatch

__all__ = ["RateMonitor", "AdaptiveSharonExecutor"]


class RateMonitor:
    """Sliding-horizon estimator of per-type event rates.

    Parameters
    ----------
    horizon:
        Number of most recent time units considered when estimating rates.
    drift_threshold:
        Relative change of a type's rate (against the reference rates) that
        counts as drift; the monitor reports drift when *any* type moves by
        more than this fraction.
    """

    def __init__(self, horizon: int = 300, drift_threshold: float = 0.5) -> None:
        if horizon <= 0:
            raise ValueError("horizon must be positive")
        if drift_threshold <= 0:
            raise ValueError("drift_threshold must be positive")
        self.horizon = horizon
        self.drift_threshold = drift_threshold
        self._counts: dict[int, Counter] = {}
        self._latest_timestamp: int | None = None

    def observe(self, batch: "ColumnarBatch", types: tuple[str, ...]) -> None:
        """Count one routed batch's relevant rows per type; ``types`` names its layout's type ids.

        A batch already outside the horizon (at or before ``latest -
        horizon``) is ignored: admitting it would grow the counts beyond the
        horizon and dilute :meth:`current_rates`.
        """
        timestamp = batch.timestamp
        latest = self._latest_timestamp
        if latest is not None and timestamp <= latest - self.horizon:
            return
        type_ids = batch.type_ids
        self._counts.setdefault(timestamp, Counter()).update(
            types[type_ids[i]] for i in batch.relevant
        )
        if latest is None or timestamp > latest:
            self._latest_timestamp = timestamp
            cutoff = timestamp - self.horizon
            for stale in [t for t in self._counts if t <= cutoff]:
                del self._counts[stale]

    @property
    def observed_time_units(self) -> int:
        return len(self._counts)

    def current_rates(self) -> RateCatalog:
        """Rates (events per time unit) over the retained horizon."""
        totals: Counter = sum(self._counts.values(), Counter())
        span = max(len(self._counts), 1)
        return RateCatalog({t: count / span for t, count in totals.items()}, default_rate=0.0)

    def drift_against(self, reference: RateCatalog) -> float:
        """Largest relative rate change of any observed type vs. ``reference``."""
        current = self.current_rates()
        drift = 0.0
        types: set[EventType] = set(current.rates) | set(reference.rates)
        for event_type in types:
            new = current.rates.get(event_type, 0.0)
            old = reference.rates.get(event_type, 0.0)
            if old == 0.0 and new == 0.0:
                continue
            baseline = old if old > 0 else new
            drift = max(drift, abs(new - old) / baseline)
        return drift

    def has_drifted(self, reference: RateCatalog) -> bool:
        return self.drift_against(reference) > self.drift_threshold


class AdaptiveSharonExecutor:
    """Shared online execution with runtime re-optimization (Section 7.4).

    Each :meth:`run` drives a fresh streaming-engine session under the
    engine's window strategy, watched by a fresh :class:`RateMonitor`, so
    runs over the same stream decide the same ops.  Every ``check_interval``
    time units it compares the rates observed over the monitor's horizon with the
    rates the current plan was optimized for; when the drift exceeds the
    threshold it re-runs the optimizer and, if the plan changes, applies
    ``ChurnOp("plan", timestamp + 1, plan=new_plan)`` between batches.
    Results are identical to a static run with any plan.  What a run decided
    is :attr:`plan` and :attr:`ops`, which ``ReplayRunner(workload,
    plan=executor.plan, churn=executor.ops)`` replays, checkpoints and
    resumes.

    Parameters
    ----------
    workload:
        Uniform query workload (same window everywhere).
    initial_rates:
        Rates used to pick the initial plan; when omitted, the first
        ``check_interval`` time units run with the empty plan (plain A-Seq)
        and the first optimization happens at the first drift check.
    check_interval:
        Time units between drift checks; defaults to the window size.
    drift_threshold:
        Relative rate drift that triggers re-optimization.
    """

    def __init__(
        self,
        workload: Workload,
        initial_rates: RateCatalog | None = None,
        check_interval: int | None = None,
        drift_threshold: float = 0.5,
    ) -> None:
        from ..executor.churn import ChurnSchedule

        if len(workload) == 0:
            raise ValueError("cannot execute an empty workload")
        if not workload.is_uniform():
            raise NonUniformWorkloadError(
                "AdaptiveSharonExecutor requires a uniform workload; "
                "use MultiContextExecutor for heterogeneous ones"
            )
        self.workload = workload
        window = workload[0].window
        self.check_interval = check_interval if check_interval is not None else window.size
        if self.check_interval <= 0:
            raise ValueError("check_interval must be positive")
        #: The last :meth:`run`'s monitor (each run starts a fresh one).
        self.monitor = RateMonitor(horizon=self.check_interval * 2, drift_threshold=drift_threshold)
        self.initial_rates = initial_rates
        #: The plan the last :meth:`run` started with.
        self.plan = SharingPlan()
        #: The plan ops the last :meth:`run` applied, in order.
        self.ops = ChurnSchedule()

    def _optimize(self, rates: RateCatalog) -> SharingPlan:
        return SharonOptimizer(rates, time_budget_seconds=2.0).optimize(self.workload).plan

    def run(self, stream: "EventStream | Iterable[Event]"):
        """Execute the workload adaptively over a replayed stream."""
        from ..executor.churn import ChurnOp, ChurnSchedule
        from ..executor.engine import StreamingEngine

        rates = self.initial_rates
        plan = self._optimize(rates) if rates is not None else SharingPlan()
        session = StreamingEngine(self.workload, plan=plan, name="Sharon (adaptive)").new_session()
        types = session.compiled.layout.types
        if rates is not None:  # the monitor sees only the workload's types
            rates = RateCatalog({t: rates.rates.get(t, 0.0) for t in types}, default_rate=0.0)
        self.plan, ops = plan, []
        monitor = self.monitor = RateMonitor(self.monitor.horizon, self.monitor.drift_threshold)
        next_check = None
        for timestamp, batch in session.drive(stream):
            monitor.observe(batch, types)
            if next_check is None:
                next_check = timestamp + self.check_interval
            if timestamp < next_check:
                continue
            next_check = timestamp + self.check_interval
            if rates is not None and not monitor.has_drifted(rates):
                continue
            observed = monitor.current_rates()
            new_plan = self._optimize(observed)
            if new_plan != plan:
                ops.append(ChurnOp("plan", timestamp + 1, plan=new_plan))
                session.apply_churn_op(ops[-1])
                plan = new_plan
            rates = observed
        self.ops = ChurnSchedule(ops)
        return session.finish()
