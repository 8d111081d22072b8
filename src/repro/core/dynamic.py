"""Dynamic workloads: statistics monitoring, re-optimization, plan migration
(Section 7.4).

Even with a fixed query set, the stream's per-type rates fluctuate, so a
sharing plan chosen at compile time can become sub-optimal.  The paper
sketches the remedy: collect runtime statistics, trigger the optimizer when
they drift, and migrate from the old to the new plan without losing results
of stateful operators.

This module implements that control loop for the replay setting used in this
reproduction:

* :class:`RateMonitor` maintains per-type rate estimates over a sliding
  horizon and reports the relative drift against the rates the current plan
  was optimized for.
* :class:`AdaptiveSharonExecutor` drives a single
  :class:`~repro.executor.engine.StreamingEngine` session, observing the
  stream through the engine's batch hook, re-optimizing when drift exceeds
  the threshold, and switching the plan with the session's ``migrate`` —
  the same migration query churn uses.  Scopes that are already open finish
  under the plan they were created with, so migration is loss-free by
  construction — exactly the "no results are lost or corrupted" requirement
  the paper states for stateful operators.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Iterable

from ..events.event import Event, EventType
from ..events.stream import EventStream
from ..queries.workload import NonUniformWorkloadError, Workload
from ..utils.rates import RateCatalog
from .optimizer import SharonOptimizer
from .plan import SharingPlan

__all__ = ["RateMonitor", "MigrationRecord", "AdaptiveSharonExecutor"]


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

    def observe(self, event: Event) -> None:
        """Fold one event into the per-timestamp type counts.

        Events already outside the horizon (at or before ``latest - horizon``)
        are ignored: eviction only runs when the latest timestamp advances, so
        admitting them would grow ``_counts`` beyond the horizon — a single
        batch mixing fresh and stale timestamps used to inflate
        ``observed_time_units`` (and thus dilute ``current_rates``) until the
        next advance.
        """
        latest = self._latest_timestamp
        if latest is not None and event.timestamp <= latest - self.horizon:
            return
        bucket = self._counts.setdefault(event.timestamp, Counter())
        bucket[event.event_type] += 1
        if latest is None or event.timestamp > latest:
            self._latest_timestamp = event.timestamp
            self._evict()

    def observe_all(self, events: Iterable[Event]) -> None:
        for event in events:
            self.observe(event)

    def _evict(self) -> None:
        if self._latest_timestamp is None:
            return
        cutoff = self._latest_timestamp - self.horizon
        stale = [timestamp for timestamp in self._counts if timestamp <= cutoff]
        for timestamp in stale:
            del self._counts[timestamp]

    @property
    def observed_time_units(self) -> int:
        return len(self._counts)

    def current_rates(self) -> RateCatalog:
        """Rates (events per time unit) over the retained horizon."""
        if not self._counts:
            return RateCatalog(default_rate=0.0)
        totals: Counter = Counter()
        for bucket in self._counts.values():
            totals.update(bucket)
        span = max(len(self._counts), 1)
        return RateCatalog(
            {event_type: count / span for event_type, count in totals.items()},
            default_rate=0.0,
        )

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


@dataclass(frozen=True)
class MigrationRecord:
    """One plan switch performed by the adaptive executor."""

    at_timestamp: int
    drift: float
    old_plan_score: float
    new_plan_score: float


class AdaptiveSharonExecutor:
    """Shared online execution with runtime re-optimization (Section 7.4).

    The executor runs the workload through one streaming-engine pass.  Every
    ``check_interval`` time units it compares the rates observed over the
    monitor's horizon with the rates the current plan was optimized for; when
    the drift exceeds the threshold it re-runs the optimizer and installs the
    new plan through the session's ``migrate(workload, plan)``.  Results are
    identical to a static run with any plan — re-optimization only changes
    how future window instances compute their aggregates.

    Parameters
    ----------
    workload:
        Uniform query workload (same window everywhere).
    initial_rates:
        Rates used to pick the initial plan; when omitted, the first
        ``check_interval`` time units run with the empty plan (plain A-Seq)
        and the first optimization happens at the first checkpoint.
    check_interval:
        Time units between drift checks; defaults to the window size.
    drift_threshold:
        Relative rate drift that triggers re-optimization.
    optimizer_factory:
        Builds the optimizer used at every (re-)optimization; defaults to
        :class:`SharonOptimizer` with a small time budget.
    """

    def __init__(
        self,
        workload: Workload,
        initial_rates: RateCatalog | None = None,
        check_interval: int | None = None,
        drift_threshold: float = 0.5,
        optimizer_factory=None,
        memory_sample_interval: int = 0,
    ) -> None:
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
        self.monitor = RateMonitor(
            horizon=self.check_interval * 2, drift_threshold=drift_threshold
        )
        self.optimizer_factory = optimizer_factory or (
            lambda rates: SharonOptimizer(rates, time_budget_seconds=2.0)
        )
        self.initial_rates = initial_rates
        self.memory_sample_interval = memory_sample_interval
        #: Plans in force, in order; filled during :meth:`run`.
        self.plan_history: list[SharingPlan] = []
        #: Plan switches performed during the run.
        self.migrations: list[MigrationRecord] = []

    def _optimize(self, rates: RateCatalog) -> SharingPlan:
        result = self.optimizer_factory(rates).optimize(self.workload)
        return result.plan

    def run(self, stream: "EventStream | Iterable[Event]"):
        """Execute the workload adaptively over a replayed stream."""
        from ..executor.engine import StreamingEngine

        if self.initial_rates is not None:
            current_rates = self.initial_rates
            current_plan = self._optimize(current_rates)
        else:
            current_rates = None
            current_plan = SharingPlan()
        self.plan_history = [current_plan]
        self.migrations = []

        engine = StreamingEngine(
            self.workload,
            plan=current_plan,
            name="Sharon (adaptive)",
            memory_sample_interval=self.memory_sample_interval,
            # Plan migration acts on per-instance scopes; in a pane session
            # every migrate below would leave the work unchanged.
            panes=False,
        )
        session = engine.new_session()

        state = {"rates": current_rates, "plan": current_plan, "next_check": None}

        def on_batch(timestamp: int, batch) -> None:
            self.monitor.observe_all(batch)
            if state["next_check"] is None:
                state["next_check"] = timestamp + self.check_interval
                return
            if timestamp < state["next_check"]:
                return
            state["next_check"] = timestamp + self.check_interval

            observed = self.monitor.current_rates()
            if state["rates"] is None:
                drift = float("inf")
            else:
                drift = self.monitor.drift_against(state["rates"])
            if drift <= self.monitor.drift_threshold:
                return

            new_plan = self._optimize(observed)
            if new_plan != state["plan"]:
                self.migrations.append(
                    MigrationRecord(
                        at_timestamp=timestamp,
                        drift=min(drift, 1e9),
                        old_plan_score=state["plan"].score,
                        new_plan_score=new_plan.score,
                    )
                )
                session.migrate(self.workload, new_plan)
                state["plan"] = new_plan
                self.plan_history.append(new_plan)
            state["rates"] = observed

        return engine.run(stream, on_batch=on_batch, session=session)
