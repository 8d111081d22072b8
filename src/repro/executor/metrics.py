"""Runtime metrics: latency, throughput, and peak memory (Section 8.1).

The paper reports three metrics for executors:

* **Latency** — average time between result output and the arrival of the
  latest contributing event.  In a replay setting (no wall-clock arrival
  times) the equivalent observable is the processing time spent per window,
  which is what :attr:`RunMetrics.avg_latency_ms` reports.
* **Throughput** — events processed per second across all queries.
* **Peak memory** — the maximum footprint of aggregates, stored events, and
  constructed sequences, approximated via
  :func:`~repro.utils.memory.deep_sizeof`.

A :class:`MetricsCollector` is threaded through every executor so that all of
them are measured identically.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, fields

from ..utils.memory import PeakMemoryTracker

__all__ = ["RunMetrics", "MetricsCollector"]


@dataclass
class RunMetrics:
    """Immutable summary of one executor run."""

    executor_name: str
    total_events: int = 0
    relevant_events: int = 0
    elapsed_seconds: float = 0.0
    windows_finalized: int = 0
    results_emitted: int = 0
    peak_memory_bytes: int = 0
    state_updates: int = 0
    #: START batches seen / coalesced into the newest anchor cohort (shared
    #: online engine only).
    cohorts_created: int = 0
    cohorts_merged: int = 0
    #: Pane × group scopes created / pane-into-window folds performed, one per
    #: live matrix view (pane-partitioned engine mode only; zero in per-instance mode).
    panes_created: int = 0
    pane_merges: int = 0
    #: Timestamp batches the engine routed as columnar micro-batches (one
    #: per batch; zero for the two-step executors and the oracle).
    columnar_batches: int = 0
    #: Events that arrived behind the watermark (beyond ``max_lateness``)
    #: and hit the late policy; ``events_dropped`` counts the subset the
    #: ``"drop"`` policy discarded (callback-routed events are late but not
    #: dropped).  Zero for in-order runs and runs without a reorder buffer.
    events_late: int = 0
    events_dropped: int = 0

    @property
    def events_per_pane(self) -> float:
        """Average relevant events absorbed per pane × group scope."""
        if self.panes_created <= 0:
            return 0.0
        return self.relevant_events / self.panes_created

    @property
    def throughput_events_per_second(self) -> float:
        """Events processed per second of executor time."""
        if self.elapsed_seconds <= 0:
            return float(self.total_events)
        return self.total_events / self.elapsed_seconds

    @property
    def avg_latency_ms(self) -> float:
        """Average processing time attributable to one window, in milliseconds."""
        windows = max(self.windows_finalized, 1)
        return self.elapsed_seconds / windows * 1000.0

    def summary(self) -> str:
        """One-line human-readable report (used by examples and benchmarks)."""
        return (
            f"{self.executor_name}: {self.total_events} events in "
            f"{self.elapsed_seconds * 1000:.1f} ms "
            f"({self.throughput_events_per_second:,.0f} ev/s, "
            f"{self.avg_latency_ms:.2f} ms/window, "
            f"peak {self.peak_memory_bytes / 1024:.1f} KiB, "
            f"{self.results_emitted} results)"
        )


#: The stream-determined counters a session snapshot carries: every
#: :class:`RunMetrics` field but the name, the timing and the memory peak.
_COUNTERS = tuple(
    f.name
    for f in fields(RunMetrics)
    if f.name not in ("executor_name", "elapsed_seconds", "peak_memory_bytes")
)


@dataclass
class MetricsCollector:
    """Mutable counters populated while an executor runs."""

    executor_name: str
    memory_sample_interval: int = 1
    total_events: int = 0
    relevant_events: int = 0
    windows_finalized: int = 0
    results_emitted: int = 0
    state_updates: int = 0
    cohorts_created: int = 0
    cohorts_merged: int = 0
    panes_created: int = 0
    pane_merges: int = 0
    columnar_batches: int = 0
    events_late: int = 0
    events_dropped: int = 0
    _memory: PeakMemoryTracker = field(default_factory=PeakMemoryTracker)
    _started_at: float | None = None
    _elapsed: float = 0.0
    _finalizations_seen: int = 0

    # -- timing ----------------------------------------------------------------
    def start(self) -> None:
        """Start (or resume) the executor's wall-clock timer."""
        self._started_at = time.perf_counter()

    def stop(self) -> None:
        """Pause the timer, accumulating the elapsed span (no-op if stopped)."""
        if self._started_at is None:
            return
        self._elapsed += time.perf_counter() - self._started_at
        self._started_at = None

    # -- counters ---------------------------------------------------------------
    def count_event(self, relevant: bool) -> None:
        """Count one processed event (scalar ingestion's per-event tally)."""
        self.total_events += 1
        if relevant:
            self.relevant_events += 1

    def count_window(self, results: int) -> None:
        """Count one finalized window that emitted ``results`` query results."""
        self.windows_finalized += 1
        self.results_emitted += results

    def maybe_sample_memory(self, *objects) -> None:
        """Sample memory at (a subset of) window finalizations.

        Sampling every window is exact but expensive for large runs; the
        interval lets benchmarks trade accuracy for speed.  An interval of 0
        disables sampling entirely.
        """
        if self.memory_sample_interval <= 0:
            return
        self._finalizations_seen += 1
        if self._finalizations_seen % self.memory_sample_interval:
            return
        self._memory.sample(*objects)

    # -- checkpointing ------------------------------------------------------------
    def export_counters(self) -> dict:
        """Snapshot the deterministic counters as a JSON-safe dict.

        Wall-clock time and peak memory are deliberately excluded: they are
        environment observations, not stream-determined state, and a resumed
        run re-measures them from its own start.  Everything exported here is
        a pure function of the consumed stream, so it participates in replay
        state hashes.
        """
        counters = {name: getattr(self, name) for name in _COUNTERS}
        counters["finalizations_seen"] = self._finalizations_seen
        return counters

    def restore_counters(self, counters: dict) -> None:
        """Restore counters exported by :meth:`export_counters`."""
        for name in _COUNTERS:
            setattr(self, name, counters[name])
        self._finalizations_seen = counters["finalizations_seen"]

    # -- reporting ---------------------------------------------------------------
    def finish(self) -> RunMetrics:
        """Stop the timer and freeze the counters into a :class:`RunMetrics`."""
        self.stop()
        return RunMetrics(
            executor_name=self.executor_name,
            elapsed_seconds=self._elapsed,
            peak_memory_bytes=self._memory.peak_bytes,
            **{name: getattr(self, name) for name in _COUNTERS},
        )
