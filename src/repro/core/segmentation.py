"""Context segmentation for heterogeneous workloads (Section 7.2).

The core Sharon model assumes that all queries agree on predicates, grouping,
and windows (Section 2.1, assumption 2).  Section 7.2 relaxes this by
partitioning the workload into *contexts* — groups of queries with identical
window, predicates, and grouping — and applying Sharon within each context:
patterns are only shared among queries that can actually reuse each other's
aggregates, and the stream is evaluated once per context.

This module provides that partitioning plus a convenience runner
(:class:`MultiContextExecutor`) that optimizes and executes every context and
merges results and metrics.  The refinement strategies the paper cites for
sharing *across* different windows/predicates (stream slicing à la
[14, 17, 7, 20]) are orthogonal and not reimplemented here; contexts are
evaluated independently, which is the fallback behaviour the paper describes.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import Iterable

from ..events.event import Event
from ..events.stream import EventStream
from ..queries.query import Query
from ..queries.workload import Workload
from ..utils.rates import RateCatalog
from .benefit import BenefitModel
from .optimizer import OptimizationResult, SharonOptimizer
from .plan import SharingPlan

__all__ = ["ExecutionContext", "split_into_contexts", "MultiContextExecutor"]


@dataclass(frozen=True)
class ContextKey:
    """The parts of a query that must agree for aggregate sharing."""

    window_size: int
    window_slide: int
    group_by: tuple[str, ...]
    predicates_repr: str

    @classmethod
    def of(cls, query: Query) -> "ContextKey":
        return cls(
            window_size=query.window.size,
            window_slide=query.window.slide,
            group_by=query.group_by,
            predicates_repr=repr(query.predicates),
        )


@dataclass
class ExecutionContext:
    """One uniform slice of a heterogeneous workload."""

    name: str
    workload: Workload
    plan: SharingPlan = field(default_factory=SharingPlan)
    optimization: OptimizationResult | None = None

    @property
    def query_names(self) -> tuple[str, ...]:
        return self.workload.query_names()


def split_into_contexts(workload: Workload) -> list[ExecutionContext]:
    """Partition a workload into maximal uniform contexts.

    Queries sharing window, predicates, and grouping end up in the same
    context; the relative query order inside each context follows the input
    workload.  The result is deterministic (contexts ordered by first query).
    """
    buckets: dict[ContextKey, list[Query]] = {}
    order: list[ContextKey] = []
    for query in workload:
        key = ContextKey.of(query)
        if key not in buckets:
            buckets[key] = []
            order.append(key)
        buckets[key].append(query)
    contexts = []
    for index, key in enumerate(order):
        queries = buckets[key]
        contexts.append(
            ExecutionContext(
                name=f"{workload.name}-ctx{index + 1}",
                workload=Workload(queries, name=f"{workload.name}-ctx{index + 1}"),
            )
        )
    return contexts


class MultiContextExecutor:
    """Optimize and execute a heterogeneous workload context by context.

    Parameters
    ----------
    workload:
        Any workload; it is split with :func:`split_into_contexts`.
    rates:
        Rate catalog or benefit model handed to the per-context optimizers.
        When omitted, rates are estimated from the stream at :meth:`run` time.
    optimizer_factory:
        Callable building an optimizer from a rate source; defaults to
        :class:`~repro.core.optimizer.SharonOptimizer` with default settings.
    memory_sample_interval:
        Forwarded to the per-context executors.
    """

    def __init__(
        self,
        workload: Workload,
        rates: "RateCatalog | BenefitModel | None" = None,
        optimizer_factory=None,
        memory_sample_interval: int = 0,
    ) -> None:
        self.workload = workload
        self.rates = rates
        self.optimizer_factory = optimizer_factory or (lambda r: SharonOptimizer(r))
        self.memory_sample_interval = memory_sample_interval
        self.contexts = split_into_contexts(workload)

    def optimize(self, rates: "RateCatalog | BenefitModel") -> list[ExecutionContext]:
        """Run the optimizer once per context and record plans in place."""
        for context in self.contexts:
            optimizer = self.optimizer_factory(rates)
            result = optimizer.optimize(context.workload)
            context.plan = result.plan
            context.optimization = result
        return self.contexts

    def run(self, stream: "EventStream | Iterable[Event]"):
        """Optimize (if needed) and execute every context over ``stream``.

        Returns
        -------
        ExecutionReport
            Results of all queries across all contexts; every metric is
            summed over contexts but the memory peak, their maximum (total
            events counts each stream pass, mirroring the fact that every
            context scans the stream).
        """
        from ..executor.engine import ExecutionReport
        from ..executor.metrics import RunMetrics
        from ..executor.results import ResultSet
        from ..executor.shared import SharonExecutor

        if isinstance(stream, EventStream):
            event_stream = stream
        else:
            event_stream = EventStream(stream)

        rates = self.rates
        if rates is None:
            rates = RateCatalog.from_stream(event_stream, per="time-unit")
        if any(context.optimization is None for context in self.contexts):
            self.optimize(rates)

        merged_results = ResultSet()
        parts = []
        combined_plan = SharingPlan()
        for context in self.contexts:
            executor = SharonExecutor(
                context.workload,
                plan=context.plan,
                memory_sample_interval=self.memory_sample_interval,
            )
            report = executor.run(event_stream)
            for result in report.results:
                merged_results.add(result)
            parts.append(report.metrics)
            combined_plan = combined_plan.union(context.plan)
        summed = {
            f.name: sum(getattr(part, f.name) for part in parts)
            for f in fields(RunMetrics)
            if f.name != "executor_name"
        }
        summed["peak_memory_bytes"] = max((part.peak_memory_bytes for part in parts), default=0)
        total = RunMetrics(executor_name="Sharon (multi-context)", **summed)
        return ExecutionReport(results=merged_results, metrics=total, plan=combined_plan)
