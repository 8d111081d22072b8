"""Optimizer front-ends: Greedy, Exhaustive, and Sharon (Section 8.3 setup).

All three consume a workload plus a rate catalog (or an explicit benefit
model) and produce a :class:`~repro.core.plan.SharingPlan` together with
phase-by-phase statistics, so the optimizer benchmarks (Figure 15) can report
latency and memory per phase exactly like the paper's stacked bars:

* **GreedyOptimizer** — Sharon graph construction, then the GWMIN plan
  finder.  Polynomial, but the plan may be far from optimal (Example 12).
* **ExhaustiveOptimizer** — graph construction, graph expansion (Section 7.1),
  then a brute-force sweep over *all* candidate subsets.  Exponential; the
  paper reports it failing beyond 20 queries.
* **SharonOptimizer** — graph construction, expansion, reduction
  (Section 5), and the level-wise sharing plan finder (Section 6).  Returns
  an optimal plan over the (expanded) graph while pruning most of the space.
  An optional time budget makes it fall back to the GWMIN plan, mirroring the
  escape hatch discussed at the end of Section 6.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Mapping

from ..queries.pattern import Pattern
from ..queries.workload import Workload
from ..utils.memory import deep_sizeof
from ..utils.rates import RateCatalog
from .benefit import BenefitModel
from .candidates import SharingCandidate
from .expansion import expand_sharon_graph
from .graph import SharonGraph, build_sharon_graph
from .gwmin import gwmin_plan
from .plan import SharingPlan
from .planner import PlanSearchStatistics, find_optimal_plan
from .reduction import reduce_sharon_graph

__all__ = [
    "OptimizationResult",
    "GreedyOptimizer",
    "ExhaustiveOptimizer",
    "SharonOptimizer",
]


@dataclass
class OptimizationResult:
    """A sharing plan plus the measurements the evaluation section reports."""

    plan: SharingPlan
    phase_seconds: dict[str, float] = field(default_factory=dict)
    phase_bytes: dict[str, int] = field(default_factory=dict)
    candidates_total: int = 0
    candidates_after_expansion: int = 0
    candidates_after_reduction: int = 0
    plans_considered: int = 0
    used_fallback: bool = False

    @property
    def total_seconds(self) -> float:
        return float(sum(self.phase_seconds.values()))

    @property
    def peak_bytes(self) -> int:
        return max(self.phase_bytes.values(), default=0)

    @property
    def score(self) -> float:
        return self.plan.score


class _BaseOptimizer:
    """Shared plumbing: benefit model resolution and graph construction."""

    def __init__(
        self,
        rates: "RateCatalog | BenefitModel",
        benefit_override: Callable[[SharingCandidate], float] | None = None,
    ) -> None:
        self.model = rates if isinstance(rates, BenefitModel) else BenefitModel(rates)
        self.benefit_override = benefit_override

    def build_graph(
        self,
        workload: Workload,
        result: OptimizationResult,
        sharable: Mapping[Pattern, tuple[str, ...]] | None = None,
    ) -> SharonGraph:
        started = time.perf_counter()
        graph = build_sharon_graph(
            workload, self.model, sharable=sharable, benefit_override=self.benefit_override
        )
        result.phase_seconds["graph construction"] = time.perf_counter() - started
        result.phase_bytes["graph construction"] = deep_sizeof(graph)
        result.candidates_total = len(graph)
        return graph


class GreedyOptimizer(_BaseOptimizer):
    """Graph construction followed by the GWMIN greedy plan finder."""

    def optimize(self, workload: Workload) -> OptimizationResult:
        result = OptimizationResult(plan=SharingPlan())
        graph = self.build_graph(workload, result)

        started = time.perf_counter()
        plan = gwmin_plan(graph)
        result.phase_seconds["GWMIN"] = time.perf_counter() - started
        result.phase_bytes["GWMIN"] = deep_sizeof(plan)
        result.plan = plan
        result.candidates_after_expansion = len(graph)
        result.candidates_after_reduction = len(graph)
        result.plans_considered = len(plan)
        return result


class ExhaustiveOptimizer(_BaseOptimizer):
    """Graph construction, expansion, and a full sweep of all subsets."""

    def __init__(
        self,
        rates: "RateCatalog | BenefitModel",
        benefit_override: Callable[[SharingCandidate], float] | None = None,
        expand: bool = False,
        max_candidates: int = 22,
    ) -> None:
        super().__init__(rates, benefit_override)
        self.expand = expand
        self.max_candidates = max_candidates

    def optimize(self, workload: Workload) -> OptimizationResult:
        result = OptimizationResult(plan=SharingPlan())
        graph = self.build_graph(workload, result)

        if self.expand:
            started = time.perf_counter()
            graph = expand_sharon_graph(
                graph, workload, model=self.model, benefit_of=self.benefit_override
            )
            result.phase_seconds["graph expansion"] = time.perf_counter() - started
            result.phase_bytes["graph expansion"] = deep_sizeof(graph)
        result.candidates_after_expansion = len(graph)
        result.candidates_after_reduction = len(graph)

        if len(graph) > self.max_candidates:
            raise RuntimeError(
                f"exhaustive search over {len(graph)} candidates "
                f"(> {self.max_candidates}) would not terminate in reasonable time; "
                "this mirrors the paper's observation that the exhaustive optimizer "
                "fails beyond 20 queries"
            )

        started = time.perf_counter()
        vertices = graph.vertices
        best: tuple[SharingCandidate, ...] = ()
        best_score = 0.0
        explored = 0
        for mask in range(1 << len(vertices)):
            subset = tuple(vertices[i] for i in range(len(vertices)) if mask >> i & 1)
            explored += 1
            if not graph.is_independent_set(subset):
                continue
            score = sum(c.benefit for c in subset)
            if score > best_score:
                best, best_score = subset, score
        result.phase_seconds["exhaustive search"] = time.perf_counter() - started
        result.phase_bytes["exhaustive search"] = deep_sizeof(best)
        result.plans_considered = explored
        result.plan = SharingPlan(best)
        return result


class SharonOptimizer(_BaseOptimizer):
    """The full Sharon optimizer pipeline (Sections 4–7).

    Parameters
    ----------
    rates:
        Rate catalog or benefit model for candidate weighing.
    expand:
        Whether to apply sharing-conflict resolution (Section 7.1) before the
        search.  The paper's executor experiments use the expanded graph;
        expansion is worst-case exponential in the number of conflicts
        (Equation 14), so it is off by default and should be enabled for
        workloads of moderate candidate counts (as in Figure 15).
    time_budget_seconds:
        Optional cap on the plan-finder phase.  When the (estimated) search
        would exceed it, the optimizer returns the GWMIN plan instead and
        flags ``used_fallback`` — the behaviour sketched at the end of
        Section 6.
    benefit_override:
        Optional replacement of the benefit model (test fixtures).
    """

    def __init__(
        self,
        rates: "RateCatalog | BenefitModel",
        expand: bool = False,
        time_budget_seconds: float | None = None,
        benefit_override: Callable[[SharingCandidate], float] | None = None,
        max_options_per_candidate: int = 32,
    ) -> None:
        super().__init__(rates, benefit_override)
        self.expand = expand
        self.time_budget_seconds = time_budget_seconds
        self.max_options_per_candidate = max_options_per_candidate

    def optimize(self, workload: Workload) -> OptimizationResult:
        result = OptimizationResult(plan=SharingPlan())
        graph = self.build_graph(workload, result)

        if self.expand:
            started = time.perf_counter()
            graph = expand_sharon_graph(
                graph,
                workload,
                model=self.model,
                benefit_of=self.benefit_override,
                max_options_per_candidate=self.max_options_per_candidate,
            )
            result.phase_seconds["graph expansion"] = time.perf_counter() - started
            result.phase_bytes["graph expansion"] = deep_sizeof(graph)
        result.candidates_after_expansion = len(graph)

        started = time.perf_counter()
        reduction = reduce_sharon_graph(graph)
        result.phase_seconds["graph reduction"] = time.perf_counter() - started
        result.phase_bytes["graph reduction"] = deep_sizeof(reduction.reduced_graph)
        result.candidates_after_reduction = len(reduction.reduced_graph)

        started = time.perf_counter()
        statistics = PlanSearchStatistics()
        if self._should_fall_back(reduction.reduced_graph):
            plan = gwmin_plan(graph)
            result.used_fallback = True
        else:
            plan = find_optimal_plan(
                reduction.reduced_graph, reduction.conflict_free, statistics
            )
        result.phase_seconds["plan finder"] = time.perf_counter() - started
        result.phase_bytes["plan finder"] = deep_sizeof(plan)
        result.plans_considered = statistics.plans_considered
        result.plan = plan
        return result

    def _should_fall_back(self, reduced_graph: SharonGraph) -> bool:
        """Fall back to GWMIN when the valid search space is clearly too large.

        The estimate is deliberately crude (the paper constrains optimization
        by wall-clock seconds); we translate the time budget into a candidate
        budget assuming the worst case ``2^n`` valid plans.
        """
        if self.time_budget_seconds is None:
            return False
        # Roughly 3e5 plans per second for the pure-Python finder.
        plan_budget = max(1.0, self.time_budget_seconds * 3e5)
        return 2 ** len(reduced_graph) > plan_budget
