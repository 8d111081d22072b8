"""Sharon's core contribution: benefit model, graph, pruning, plan finder."""

from .benefit import BenefitBreakdown, BenefitModel
from .candidates import SharingCandidate, build_candidates, detect_sharable_patterns
from .conflicts import ConflictDetector, SharingConflict
from .dynamic import AdaptiveSharonExecutor, RateMonitor
from .expansion import expand_candidate, expand_sharon_graph
from .graph import SharonGraph, build_sharon_graph
from .gwmin import gwmin_independent_set, gwmin_plan
from .optimizer import ExhaustiveOptimizer, GreedyOptimizer, OptimizationResult, SharonOptimizer
from .plan import PlanSegment, QueryDecomposition, SharingPlan
from .planner import (
    PlanSearchStatistics,
    conflict_sets,
    find_optimal_plan,
    generate_next_level,
)
from .reduction import ReductionResult, reduce_sharon_graph, reduction_search_space_savings
from .segmentation import ExecutionContext, MultiContextExecutor, split_into_contexts

__all__ = [
    "BenefitBreakdown",
    "BenefitModel",
    "AdaptiveSharonExecutor",
    "RateMonitor",
    "ExecutionContext",
    "MultiContextExecutor",
    "split_into_contexts",
    "SharingCandidate",
    "build_candidates",
    "detect_sharable_patterns",
    "ConflictDetector",
    "SharingConflict",
    "expand_candidate",
    "expand_sharon_graph",
    "SharonGraph",
    "build_sharon_graph",
    "gwmin_independent_set",
    "gwmin_plan",
    "ExhaustiveOptimizer",
    "GreedyOptimizer",
    "OptimizationResult",
    "SharonOptimizer",
    "PlanSegment",
    "QueryDecomposition",
    "SharingPlan",
    "PlanSearchStatistics",
    "conflict_sets",
    "find_optimal_plan",
    "generate_next_level",
    "ReductionResult",
    "reduce_sharon_graph",
    "reduction_search_space_savings",
]
