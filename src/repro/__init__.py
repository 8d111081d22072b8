"""Reproduction of "Sharon: Shared Online Event Sequence Aggregation" (ICDE 2018).

The package is organised as follows:

* :mod:`repro.events`   — events, streams, sliding windows, the event log.
* :mod:`repro.queries`  — patterns, predicates, aggregates, queries, parser.
* :mod:`repro.core`     — the Sharon optimizer: benefit model, Sharon graph,
  GWMIN, graph reduction, plan finder, conflict resolution.
* :mod:`repro.executor` — runtime executors: Sharon (shared online), A-Seq
  (non-shared online), Flink-like and SPASS-like two-step baselines.
* :mod:`repro.datasets` — Taxi / Linear Road / E-commerce simulators and
  workload generators.
* :mod:`repro.utils`    — rate catalog and memory measurement.

The most common entry points are re-exported here; see ``README.md`` for a
quickstart and ``examples/`` for end-to-end scripts.
"""

from .core import (
    BenefitModel,
    ExhaustiveOptimizer,
    GreedyOptimizer,
    OptimizationResult,
    SharingCandidate,
    SharingPlan,
    SharonGraph,
    SharonOptimizer,
    build_sharon_graph,
)
from .events import Event, EventStream, SlidingWindow, WindowInstance
from .executor import (
    ASeqExecutor,
    ExecutionReport,
    FlinkLikeExecutor,
    ResultSet,
    RunMetrics,
    SharonExecutor,
    SpassLikeExecutor,
    run_workload,
)
from .queries import (
    AggregateSpec,
    Pattern,
    PredicateSet,
    Query,
    Workload,
    parse_query,
)
from .utils import RateCatalog

__version__ = "1.0.0"

__all__ = [
    "BenefitModel",
    "ExhaustiveOptimizer",
    "GreedyOptimizer",
    "OptimizationResult",
    "SharingCandidate",
    "SharingPlan",
    "SharonGraph",
    "SharonOptimizer",
    "build_sharon_graph",
    "Event",
    "EventStream",
    "SlidingWindow",
    "WindowInstance",
    "ASeqExecutor",
    "ExecutionReport",
    "FlinkLikeExecutor",
    "ResultSet",
    "RunMetrics",
    "SharonExecutor",
    "SpassLikeExecutor",
    "run_workload",
    "AggregateSpec",
    "Pattern",
    "PredicateSet",
    "Query",
    "Workload",
    "parse_query",
    "RateCatalog",
    "__version__",
]
