"""Runtime executors: online shared (Sharon), online non-shared (A-Seq), and
two-step baselines (Flink-like, SPASS-like)."""

from .aseq import ASeqExecutor
from .chained import PrefixFreeRunner, QueryChainState, SharedSegmentRunner
from .churn import ChurnOp, ChurnSchedule, ChurnState, load_churn_script, parse_churn_script
from .engine import (
    CompiledWorkload,
    EngineSession,
    ExecutionReport,
    StreamingEngine,
    WindowGroupScope,
)
from .metrics import MetricsCollector, RunMetrics
from .oracle import OracleBudgetExceeded, OracleExecutor, enumerate_sequences_naive
from .panes import CompiledPaneWorkload, PaneScope, WindowPaneAccumulator
from .prefix_agg import PrivateSegmentState, SharedSegmentState
from .results import QueryResult, ResultSet
from .sequences import enumerate_pattern_matches, join_sequences
from .shared import SharonExecutor, run_workload
from .twostep import FlinkLikeExecutor, SpassLikeExecutor, TwoStepBudgetExceeded

__all__ = [
    "ASeqExecutor",
    "QueryChainState",
    "SharedSegmentRunner",
    "PrefixFreeRunner",
    "ChurnOp",
    "ChurnSchedule",
    "ChurnState",
    "load_churn_script",
    "parse_churn_script",
    "CompiledWorkload",
    "EngineSession",
    "ExecutionReport",
    "StreamingEngine",
    "WindowGroupScope",
    "MetricsCollector",
    "RunMetrics",
    "OracleBudgetExceeded",
    "OracleExecutor",
    "enumerate_sequences_naive",
    "CompiledPaneWorkload",
    "PaneScope",
    "WindowPaneAccumulator",
    "PrivateSegmentState",
    "SharedSegmentState",
    "QueryResult",
    "ResultSet",
    "enumerate_pattern_matches",
    "join_sequences",
    "SharonExecutor",
    "run_workload",
    "FlinkLikeExecutor",
    "SpassLikeExecutor",
    "TwoStepBudgetExceeded",
]
