"""Experiment scenarios, figure runners, and plain-text rendering."""

from .figures import (
    FigureResult,
    run_all_figures,
    run_figure13,
    run_figure14_events,
    run_figure14_lengths,
    run_figure14_queries,
    run_figure15,
    run_figure16,
)
from .render import format_table
from .scenarios import (
    EXECUTOR_NAMES,
    ExecutorRun,
    dense_scenario,
    ec_scenario,
    greedy_plan,
    lr_scenario,
    optimize,
    run_executor,
    tx_scenario,
)

__all__ = [
    "FigureResult",
    "run_all_figures",
    "run_figure13",
    "run_figure14_events",
    "run_figure14_lengths",
    "run_figure14_queries",
    "run_figure15",
    "run_figure16",
    "format_table",
    "EXECUTOR_NAMES",
    "ExecutorRun",
    "dense_scenario",
    "ec_scenario",
    "greedy_plan",
    "lr_scenario",
    "optimize",
    "run_executor",
    "tx_scenario",
]
