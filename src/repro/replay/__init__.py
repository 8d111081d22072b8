"""Deterministic replay: event logs in, byte-identical engine state out.

This package turns the engine's checkpoint hooks
(:meth:`~repro.executor.engine.StreamingEngine.new_session` and the
``export_state``/``restore_state`` methods threaded through every state
layer) into a user-facing subsystem:

* :class:`ReplayRunner` feeds a recorded event log — or any event iterable —
  through the engine at instant / realtime / Nx speed, optionally writing
  checkpoints every N timestamp batches and recording a per-batch state-hash
  trace.
* :mod:`~repro.replay.checkpoint` defines the checkpoint file format
  (engine snapshot + stream position + workload fingerprint + engine
  config), the results log the emitted results go to instead of into the
  snapshots, and validates both before resuming.
* :mod:`~repro.replay.trace` provides the canonical state hashing and the
  first-divergence locator used to debug two runs that should agree.

See ``docs/replay.md`` for the determinism contract.
"""

from .checkpoint import (
    RESULTS_LOG_NAME,
    Checkpoint,
    CheckpointError,
    describe_churn_op,
    load_checkpoint,
    save_checkpoint,
    workload_fingerprint,
)
from .runner import ReplayReport, ReplayRunner
from .trace import ReplayTrace, TraceEntry, canonical_json, first_divergence, state_hash

__all__ = [
    "RESULTS_LOG_NAME",
    "Checkpoint",
    "CheckpointError",
    "describe_churn_op",
    "load_checkpoint",
    "save_checkpoint",
    "workload_fingerprint",
    "ReplayReport",
    "ReplayRunner",
    "ReplayTrace",
    "TraceEntry",
    "canonical_json",
    "first_divergence",
    "state_hash",
]
