"""Checkpoint files: a stream position plus a full engine-state snapshot.

A checkpoint captures everything needed to resume a replay such that the
resumed run is byte-identical to one that consumed the whole stream:

* ``events_consumed`` — how many events of the log the session has fully
  processed (the seek index for :meth:`~repro.events.log.EventLogReader.events_from`);
* ``last_timestamp`` — the timestamp of the last processed batch
  (informational; the engine state already encodes it);
* ``workload_fingerprint`` — sha256 over a structural description of the
  workload and sharing plan, so a checkpoint cannot silently resume against
  different queries;
* ``engine_config`` — the toggles (mode/columnar/compaction) the exporting
  engine ran with, validated on restore;
* ``engine_state`` — the session snapshot
  (:meth:`~repro.executor.engine.EngineSession.export_state`), including
  emitted results and deterministic metrics counters.

Checkpoints are only taken between timestamp batches (the engine's state
layers refuse to export staged mid-batch state), which is also why resume
can seek the log by a plain event count.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass
from pathlib import Path

from ..core.plan import SharingPlan
from ..queries.workload import Workload
from .trace import canonical_json

__all__ = [
    "CHECKPOINT_FORMAT",
    "CHECKPOINT_VERSION",
    "CheckpointError",
    "Checkpoint",
    "workload_fingerprint",
    "describe_churn_op",
    "save_checkpoint",
    "load_checkpoint",
]

#: Format marker stored in (and demanded of) every checkpoint file.
CHECKPOINT_FORMAT = "repro-checkpoint"

#: Current schema version; loaders reject checkpoints from a different one.
CHECKPOINT_VERSION = 1


class CheckpointError(ValueError):
    """Raised for malformed/incompatible checkpoints (format, version, config)."""


def _query_description(query) -> dict:
    """Structural, serialisation-stable description of one query."""
    predicates = query.predicates
    return {
        "name": query.name,
        "pattern": list(query.pattern.event_types),
        "window": [query.window.size, query.window.slide],
        "aggregate": repr(query.aggregate),
        "equivalences": sorted(p.attribute for p in predicates.equivalences),
        "filters": sorted(
            [f.attribute, f.op, repr(f.value), f.event_type or ""] for f in predicates.filters
        ),
        "group_by": list(query.group_by),
    }


def workload_fingerprint(workload: Workload, plan: "SharingPlan | None" = None) -> str:
    """sha256 over the structural description of a workload and plan.

    Two (workload, plan) pairs fingerprint equal iff they compile to the
    same engine structure — query names, patterns, windows, aggregates,
    predicates, grouping, and the plan's sharing candidates.  Used to refuse
    resuming a checkpoint against a different workload.
    """
    description = {
        "queries": [_query_description(query) for query in workload],
        "plan": sorted(
            [list(candidate.pattern.event_types), list(candidate.query_names)]
            for candidate in (plan or SharingPlan())
        ),
    }
    return hashlib.sha256(canonical_json(description).encode("utf-8")).hexdigest()


def describe_churn_op(op) -> dict:
    """Structural, serialisation-stable description of one churn op.

    The replay runner pins ``[describe_churn_op(op) for op in schedule]``
    into ``engine_config["churn"]``, so :meth:`Checkpoint.validate_against`'s
    config equality refuses to resume a checkpoint under a different churn
    script — same mechanism that pins mode/columnar/compaction.  Attach ops
    describe their full query (via :func:`_query_description`); detach ops
    carry only the target name; an explicitly pinned plan is described by
    its candidates.
    """
    description: dict = {"op": op.kind, "at": op.at}
    if op.kind == "attach":
        description["query"] = _query_description(op.query)
    else:
        description["query"] = op.query_name
    if op.plan is not None:
        description["plan"] = sorted(
            [list(candidate.pattern.event_types), list(candidate.query_names)]
            for candidate in op.plan
        )
    return description


@dataclass
class Checkpoint:
    """One resumable snapshot of a replay in progress."""

    events_consumed: int
    last_timestamp: int
    workload_fingerprint: str
    engine_config: dict
    engine_state: dict
    format: str = CHECKPOINT_FORMAT
    version: int = CHECKPOINT_VERSION

    def as_payload(self) -> dict:
        """The checkpoint as a JSON-safe dict (file content)."""
        return {
            "format": self.format,
            "version": self.version,
            "events_consumed": self.events_consumed,
            "last_timestamp": self.last_timestamp,
            "workload_fingerprint": self.workload_fingerprint,
            "engine_config": self.engine_config,
            "engine_state": self.engine_state,
        }

    def validate_against(self, fingerprint: str, engine_config: dict) -> None:
        """Refuse resume when workload or engine configuration changed."""
        if self.workload_fingerprint != fingerprint:
            raise CheckpointError(
                "checkpoint was taken against a different workload/plan "
                f"(fingerprint {self.workload_fingerprint[:12]}… != {fingerprint[:12]}…)"
            )
        if self.engine_config != engine_config:
            raise CheckpointError(
                f"checkpoint engine config {self.engine_config} does not match "
                f"the resuming engine's config {engine_config}"
            )


def save_checkpoint(checkpoint: Checkpoint, path: "str | Path") -> Path:
    """Write a checkpoint file (canonical JSON, single object).

    The payload goes to ``<path>.tmp`` first and is renamed over ``path``, so
    a process killed mid-write leaves at worst a stray ``.tmp`` next to the
    previous complete checkpoints — never a torn file that is also the
    newest one.  Nothing is fsynced: this guards against a killed process,
    not against a machine crash.
    """
    path = Path(path)
    temporary = path.with_name(path.name + ".tmp")
    temporary.write_text(canonical_json(checkpoint.as_payload()) + "\n", encoding="utf-8")
    os.replace(temporary, path)
    return path


def load_checkpoint(path: "str | Path") -> Checkpoint:
    """Read and validate a checkpoint file written by :func:`save_checkpoint`."""
    path = Path(path)
    try:
        payload = json.loads(path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as error:
        raise CheckpointError(f"{path} is not valid JSON: {error}") from None
    if not isinstance(payload, dict) or payload.get("format") != CHECKPOINT_FORMAT:
        raise CheckpointError(f"{path} is not a {CHECKPOINT_FORMAT} file")
    if payload.get("version") != CHECKPOINT_VERSION:
        raise CheckpointError(
            f"{path} has checkpoint version {payload.get('version')!r}; "
            f"this loader understands version {CHECKPOINT_VERSION}"
        )
    return Checkpoint(
        events_consumed=payload["events_consumed"],
        last_timestamp=payload["last_timestamp"],
        workload_fingerprint=payload["workload_fingerprint"],
        engine_config=payload["engine_config"],
        engine_state=payload["engine_state"],
    )
