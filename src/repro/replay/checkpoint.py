"""Checkpoint files and the results log: what a replay resumes from.

A checkpoint captures everything needed to resume a replay such that the
resumed run is byte-identical to one that consumed the whole stream — except
the results already emitted, which live once, in the append-only results log
(``results.jsonl``) of the same directory:

* ``events_consumed`` — how many events of the log the session has fully
  processed (the seek index for :meth:`~repro.events.log.EventLogReader.events_from`);
* ``last_timestamp`` — the timestamp of the last processed batch
  (informational; the engine state already encodes it);
* ``workload_fingerprint`` — sha256 over a structural description of the
  workload and sharing plan, so a checkpoint cannot silently resume against
  different queries;
* ``engine_config`` — the options the exporting engine ran with (window
  strategy ``mode``, ``max_lateness``, ``late_policy``, and ``churn`` on
  churned runs), validated on restore;
* ``engine_state`` — the session snapshot
  (:meth:`~repro.executor.engine.EngineSession.export_state`): the live state
  of its window-state strategy (scopes, or pane cells and prefix vectors),
  reorder buffer, churn history, deterministic metrics counters, and the
  ``{"count", "digest"}`` summary of the results emitted so far;
* ``results_offset`` — the size of the results log at the snapshot: its
  first ``results_offset`` bytes are the header plus exactly the ``count``
  canonical result lines the digest covers.

The results log is a header line ``{"format":"repro-results-log","version":1}``
followed by one canonical line per emitted result
(:func:`~repro.executor.results.encode_result_lines`), in emission order.
The runner appends to it *before* it writes the checkpoint pointing into it,
so after a kill the log is at worst longer than the newest checkpoint's
offset (resume cuts it back), never shorter.  A checkpoint directory is a
unit: the checkpoint files plus their ``results.jsonl``.

Checkpoints are only taken between timestamp batches (the engine's state
layers refuse to export staged mid-batch state), which is also why resume
can seek the log by a plain event count.  Files written by older commits keep
loading: :func:`load_checkpoint` rewrites their shapes into today's
(:func:`upgrade_snapshot`), so restore code reads one schema.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass, field
from pathlib import Path

from ..core.plan import SharingPlan
from ..queries.workload import Workload
from .trace import canonical_json

__all__ = [
    "CHECKPOINT_FORMAT",
    "CHECKPOINT_VERSION",
    "RESULTS_LOG_NAME",
    "CheckpointError",
    "Checkpoint",
    "ResultsLogWriter",
    "workload_fingerprint",
    "describe_churn_op",
    "save_checkpoint",
    "load_checkpoint",
    "upgrade_snapshot",
]

#: Format marker stored in (and demanded of) every checkpoint file.
CHECKPOINT_FORMAT = "repro-checkpoint"

#: Current schema version.  Version 1 (still loaded) listed every emitted
#: result inline in ``engine_state["results"]`` and had no results log.
CHECKPOINT_VERSION = 2

#: File name of the results log inside a checkpoint directory.
RESULTS_LOG_NAME = "results.jsonl"

_RESULTS_LOG_HEADER = b'{"format":"repro-results-log","version":1}\n'


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
    script — same mechanism that pins the mode and lateness.  Attach ops
    describe their full query (via :func:`_query_description`); detach ops
    carry only the target name, plan ops an empty one; a plan (pinned on an
    attach or detach, or a plan op's) is described by its candidates.
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
    results_offset: int = 0
    format: str = CHECKPOINT_FORMAT
    version: int = CHECKPOINT_VERSION
    #: Where :func:`load_checkpoint` read the file from — its ``results.jsonl``
    #: sits there.  Not serialised; ``None`` on a hand-built checkpoint.
    directory: "Path | None" = field(default=None, compare=False, repr=False)

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
            "results_offset": self.results_offset,
        }

    def results_body(self) -> bytes:
        """The canonical lines of the results emitted before this checkpoint.

        Read from ``results.jsonl`` in the checkpoint's own directory and
        checked against the snapshot's count and digest; a missing or shorter
        log, different bytes, or no directory to look in is a
        :class:`CheckpointError`.  Bytes past ``results_offset`` (appended
        after this checkpoint, or by a run killed before it wrote the next
        one) are ignored.  A version-1 checkpoint lists its results inline
        instead — the old ``_dump_results`` rows, sorted by ``repr`` of the
        result key rather than by emission — and that list is the prefix.
        """
        recorded = self.engine_state.get("results")
        if isinstance(recorded, list):
            return "".join(canonical_json(row) + "\n" for row in recorded).encode("utf-8")
        try:
            count, digest = recorded["count"], recorded["digest"]
        except (TypeError, KeyError):
            raise CheckpointError("checkpoint state has no results summary") from None
        if not count:
            return b""
        if self.directory is None:
            raise CheckpointError(
                f"checkpoint records {count} emitted results but has no directory to "
                f"read {RESULTS_LOG_NAME} from; load it with load_checkpoint"
            )
        path = self.directory / RESULTS_LOG_NAME
        try:
            with path.open("rb") as handle:
                data = handle.read(self.results_offset)
        except FileNotFoundError:
            raise CheckpointError(f"{path} is missing; a checkpoint needs it to resume") from None
        if len(data) < self.results_offset:
            raise CheckpointError(
                f"{path} is {len(data)} bytes, shorter than the {self.results_offset} "
                "this checkpoint recorded"
            )
        body = data[len(_RESULTS_LOG_HEADER) :]
        if (
            not data.startswith(_RESULTS_LOG_HEADER)
            or body.count(b"\n") != count
            or hashlib.sha256(body).hexdigest() != digest
        ):
            raise CheckpointError(
                f"the first {self.results_offset} bytes of {path} are not a repro-results-log "
                f"header plus the {count} results ({digest[:12]}…) this checkpoint recorded"
            )
        return body

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


def _replace_file(path: Path, data: bytes) -> None:
    """Write ``data`` to ``<path>.tmp``, then rename it over ``path``.

    A killed process leaves at worst a stray ``.tmp`` next to the previous
    complete file, never a torn newest one.  Nothing is fsynced (no crash safety).
    """
    temporary = path.with_name(path.name + ".tmp")
    temporary.write_bytes(data)
    os.replace(temporary, path)


def save_checkpoint(checkpoint: Checkpoint, path: "str | Path") -> Path:
    """Write a checkpoint file (canonical JSON, single object), whole or not at all."""
    path = Path(path)
    _replace_file(path, (canonical_json(checkpoint.as_payload()) + "\n").encode("utf-8"))
    return path


class ResultsLogWriter:
    """Appends canonical result lines to a checkpoint directory's results log.

    Creating the writer (re)starts the log at ``path`` as the header plus
    ``body``: empty for a fresh run, :meth:`Checkpoint.results_body` for a
    resumed one — which cuts a longer log in the checkpoint's own directory
    back to its offset and copies the prefix into any other directory.  The
    start is write-then-rename like :func:`save_checkpoint`; one append
    handle then stays open until :meth:`close` (a session flushes its rows
    after every batch), and :meth:`append` flushes it, so the lines are with
    the OS before the checkpoint that counts them is written (nothing is
    fsynced, as there).  A session ledger it is attached to keeps no copy:
    it reads :meth:`body`, which works before and after :meth:`close`.
    """

    def __init__(self, path: "str | Path", body: bytes = b"") -> None:
        self.path = Path(path)
        _replace_file(self.path, _RESULTS_LOG_HEADER + body)
        #: Size of the log: what the next checkpoint records as its offset.
        self.offset = len(_RESULTS_LOG_HEADER) + len(body)
        self._handle = self.path.open("ab")

    def append(self, lines: bytes) -> None:
        """Append a block of canonical result lines."""
        self._handle.write(lines)
        self._handle.flush()
        self.offset += len(lines)

    def close(self) -> None:
        """Close the append handle (the log stays readable through :meth:`body`)."""
        self._handle.close()

    def body(self) -> bytes:
        """Every canonical line this writer put in the log: its starting body plus the appends."""
        with self.path.open("rb") as handle:
            return handle.read(self.offset)[len(_RESULTS_LOG_HEADER) :]


def upgrade_snapshot(payload: dict) -> dict:
    """Rewrite an older checkpoint payload into today's shape (in place; returns it).

    Every shape upgradable from the file alone, so no restore path carries it:
    ``engine_config`` drops the removed ``columnar``/``compaction`` switches
    (stored cohorts restore as they are); counters from before the reorder
    buffer gain ``events_late``/``events_dropped`` (0); a pane snapshot from
    before its disorder guard gains ``last_timestamp`` (-1); lazily compacted
    shared states drop ``compact_threshold``/``compactions``; shared states
    drop the START event they stored per cohort (``anchors``: a cohort is a
    column index) and shared runners their ``combinations`` count; a
    version-1 file gains ``results_offset`` 0 (it has no results log).  Per-matrix pane
    rows and prefix-free unit carries need a compilation and are read by
    :meth:`~repro.executor.panes.PaneScope.restore_state` and
    :meth:`~repro.executor.chained.PrefixFreeRunner.restore_state`; version-1
    inline results by :meth:`Checkpoint.results_body`.
    """
    payload.setdefault("results_offset", 0)
    for key in ("columnar", "compaction"):
        payload["engine_config"].pop(key, None)
    state = payload["engine_state"]
    for key in ("events_late", "events_dropped"):
        state["metrics"].setdefault(key, 0)
    if state.get("mode") == "panes":
        state.setdefault("last_timestamp", -1)
    for scope in state.get("scopes", ()):
        for shared in scope["shared"]:
            shared.pop("compact_threshold", None)
            shared.pop("compactions", None)
            shared.pop("anchors", None)
        for chain in scope["chains"]:
            for runner in chain:
                runner.pop("combinations", None)
    return payload


def load_checkpoint(path: "str | Path") -> Checkpoint:
    """Read, validate and upgrade a checkpoint file written by :func:`save_checkpoint`.

    Versions 1 and 2 load, older shapes rewritten by :func:`upgrade_snapshot`;
    the returned object remembers the file's directory, where
    :meth:`Checkpoint.results_body` finds ``results.jsonl``.
    """
    path = Path(path)
    try:
        payload = json.loads(path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as error:
        raise CheckpointError(f"{path} is not valid JSON: {error}") from None
    if not isinstance(payload, dict) or payload.get("format") != CHECKPOINT_FORMAT:
        raise CheckpointError(f"{path} is not a {CHECKPOINT_FORMAT} file")
    if payload.get("version") not in (1, CHECKPOINT_VERSION):
        raise CheckpointError(
            f"{path} has checkpoint version {payload.get('version')!r}; "
            f"this loader understands versions 1 and {CHECKPOINT_VERSION}"
        )
    payload = upgrade_snapshot(payload)
    return Checkpoint(
        events_consumed=payload["events_consumed"],
        last_timestamp=payload["last_timestamp"],
        workload_fingerprint=payload["workload_fingerprint"],
        engine_config=payload["engine_config"],
        engine_state=payload["engine_state"],
        results_offset=payload["results_offset"],
        version=payload["version"],
        directory=path.parent,
    )
