"""State hashing and trace diffing for deterministic replay debugging.

An engine session exports its complete run state — whichever window-state
strategy it runs — as a JSON-safe dict
(:meth:`~repro.executor.engine.EngineSession.export_state`).
:func:`state_hash` reduces that export to a sha256 over its canonical JSON
encoding — sorted keys, compact separators, NaN rejected — so two runs are
in the same state iff their hashes agree.  A :class:`ReplayTrace` records
one hash per timestamp batch; :func:`first_divergence` compares two traces
and pinpoints the first batch at which they disagree, which localises a
determinism bug to a single batch instead of a whole run.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Optional

__all__ = [
    "canonical_json",
    "state_hash",
    "TraceEntry",
    "ReplayTrace",
    "first_divergence",
]


def canonical_json(payload) -> str:
    """Deterministic JSON encoding: sorted keys, compact, NaN rejected.

    Python floats round-trip exactly through JSON (shortest-repr encoding),
    so equal states always encode to equal strings and vice versa.
    """
    return json.dumps(payload, sort_keys=True, separators=(",", ":"), allow_nan=False)


def state_hash(session_or_state) -> str:
    """sha256 hex digest of a session's exported state.

    Accepts either a live engine session (anything with ``export_state()``)
    or an already-exported state dict.  The export excludes wall-clock time
    and memory measurements, so the hash is a pure function of the consumed
    stream, the workload, and the engine configuration.
    """
    state = session_or_state
    export = getattr(state, "export_state", None)
    if export is not None:
        state = export()
    return hashlib.sha256(canonical_json(state).encode("utf-8")).hexdigest()


@dataclass(frozen=True)
class TraceEntry:
    """One trace sample: the state hash after one timestamp batch."""

    timestamp: int
    events_consumed: int
    state_hash: str

    def as_record(self) -> dict:
        """The entry as a JSON-safe dict (trace file line)."""
        return {
            "timestamp": self.timestamp,
            "events_consumed": self.events_consumed,
            "state_hash": self.state_hash,
        }


class ReplayTrace:
    """An ordered list of per-batch state hashes, persistable as JSONL."""

    def __init__(self, entries: Iterable[TraceEntry] = ()) -> None:
        self.entries: list[TraceEntry] = list(entries)

    def record(self, timestamp: int, events_consumed: int, session) -> TraceEntry:
        """Hash ``session``'s current state and append a trace entry."""
        entry = TraceEntry(timestamp, events_consumed, state_hash(session))
        self.entries.append(entry)
        return entry

    def __len__(self) -> int:
        return len(self.entries)

    def __iter__(self):
        return iter(self.entries)

    def write(self, path: "str | Path") -> None:
        """Persist the trace as one JSON object per line."""
        with Path(path).open("w", encoding="utf-8") as handle:
            for entry in self.entries:
                handle.write(canonical_json(entry.as_record()) + "\n")

    @classmethod
    def read(cls, path: "str | Path") -> "ReplayTrace":
        """Load a trace written by :meth:`write`."""
        entries = []
        with Path(path).open("r", encoding="utf-8") as handle:
            for line in handle:
                if not line.strip():
                    continue
                record = json.loads(line)
                entries.append(
                    TraceEntry(record["timestamp"], record["events_consumed"], record["state_hash"])
                )
        return cls(entries)


def first_divergence(a: ReplayTrace, b: ReplayTrace) -> Optional[dict]:
    """Locate the first batch at which two traces disagree.

    Returns ``None`` when the traces are identical; otherwise a dict with
    the diverging ``index`` and both entries (``None`` for the shorter
    trace past its end).  Comparing per-batch hashes localises a
    determinism bug to the first offending batch — from there,
    ``export_state()`` of both runs at that point can be diffed directly.
    """
    for index, (entry_a, entry_b) in enumerate(zip(a.entries, b.entries)):
        if entry_a != entry_b:
            return {"index": index, "a": entry_a, "b": entry_b}
    if len(a.entries) != len(b.entries):
        index = min(len(a.entries), len(b.entries))
        longer_a = a.entries[index] if index < len(a.entries) else None
        longer_b = b.entries[index] if index < len(b.entries) else None
        return {"index": index, "a": longer_a, "b": longer_b}
    return None
