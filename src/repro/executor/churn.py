"""Live workload churn: attach/detach queries and switch plans while the stream runs.

A production deployment never gets to freeze its query set: tenants add
dashboards, alerts expire, and the sharing plan must follow the workload.
This module defines the *schedule* side of online query churn — the engine
side (state migration, emission gates, zombie scopes) lives on
:class:`~repro.executor.engine.EngineSession` and its window-state strategies:

* :class:`ChurnOp` — one timestamped ``attach``, ``detach`` or ``plan`` operation;
* :class:`ChurnSchedule` — an immutable, timestamp-sorted op program that
  the session batch loop (:meth:`~repro.executor.engine.EngineSession.drive`,
  under both :meth:`~repro.executor.engine.StreamingEngine.run` and the
  replay runner) applies deterministically at batch boundaries: an op
  becomes effective immediately before the first timestamp batch at or
  after its ``at``;
* :class:`ChurnState` — the per-session bookkeeping (active names, recorded
  attach timestamps acting as emission gates, applied-op history) that
  checkpoints snapshot so a resumed run re-applies the exact same churn;
* :func:`parse_churn_script` / :func:`load_churn_script` — the JSON script
  format behind ``repro replay --churn-script`` (attach queries are written
  as SASE query text and parsed with the normal query parser).

The semantics are pinned in ``docs/churn.md`` and enforced by the churn
differential grid: a query attached at ``t`` emits exactly the windows with
``start >= t`` (the next window boundary — window starts are slide
multiples), and a query detached at ``t`` is equivalent to running it over
the stream truncated to events before ``t`` (open windows finalize their
partial values at detach time).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator

from ..core.candidates import SharingCandidate
from ..core.plan import SharingPlan
from ..queries.parser import parse_query
from ..queries.pattern import Pattern
from ..queries.query import Query

__all__ = [
    "ChurnError",
    "ChurnOp",
    "ChurnSchedule",
    "ChurnState",
    "parse_churn_script",
    "load_churn_script",
]


class ChurnError(ValueError):
    """A churn op that does not apply to the workload it meets (``docs/churn.md``)."""


@dataclass(frozen=True)
class ChurnOp:
    """One timestamped live-workload operation: attach or detach a query, or switch the plan.

    ``attach`` ops carry the :class:`~repro.queries.query.Query` to add (its
    name becomes the op's ``query_name``); ``detach`` ops carry only the
    target ``query_name``.  ``plan`` optionally pins the sharing plan to
    install with the recompiled workload — when omitted, the session derives
    a deterministic default (attach: keep the current plan, the new query
    runs unshared; detach: restrict the current plan to surviving queries,
    dropping candidates left with fewer than two).  ``plan`` ops carry only
    the ``plan`` to run the current workload under.
    """

    kind: str
    at: int
    query: "Query | None" = None
    query_name: str = ""
    plan: "SharingPlan | None" = None

    def __post_init__(self) -> None:
        if self.kind not in ("attach", "detach", "plan"):
            raise ValueError(f"unknown churn op kind {self.kind!r} (attach, detach or plan)")
        if self.at < 0:
            raise ValueError(f"churn ops apply at non-negative timestamps, got {self.at}")
        if self.kind == "attach":
            if self.query is None:
                raise ValueError("attach ops need a query")
            object.__setattr__(self, "query_name", self.query.name)
        elif self.kind == "plan":
            if self.plan is None:
                raise ValueError("plan ops need a plan")
        elif not self.query_name:
            raise ValueError("detach ops need a query_name")


class ChurnSchedule:
    """An immutable churn-op program, sorted by effective timestamp.

    Ops sharing an ``at`` keep their construction order (the sort is stable),
    so "attach q then detach p at t" is a well-defined program.  Schedules
    hold no iteration state: every run that applies one keeps its own cursor,
    so a schedule can drive any number of runs (repeats, resume, the
    differential grid's executor cube).  Every ``churn=`` argument is
    coerced through this constructor: ``None``, an op iterable and a
    schedule all give a schedule.
    """

    __slots__ = ("ops",)

    def __init__(self, ops: "Iterable[ChurnOp] | None" = ()) -> None:
        ops = tuple(ops or ())
        for op in ops:
            if not isinstance(op, ChurnOp):
                raise TypeError(f"churn schedules hold ChurnOp instances, got {type(op).__name__}")
        #: The ops in application order (stable-sorted by ``at``).
        self.ops: tuple[ChurnOp, ...] = tuple(sorted(ops, key=lambda op: op.at))

    def __len__(self) -> int:
        return len(self.ops)

    def __bool__(self) -> bool:
        return bool(self.ops)

    def __iter__(self) -> Iterator[ChurnOp]:
        return iter(self.ops)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        parts = ", ".join(f"{op.kind}@{op.at}:{op.query_name}" for op in self.ops)
        return f"ChurnSchedule([{parts}])"


class ChurnState:
    """Per-session churn bookkeeping: gates, active names, applied history.

    Sessions create one lazily on the first churn op, so churn-free
    sessions carry zero overhead and export byte-identical snapshots to
    pre-churn builds.  The three pieces:

    * ``active`` — names currently allowed to emit results (zombie scopes
      from earlier workload generations may still hold chains for detached
      queries; the finalization filter consults this set);
    * ``attach_timestamps`` — the recorded attach timestamp per mid-run
      attached query; doubles as the emission gate (a query attached at
      ``t`` emits only windows with ``start >= t``);
    * ``history`` — every applied op as a JSON-safe dict (kind, effective
      timestamp, query name — empty for a plan op — and the fingerprint of
      the resulting workload+plan), pinned into checkpoints so resume can
      verify it re-applied the exact same churn.
    """

    __slots__ = ("active", "attach_timestamps", "history")

    def __init__(self, active_names: Iterable[str]) -> None:
        self.active: set[str] = set(active_names)
        self.attach_timestamps: dict[str, int] = {}
        self.history: list[dict] = []

    def emits(self, query_name: str, window_start: int) -> bool:
        """Whether results for ``query_name`` at a window starting at ``window_start`` may be emitted."""
        if query_name not in self.active:
            return False
        gate = self.attach_timestamps.get(query_name)
        return gate is None or window_start >= gate

    def gate(self, window_start: int) -> tuple:
        """A key to :meth:`emits` of every query for windows starting at ``window_start``.

        Equal keys give equal answers for every name: ``active`` and the
        attach timestamps change only with an applied op (one history
        entry), and the start counts only through the attach timestamps it
        has reached.  Emission caches its line templates by this key.
        """
        reached = tuple([window_start >= at for at in self.attach_timestamps.values()])
        return len(self.history), reached

    def record(self, kind: str, at: int, query_name: str, fingerprint: str) -> None:
        """Append one applied op to the history."""
        self.history.append(
            {"op": kind, "at": at, "query": query_name, "fingerprint": fingerprint}
        )

    def export(self) -> dict:
        """JSON-safe snapshot (canonically ordered) for session exports."""
        return {
            "active": sorted(self.active),
            "attach_timestamps": [
                [name, at] for name, at in sorted(self.attach_timestamps.items())
            ],
            "history": [dict(entry) for entry in self.history],
        }


def parse_churn_script(text: str) -> ChurnSchedule:
    """Parse a JSON churn script into a :class:`ChurnSchedule`.

    The format (``repro replay --churn-script``) is a JSON array of ops::

        [
          {"op": "attach", "at": 12, "name": "spikes",
           "query": "RETURN COUNT(*) PATTERN SEQ(A, B) WITHIN 10 SLIDE 5"},
          {"op": "detach", "at": 20, "name": "q1"},
          {"op": "plan", "at": 30,
           "share": [{"pattern": ["A", "B"], "queries": ["spikes", "q2"]}]}
        ]

    Attach queries are SASE query text (the ``repro`` query format, parsed by
    :func:`~repro.queries.parser.parse_query`) named by the op's ``name``; a
    plan op lists its plan's candidates (``[]`` is the empty plan).
    """
    try:
        data = json.loads(text)
    except json.JSONDecodeError as error:
        raise ValueError(f"churn script is not valid JSON: {error}") from None
    if not isinstance(data, list):
        raise ValueError("churn script must be a JSON array of attach/detach/plan ops")
    ops: list[ChurnOp] = []
    for index, entry in enumerate(data):
        if not isinstance(entry, dict):
            raise ValueError(f"churn op #{index} must be a JSON object, got {type(entry).__name__}")
        kind = entry.get("op")
        at = entry.get("at")
        if not isinstance(at, int) or isinstance(at, bool):
            raise ValueError(f"churn op #{index} needs an integer 'at' timestamp")
        if kind == "plan":
            ops.append(ChurnOp("plan", at, plan=_script_plan(entry, index)))
            continue
        name = entry.get("name")
        if not isinstance(name, str) or not name:
            raise ValueError(f"churn op #{index} needs a non-empty 'name'")
        if kind == "attach":
            source = entry.get("query")
            if not isinstance(source, str) or not source.strip():
                raise ValueError(f"attach op #{index} needs a 'query' (SASE query text)")
            ops.append(ChurnOp("attach", at, query=parse_query(source, name=name)))
        elif kind == "detach":
            ops.append(ChurnOp("detach", at, query_name=name))
        else:
            raise ValueError(
                f"churn op #{index} has unknown 'op' {kind!r} (use 'attach', 'detach' or 'plan')"
            )
    return ChurnSchedule(ops)


def _script_plan(entry: dict, index: int) -> SharingPlan:
    """The plan of script op ``entry``: ``{"op": "plan", "at": T, "share": [...]}``."""
    share = entry.get("share")
    if set(entry) != {"op", "at", "share"} or not isinstance(share, list) or not all(
        isinstance(item, dict)
        and set(item) == {"pattern", "queries"}
        and all(isinstance(v, list) and all(isinstance(x, str) for x in v) for v in item.values())
        for item in share
    ):
        raise ValueError(
            f'plan op #{index} must read {{"op": "plan", "at": T, "share": '
            '[{"pattern": [event types], "queries": [query names]}, ...]}'
        )
    try:
        return SharingPlan(
            SharingCandidate(Pattern(c["pattern"]), tuple(c["queries"])) for c in share
        )
    except ValueError as error:
        raise ChurnError(f"plan op #{index}: {error}") from None


def load_churn_script(path: "str | Path") -> ChurnSchedule:
    """Read and parse a churn-script file (see :func:`parse_churn_script`)."""
    return parse_churn_script(Path(path).read_text(encoding="utf-8"))
