"""Query results produced by the executors.

Every executor — online or two-step, shared or not — emits one result per
query, window instance, and group that produced at least one relevant event.
A result is a plain row ``(query_name, window, group, value)``: the engine
emits such tuples, :class:`QueryResult` is the named tuple over them, and a
:class:`ResultSet` holds them in insertion order with the lookups and
equivalence checks the test suite cross-validates executors with (its
``(query, window, group)`` index is built when a keyed method first needs it).

Results are not engine state: a session's :class:`ResultLedger` encodes each
emitted row once, into a running sha256 and, when the replay layer attached
its ``results.jsonl`` (``docs/replay.md``), into that log — then their only
copy.  A snapshot holds ``{"count", "digest"}`` over the *canonical result
lines* (``["query",[start,end],[group...],value]``, compact JSON), in order.
"""

from __future__ import annotations

import hashlib
import json
from functools import partial
from typing import Iterable, Iterator, Mapping, NamedTuple

from ..events.columnar import _INTERNER_LIMIT
from ..events.windows import WindowInstance

__all__ = [
    "QueryResult",
    "ResultSet",
    "ResultLedger",
    "GroupOrder",
    "encode_result_lines",
    "decode_result_lines",
]

#: Key identifying one result: (query name, window instance, group key).
ResultKey = tuple[str, WindowInstance, tuple]


class QueryResult(NamedTuple):
    """One aggregation result (RETURN value per query, group, and window)."""

    query_name: str
    window: WindowInstance
    group: tuple
    value: object

    @property
    def key(self) -> ResultKey:
        """The result's identity: ``(query name, window instance, group key)``."""
        return self[:3]

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        group = "" if not self.group else f" group={self.group}"
        return f"{self.query_name}@{self.window}{group}: {self.value}"


_as_result = partial(tuple.__new__, QueryResult)


class ResultSet:
    """A collection of query results indexed by (query, window, group).

    Rows keep insertion order; one added under a key already present replaces
    the earlier one in place.  A set read from a :class:`ResultLedger` starts
    as bare rows — a scope finalizes once, so emitted keys are distinct — and
    builds the dict when a keyed call first needs it: lookups, ``len``,
    comparisons and ``add``, never iteration.
    """

    def __init__(self, results: Iterable[QueryResult] = ()) -> None:
        self._rows: "list[tuple] | None" = None  # distinct rows not indexed yet
        self._index: "dict[ResultKey, tuple] | None" = {row[:3]: row for row in results}

    def _keyed(self) -> "dict[ResultKey, tuple]":
        """The rows by key, in insertion order (built once, then authoritative)."""
        if self._index is None:
            self._index = {row[:3]: row for row in self._rows}
            self._rows = None
        return self._index

    def _distinct_rows(self) -> Iterable[tuple]:
        """One row per key, in insertion order."""
        return self._index.values() if self._rows is None else self._rows

    def add(self, result: QueryResult) -> None:
        """Insert ``result``, replacing any earlier result with the same key."""
        self._keyed()[result[:3]] = result

    def __iter__(self) -> Iterator[QueryResult]:
        return map(_as_result, self._distinct_rows())

    def __len__(self) -> int:
        return len(self._keyed())

    def __contains__(self, key: ResultKey) -> bool:
        return key in self._keyed()

    def get(self, query_name: str, window: WindowInstance, group: tuple = ()) -> QueryResult | None:
        """The result at ``(query_name, window, group)``, or ``None``."""
        row = self._keyed().get((query_name, window, group))
        return None if row is None else _as_result(row)

    def value(self, query_name: str, window: WindowInstance, group: tuple = (), default=0):
        """The result value, or ``default`` when no result was produced."""
        row = self._keyed().get((query_name, window, group))
        return default if row is None else row[3]

    def for_query(self, query_name: str) -> list[QueryResult]:
        """All results of one query, in insertion order."""
        return [_as_result(row) for row in self._distinct_rows() if row[0] == query_name]

    def for_window(self, window: WindowInstance) -> list[QueryResult]:
        """All results of one window instance, in insertion order."""
        return [_as_result(row) for row in self._distinct_rows() if row[1] == window]

    def query_names(self) -> tuple[str, ...]:
        """The distinct query names with at least one result, sorted."""
        return tuple(sorted({row[0] for row in self._distinct_rows()}))

    def as_dict(self) -> Mapping[ResultKey, object]:
        """A plain ``{key: value}`` mapping (convenient for comparisons)."""
        return {key: row[3] for key, row in self._keyed().items()}

    def nonzero(self) -> "ResultSet":
        """Results whose value is neither ``None`` nor zero."""
        return ResultSet(row for row in self._distinct_rows() if row[3] not in (0, 0.0, None))

    def matches(self, other: "ResultSet", tolerance: float = 1e-9) -> bool:
        """Semantic equality: zero/absent results are interchangeable.

        Executors differ in whether they emit explicit zero-valued results for
        scopes that saw events but no match; this comparison treats a missing
        result and a zero (or ``None``) result as equal, and compares numeric
        values up to ``tolerance``.
        """
        return next(self._mismatches(other, tolerance), None) is None

    def differences(self, other: "ResultSet", tolerance: float = 1e-9) -> list[tuple]:
        """Keys at which :meth:`matches` would fail, with both values (debugging)."""
        return sorted(self._mismatches(other, tolerance), key=lambda mismatch: repr(mismatch[0]))

    def _mismatches(self, other: "ResultSet", tolerance: float) -> Iterator[tuple]:
        """``(key, my value, their value)`` wherever the two sets disagree."""
        mine, theirs = self._keyed(), other._keyed()
        absent = (None, None, None, None)
        for key in mine.keys() | theirs.keys():
            mine_value = mine.get(key, absent)[3]
            theirs_value = theirs.get(key, absent)[3]
            if not _values_equivalent(mine_value, theirs_value, tolerance):
                yield key, mine_value, theirs_value

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"ResultSet({len(self)} results)"


def _values_equivalent(a, b, tolerance: float) -> bool:
    a, b = (0.0 if a is None else a), (0.0 if b is None else b)
    if isinstance(a, (int, float)) and isinstance(b, (int, float)):
        return abs(float(a) - float(b)) <= tolerance
    return a == b


_encode_json = json.JSONEncoder(separators=(",", ":"), allow_nan=False).encode


#: Encoded query names, shared by every :func:`encode_result_lines` call
#: (a session encodes once per batch that emitted); bounded like the interner.
_name_parts: dict[str, str] = {}


def encode_result_lines(results: Iterable[QueryResult]) -> bytes:
    """The canonical lines of ``results``, in order, each newline-terminated.

    Byte-for-byte ``json.dumps([name, [start, end], list(group), value],
    separators=(",", ":"), allow_nan=False)`` per result, assembled by hand
    because every row a run emits passes through here: a scope's
    consecutive rows share the window/group part, names repeat, and most
    values are plain ints.
    """
    names = _name_parts
    if len(names) > _INTERNER_LIMIT:
        names.clear()
    lines = []
    last_window = last_group = scope_part = None
    for name, window, group, value in results:
        name_part = names.get(name)
        if name_part is None:
            name_part = names[name] = _encode_json(name)
        if window is not last_window or group is not last_group:
            last_window, last_group = window, group
            scope_part = f",[{window.start},{window.end}],{_encode_json(list(group))},"
        value_part = value if type(value) is int else _encode_json(value)
        lines.append(f"[{name_part}{scope_part}{value_part}]\n")
    return "".join(lines).encode("utf-8")


def decode_result_lines(lines: bytes) -> list[QueryResult]:
    """Inverse of :func:`encode_result_lines`, as plain rows (one JSON parse for the block)."""
    rows = json.loads(b"[" + b",".join(lines.splitlines()) + b"]")
    return [
        (name, WindowInstance(start, end), tuple(group), value)
        for name, (start, end), group, value in rows
    ]


class GroupOrder:
    """Sorts group keys by ``repr``: the order emission and export walk them in.

    Independent of arrival order and ``PYTHONHASHSEED``; a group's ``repr``
    is computed once, not per window close (bounded like the group interner).
    """

    __slots__ = ("_keys",)

    def __init__(self) -> None:
        self._keys: dict[tuple, str] = {}

    def __call__(self, groups: Iterable[tuple]) -> list[tuple]:
        keys = self._keys
        if len(keys) > _INTERNER_LIMIT:
            keys.clear()
        return sorted(groups, key=lambda g: keys.get(g) or keys.setdefault(g, repr(g)))

    def walk(self, windows: Mapping[WindowInstance, Mapping]) -> Iterator[tuple]:
        """``(window, group, state)`` of a window -> group -> state map, windows sorted."""
        for window in sorted(windows):
            by_group = windows[window]
            for group in self(by_group):
                yield window, group, by_group[group]


class ResultLedger:
    """The results one engine session has emitted.

    ``pending`` *is* the emit path: finalization extends it with rows and
    does nothing else.  :meth:`flush` encodes the pending rows — each
    exactly once — into the running sha256 and the attached results log, if
    any; :meth:`EngineSession.drive <repro.executor.engine.EngineSession.drive>`
    calls it at the end of every batch (inside the run's timer, so
    ``RunMetrics.elapsed_seconds`` includes the encoding), so a driven
    session's ``pending`` holds at most one step's rows and no summary
    encodes more than that.  The digest is over the line *sequence*, not
    over the blocks it was encoded in.  Encoded rows stay here only while no
    log has them; no index over them is built here (a :class:`ResultSet`
    builds its own).
    """

    __slots__ = ("pending", "log", "_prior", "_rows", "_count", "_sha")

    def __init__(self) -> None:
        #: Emitted rows not yet encoded by :meth:`flush`, in emission order.
        self.pending: list[tuple] = []
        #: The results log (:meth:`attach_log`); ``None`` keeps summarised rows here.
        self.log = None
        self._prior = b""  # restored canonical lines (decoded when read, never kept)
        self._rows: list[tuple] = []  # summarised rows no log holds
        self._count = 0
        self._sha = hashlib.sha256()

    def attach_log(self, log) -> None:
        """Write lines summarised from now on to ``log`` and read results back from it.

        ``log`` (``append(lines)``, ``body() -> bytes``) already holds the lines
        this ledger was restored from, and nothing has been summarised since.
        """
        if self._rows:
            raise ValueError("results were summarised before the results log was attached")
        self.log = log
        self._prior = b""

    @property
    def results(self) -> ResultSet:
        """Every result emitted so far (the set ``run()`` and the CLI read)."""
        encoded = self._prior if self.log is None else self.log.body()
        results = ResultSet()
        results._rows = [*decode_result_lines(encoded), *self._rows, *self.pending]
        results._index = None
        return results

    def flush(self) -> None:
        """Encode the pending rows into the digest and the log (without one: keep them)."""
        pending = self.pending
        if pending:
            lines = encode_result_lines(pending)
            self._sha.update(lines)
            self._count += len(pending)
            if self.log is not None:
                self.log.append(lines)
            else:
                self._rows += pending
            pending.clear()

    def summary(self) -> dict:
        """``{"count", "digest"}`` over every result emitted so far."""
        self.flush()
        return {"count": self._count, "digest": self._sha.hexdigest()}

    def restore(self, recorded, lines: bytes = b"") -> None:
        """Start over from ``lines``, the canonical lines emitted before a snapshot.

        They must reproduce ``recorded``, the snapshot's summary (a version-1
        snapshot has none: it listed its results inline); they are counted and
        hashed as bytes and decoded only if :attr:`results` is read.
        """
        count, sha = lines.count(b"\n"), hashlib.sha256(lines)
        if isinstance(recorded, dict) and recorded != {"count": count, "digest": sha.hexdigest()}:
            raise ValueError(
                f"snapshot records {recorded.get('count')} emitted results (digest "
                f"{str(recorded.get('digest'))[:12]}…), restore_state was given "
                f"{count}: pass their canonical lines, in emission order"
            )
        self.pending.clear()
        self._prior, self._rows = lines, []
        self._count, self._sha = count, sha
