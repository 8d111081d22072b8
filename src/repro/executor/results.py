"""Query results produced by the executors.

Every executor — online or two-step, shared or not — emits one
:class:`QueryResult` per query, window instance, and group that produced at
least one relevant event.  A :class:`ResultSet` collects them and offers the
lookups and equivalence checks the test suite relies on when cross-validating
executors against each other and against the brute-force oracle.

Results are not engine state: a session's :class:`ResultLedger` keeps the
:class:`ResultSet` its caller reads, and a snapshot holds only ``{"count",
"digest"}`` — sha256 over the *canonical result lines*
(``["query",[start,end],[group...],value]``, compact JSON) in emission order.
The replay layer appends the same bytes to ``results.jsonl`` next to its
checkpoints (``docs/replay.md``).
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Mapping

from ..events.windows import WindowInstance

__all__ = [
    "QueryResult",
    "ResultSet",
    "ResultLedger",
    "encode_result_lines",
    "decode_result_lines",
]

#: Key identifying one result: (query name, window instance, group key).
ResultKey = tuple[str, WindowInstance, tuple]


@dataclass(frozen=True)
class QueryResult:
    """One aggregation result (RETURN value per query, group, and window)."""

    query_name: str
    window: WindowInstance
    group: tuple
    value: object

    @property
    def key(self) -> ResultKey:
        """The result's identity: ``(query name, window instance, group key)``."""
        return (self.query_name, self.window, self.group)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        group = "" if not self.group else f" group={self.group}"
        return f"{self.query_name}@{self.window}{group}: {self.value}"


class ResultSet:
    """A collection of query results indexed by (query, window, group)."""

    def __init__(self, results: Iterable[QueryResult] = ()) -> None:
        self._by_key: dict[ResultKey, QueryResult] = {}
        for result in results:
            self.add(result)

    def add(self, result: QueryResult) -> None:
        """Insert ``result``, replacing any earlier result with the same key."""
        self._by_key[result.key] = result

    def __iter__(self) -> Iterator[QueryResult]:
        return iter(self._by_key.values())

    def __len__(self) -> int:
        return len(self._by_key)

    def __contains__(self, key: ResultKey) -> bool:
        return key in self._by_key

    def get(self, query_name: str, window: WindowInstance, group: tuple = ()) -> QueryResult | None:
        """The result at ``(query_name, window, group)``, or ``None``."""
        return self._by_key.get((query_name, window, group))

    def value(self, query_name: str, window: WindowInstance, group: tuple = (), default=0):
        """The result value, or ``default`` when no result was produced."""
        result = self._by_key.get((query_name, window, group))
        return default if result is None else result.value

    def for_query(self, query_name: str) -> list[QueryResult]:
        """All results of one query, in insertion order."""
        return [r for r in self._by_key.values() if r.query_name == query_name]

    def for_window(self, window: WindowInstance) -> list[QueryResult]:
        """All results of one window instance, in insertion order."""
        return [r for r in self._by_key.values() if r.window == window]

    def query_names(self) -> tuple[str, ...]:
        """The distinct query names with at least one result, sorted."""
        return tuple(sorted({r.query_name for r in self._by_key.values()}))

    def as_dict(self) -> Mapping[ResultKey, object]:
        """A plain ``{key: value}`` mapping (convenient for comparisons)."""
        return {key: result.value for key, result in self._by_key.items()}

    def nonzero(self) -> "ResultSet":
        """Results whose value is neither ``None`` nor zero."""
        return ResultSet(r for r in self._by_key.values() if r.value not in (0, 0.0, None))

    def matches(self, other: "ResultSet", tolerance: float = 1e-9) -> bool:
        """Semantic equality: zero/absent results are interchangeable.

        Executors differ in whether they emit explicit zero-valued results for
        scopes that saw events but no match; this comparison treats a missing
        result and a zero (or ``None``) result as equal, and compares numeric
        values up to ``tolerance``.
        """
        keys = set(self._by_key) | set(other._by_key)
        for key in keys:
            mine = self._by_key.get(key)
            theirs = other._by_key.get(key)
            mine_value = None if mine is None else mine.value
            theirs_value = None if theirs is None else theirs.value
            if not _values_equivalent(mine_value, theirs_value, tolerance):
                return False
        return True

    def differences(self, other: "ResultSet", tolerance: float = 1e-9) -> list[tuple]:
        """Keys at which :meth:`matches` would fail, with both values (debugging)."""
        keys = set(self._by_key) | set(other._by_key)
        mismatches = []
        for key in sorted(keys, key=repr):
            mine = self._by_key.get(key)
            theirs = other._by_key.get(key)
            mine_value = None if mine is None else mine.value
            theirs_value = None if theirs is None else theirs.value
            if not _values_equivalent(mine_value, theirs_value, tolerance):
                mismatches.append((key, mine_value, theirs_value))
        return mismatches

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"ResultSet({len(self._by_key)} results)"


def _values_equivalent(a, b, tolerance: float) -> bool:
    def normalise(value):
        if value is None:
            return 0.0
        return value

    a, b = normalise(a), normalise(b)
    if isinstance(a, (int, float)) and isinstance(b, (int, float)):
        return abs(float(a) - float(b)) <= tolerance
    return a == b


_encode_json = json.JSONEncoder(separators=(",", ":"), allow_nan=False).encode


def encode_result_lines(results: Iterable[QueryResult]) -> bytes:
    """The canonical lines of ``results``, in order, each newline-terminated.

    Byte-for-byte ``json.dumps([name, [start, end], list(group), value],
    separators=(",", ":"), allow_nan=False)`` per result, assembled by hand
    because a finished run passes every result it emitted through here: a
    scope's consecutive results share the window/group part, names repeat,
    and most values are plain ints.
    """
    names: dict[str, str] = {}
    lines = []
    last_window = last_group = scope_part = None
    for result in results:
        name = result.query_name
        name_part = names.get(name)
        if name_part is None:
            name_part = names[name] = _encode_json(name)
        window, group = result.window, result.group
        if window is not last_window or group is not last_group:
            last_window, last_group = window, group
            scope_part = f",[{window.start},{window.end}],{_encode_json(list(group))},"
        value = result.value
        value_part = value if type(value) is int else _encode_json(value)
        lines.append(f"[{name_part}{scope_part}{value_part}]\n")
    return "".join(lines).encode("utf-8")


def decode_result_lines(lines: bytes) -> list[QueryResult]:
    """Inverse of :func:`encode_result_lines` (one JSON parse for the whole block)."""
    rows = json.loads(b"[" + b",".join(lines.splitlines()) + b"]")
    return [
        QueryResult(name, WindowInstance(start, end), tuple(group), value)
        for name, (start, end), group, value in rows
    ]


class ResultLedger:
    """The results one engine session has emitted (both session classes keep one).

    ``pending`` *is* the emit path: finalization appends to it and nothing
    else happens per batch.  Reading catches up: :attr:`results` moves pending
    results into the in-memory :class:`ResultSet`; :meth:`summary` also
    encodes them, feeds the running sha256 and hands the bytes to ``sink``
    (the replay runner's results log, when it checkpoints).  The digest is
    over the line *sequence*, not over the blocks it was read in.
    """

    __slots__ = ("pending", "sink", "_results", "_absorbed", "_count", "_sha")

    def __init__(self) -> None:
        #: Emitted results not yet covered by :meth:`summary`, in emission order.
        self.pending: list[QueryResult] = []
        #: Receives each block of newly summarised canonical lines.
        self.sink: "Callable[[bytes], None] | None" = None
        self._results = ResultSet()
        self._absorbed = 0  # how many of ``pending`` are already in ``_results``
        self._count = 0
        self._sha = hashlib.sha256()

    def _absorb(self) -> None:
        for result in self.pending[self._absorbed :]:
            self._results.add(result)
        self._absorbed = len(self.pending)

    @property
    def results(self) -> ResultSet:
        """Every result emitted so far (the set ``run()`` and the CLI read)."""
        self._absorb()
        return self._results

    def summary(self) -> dict:
        """``{"count", "digest"}`` over every result emitted so far."""
        pending = self.pending
        if pending:
            self._absorb()
            lines = encode_result_lines(pending)
            self._sha.update(lines)
            self._count += len(pending)
            if self.sink is not None:
                self.sink(lines)
            pending.clear()
            self._absorbed = 0
        return {"count": self._count, "digest": self._sha.hexdigest()}

    def restore(self, recorded, lines: bytes = b"") -> None:
        """Start over from ``lines``, the canonical lines emitted before a snapshot.

        They must reproduce ``recorded``, the snapshot's summary (a version-1
        snapshot has none: it listed its results inline).
        """
        prior = decode_result_lines(lines)
        self.pending.clear()
        self._results, self._absorbed = ResultSet(prior), 0
        self._count, self._sha = len(prior), hashlib.sha256(lines)
        if isinstance(recorded, dict) and recorded != self.summary():
            raise ValueError(
                f"snapshot records {recorded.get('count')} emitted results (digest "
                f"{str(recorded.get('digest'))[:12]}…), restore_state was given "
                f"{self._count}: pass their canonical lines, in emission order"
            )
