"""Query results produced by the executors.

Every executor — online or two-step, shared or not — emits one result per
query, window instance, and group that produced at least one relevant event.
A result is a plain row ``(query_name, window, group, value)``:
:class:`QueryResult` is the named tuple over it, and a :class:`ResultSet`
holds such rows in insertion order with the lookups and equivalence checks
the test suite cross-validates executors with (its ``(query, window,
group)`` index is built when a keyed method first needs it).

The streaming engine builds no row: a closing window × group hands its
session's :class:`ResultLedger` one *block* — a :class:`LineTemplate`, the
window, the group and the values the template's queries read — and the
ledger writes each block's lines once, into a running sha256 and into its
log: the results log the replay layer attached (``docs/replay.md``) or,
without one, an anonymous temporary file, so the lines leave the process
either way.  The *canonical result lines*
(``["query",[start,end],[group...],value]``, compact JSON; defined by
:func:`encode_result_lines`) are the results: reading them back decodes the
lines, and a snapshot holds ``{"count", "digest"}`` over them, in order.
"""

from __future__ import annotations

import hashlib
import json
import tempfile
import weakref
from functools import partial
from operator import itemgetter
from typing import Iterable, Iterator, Mapping, NamedTuple

from ..events.columnar import _INTERNER_LIMIT
from ..events.windows import WindowInstance

__all__ = [
    "QueryResult",
    "ResultSet",
    "ResultLedger",
    "GroupOrder",
    "LineTemplate",
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


def _not_finite(name: str, window: WindowInstance, group: tuple, value) -> ValueError:
    """The error for a result no canonical line can carry (JSON has no NaN or infinity)."""
    return ValueError(
        f"query {name!r} produced the non-finite result {value!r} for window {window!r}, "
        f"group {group!r}: result lines are JSON, which has no NaN or infinity"
    )


def encode_result_lines(results: Iterable[QueryResult]) -> bytes:
    """The canonical lines of ``results``, in order, each newline-terminated.

    The definition of a canonical line: ``json.dumps([name, [start, end],
    list(group), value], separators=(",", ":"), allow_nan=False)`` per
    result.  The engine writes the same bytes from blocks
    (:class:`LineTemplate`, :meth:`ResultLedger.flush`); a non-finite value
    is refused with a ``ValueError`` naming its query, window and group.
    """
    lines = []
    for name, window, group, value in results:
        try:
            lines.append(_encode_json([name, [window.start, window.end], list(group), value]))
        except ValueError:
            raise _not_finite(name, window, group, value) from None
        lines.append("\n")
    return "".join(lines).encode("utf-8")


class LineTemplate:
    """The canonical lines one closing window × group emits, waiting for their values.

    Built from a *fan-out* — ``(query name, value slot)`` pairs in emission
    order, several queries possibly reading one slot — once per fan-out and
    cached with the compilation that emits it, so each name is JSON-encoded
    here, not per result.  A block ``(template, window, group, values)``
    becomes lines without a per-line step: line ``i`` is ``heads[i]``
    (``["name",``) followed by the *tail* of its slot
    (``[start,end],[group...],value]`` and the newline, one string per
    value), and :attr:`pick` takes them in line order from ``heads +
    tails`` in one call.  Values no pair reads are ignored.
    """

    __slots__ = ("fan_out", "rows", "heads", "pick")

    def __init__(self, fan_out: Iterable[tuple[str, int]]) -> None:
        #: ``(query name, value slot)`` per line, in emission order.
        self.fan_out = tuple(fan_out)
        #: Lines (results) per block.
        self.rows = rows = len(self.fan_out)
        self.heads = [f"[{_encode_json(name)}," for name, _slot in self.fan_out]
        order = [i for line, (_, slot) in enumerate(self.fan_out) for i in (line, rows + slot)]
        #: ``heads + tails`` -> head and tail of every line, in order (an
        #: empty slice when the churn gate left no line).
        self.pick = itemgetter(*order) if order else itemgetter(slice(0))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"LineTemplate({self.fan_out})"


def _value_parts(template: LineTemplate, window: WindowInstance, group: tuple, values) -> list:
    """A block's encoded values, when one of them is not finite.

    A value that no line reads (a query the churn gate silenced) is never
    written; one that a line reads is refused, naming that line's query.
    """
    readers = {}
    for name, slot in template.fan_out:
        readers.setdefault(slot, name)
    parts = []
    for slot, value in enumerate(values):
        try:
            parts.append(str(value) if type(value) is int else _encode_json(value))
        except ValueError:
            if slot in readers:
                raise _not_finite(readers[slot], window, group, value) from None
            parts.append("null")
    return parts


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


#: Bytes of result lines a spill log keeps in memory before it moves them
#: to its file: small runs never touch the disk.
_SPILL_BYTES = 64 * 1024


class _SpillLog:
    """The log of a ledger no results log is attached to: an anonymous temporary file.

    The calls a ledger makes on a results log (``append``, ``body``) on a
    :class:`tempfile.SpooledTemporaryFile`: up to :data:`_SPILL_BYTES` stay
    in memory, past that the lines move to a :func:`tempfile.TemporaryFile`
    in ``TMPDIR``, which is unlinked as it is made — never a named file —
    and goes when it is closed.  It starts with ``body``, like a results
    log, and :attr:`appended` tells whether a line was written since.
    """

    __slots__ = ("file", "appended")

    def __init__(self, body: bytes = b"") -> None:
        self.file = tempfile.SpooledTemporaryFile(_SPILL_BYTES)
        if len(body) > _SPILL_BYTES:
            self.file.rollover()  # not through memory: the caller already holds a copy
        self.file.write(body)
        self.appended = False

    def append(self, lines: bytes) -> None:
        self.file.write(lines)
        self.appended = True

    def body(self) -> bytes:
        """Every line written, from the start (the position ends where appends go)."""
        self.file.seek(0)
        return self.file.read()


class ResultLedger:
    """The results one engine session has emitted, as canonical lines.

    ``pending`` *is* the emit path: finalization appends one block
    ``(template, window, group, values)`` per closing window × group
    (:class:`LineTemplate`) and does nothing else — no row, no line.
    :meth:`flush` writes the pending blocks' lines — each exactly once —
    into the running sha256 and into :attr:`log`; :meth:`EngineSession.drive
    <repro.executor.engine.EngineSession.drive>` calls it at the end of
    every batch (inside the run's timer, so ``RunMetrics.elapsed_seconds``
    includes the encoding), so a driven session's ``pending`` holds at most
    one step's blocks and no summary encodes more than that.  The digest is
    over the line *sequence*, not over the blocks it was written in.
    :attr:`results` decodes the log's lines: results read back are what the
    canonical lines say.  Until a results log is attached the log is a
    spill file (:class:`_SpillLog`), closed when it is replaced or when the
    ledger is collected.
    """

    __slots__ = ("pending", "log", "_close_spill", "_count", "_sha", "_groups", "__weakref__")

    def __init__(self) -> None:
        #: Emitted blocks not yet written by :meth:`flush`, in emission order.
        self.pending: list[tuple] = []
        #: Where :meth:`flush` writes (``append(lines)``, ``body() -> bytes``):
        #: the results log from :meth:`attach_log`, else a spill file.
        self.log = None
        self._close_spill = None
        self._spill(b"")
        self._count = 0
        self._sha = hashlib.sha256()
        #: group -> (that group, its JSON): encoded once, not per window.
        self._groups: dict[tuple, tuple] = {}

    def _spill(self, body: bytes) -> None:
        """Write to a fresh spill log holding ``body``; the one before is closed."""
        if self._close_spill is not None:
            self._close_spill()
        self.log = spill = _SpillLog(body)
        # Holds the file, not the ledger: the ledger's collection closes it.
        self._close_spill = weakref.finalize(self, spill.file.close)

    @property
    def pending_rows(self) -> int:
        """The results (lines) the pending blocks stand for."""
        return sum(block[0].rows for block in self.pending)

    def attach_log(self, log) -> None:
        """Write lines summarised from now on to ``log`` and read results back from it.

        ``log`` (``append(lines)``, ``body() -> bytes``) already holds the lines
        this ledger was, or is about to be, restored from (:meth:`restore`
        then writes nothing), and nothing has been summarised since: the
        spill log it replaces holds no more than those.
        """
        if isinstance(self.log, _SpillLog) and self.log.appended:
            raise ValueError(
                "results were summarised into the ledger's spill file before the "
                "results log was attached"
            )
        self._close_spill()
        self.log = log

    @property
    def results(self) -> ResultSet:
        """Every result emitted so far (the set ``run()`` and the CLI read), as its lines say."""
        results = ResultSet()
        results._rows = decode_result_lines(self.log.body() + self._lines(self.pending))
        results._index = None
        return results

    def flush(self) -> None:
        """Write the pending blocks' lines into the digest and the log."""
        pending = self.pending
        if pending:
            lines = self._lines(pending)
            self._sha.update(lines)
            self._count += lines.count(b"\n")
            self.log.append(lines)
            pending.clear()

    def _lines(self, blocks: Iterable[tuple]) -> bytes:
        """The canonical lines of ``blocks``, in order (:class:`LineTemplate`).

        Byte-for-byte :func:`encode_result_lines` of the rows the blocks
        stand for.  Ints, most values, are written by ``str``.
        """
        encode = _encode_json
        groups = self._groups
        if len(groups) > _INTERNER_LIMIT:
            groups.clear()
        chunks = []
        for template, window, group, values in blocks:
            cached = groups.get(group)
            # Equal is not enough: (1,) == (True,) and (0.0,) == (-0.0,) encode
            # differently; routing interns group keys, so the same one is the norm.
            if cached is None or cached[0] is not group:
                cached = groups[group] = (group, encode(list(group)))
            try:
                parts = [str(value) if type(value) is int else encode(value) for value in values]
            except ValueError:
                parts = _value_parts(template, window, group, values)
            scope = f"[{window.start},{window.end}],{cached[1]},"
            chunks += template.pick(template.heads + [f"{scope}{part}]\n" for part in parts])
        return "".join(chunks).encode("utf-8")

    def summary(self) -> dict:
        """``{"count", "digest"}`` over every result emitted so far."""
        self.flush()
        return {"count": self._count, "digest": self._sha.hexdigest()}

    def restore(self, recorded, lines: bytes = b"") -> None:
        """Start over from ``lines``, the canonical lines emitted before a snapshot.

        They must reproduce ``recorded``, the snapshot's summary (a version-1
        snapshot has none: it listed its results inline); they are counted and
        hashed as bytes and decoded only if :attr:`results` is read.  An
        attached results log already starts with them (:meth:`attach_log`);
        otherwise they are written to a fresh spill log.
        """
        count, sha = lines.count(b"\n"), hashlib.sha256(lines)
        if isinstance(recorded, dict) and recorded != {"count": count, "digest": sha.hexdigest()}:
            raise ValueError(
                f"snapshot records {recorded.get('count')} emitted results (digest "
                f"{str(recorded.get('digest'))[:12]}…), restore_state was given "
                f"{count}: pass their canonical lines, in emission order"
            )
        self.pending.clear()
        if isinstance(self.log, _SpillLog):
            self._spill(lines)
        self._count, self._sha = count, sha
