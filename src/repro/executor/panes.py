"""Pane-partitioned stream processing: one pass per event, per pane.

The per-instance engine loop fans every event out to all window instances
containing its timestamp (``instances_containing``), so a sliding window with
``size / slide = k`` re-processes each event ``k`` times.  This module
removes that redundancy with the classic pane decomposition (Li et al.):

* The timeline is tiled into non-overlapping **panes** of width
  ``gcd(size, slide)`` (:attr:`~repro.events.windows.SlidingWindow.pane_width`).
  Both ``size`` and ``slide`` are multiples of that width, so every window
  instance is an *exact* union of ``size / gcd`` consecutive panes.
* Per (pane × group), each distinct (pattern, aggregate spec) of the workload
  keeps one **pane transition matrix** ``T`` — for every pair of pattern
  positions ``i <= j``, ``T[i][j+1]`` aggregates the matches of the
  sub-pattern ``positions i..j`` that lie entirely inside the pane.  A batch
  updates the matrix once, whichever window instances cover the pane.
* When the stream time leaves a pane, the pane is **folded** into every
  covering window instance: a per-window prefix vector ``v`` (``v[j]`` =
  aggregate over matches of positions ``0..j-1`` completed so far) absorbs
  the matrix, ``v' = v ⊙ T`` in the (⊕ = ``merge``, ⊗ = ``combine``)
  semiring.  The window's result is ``v[l]`` after its last pane.

Correctness rests on the same algebra that justified cohort compaction
(``combine`` is associative and distributes over ``merge``, see
``docs/engine.md``) plus two ordering facts:

* **Across panes** — pane boundaries strictly separate timestamps, so a
  prefix match ending in pane ``p`` always precedes a sub-match starting in
  pane ``p' > p``; the fold never pairs events out of order.
* **Within a pane** — matrices commit a batch column-at-a-time in descending
  position order (the stage/commit trick of
  :mod:`repro.executor.prefix_agg`), so events sharing a timestamp never
  chain with each other.

COUNT(*) matrices (:class:`PaneCountMatrix`) degenerate to triangular integer
arrays — the paper's common case stays allocation-free on the hot path.  All
other specs use :class:`PaneStateMatrix` with fused
:meth:`~repro.queries.aggregates.AggregateState.extend_many` column updates.

The per-event cost is ``O(l^2)`` matrix cells (instead of ``O(k · l)``
positions across covering instances) and each pane is folded once per
covering window, ``O(windows · panes_per_window · l^2)`` overall — linear in
the stream for fixed window geometry.  The win grows with the overlap factor
``k`` and with the events a pane holds, and shrinks (on sparse streams, into
a small loss) where ``gcd(size, slide)`` collapses the pane far below the
slide; :class:`~repro.executor.engine.StreamingEngine` runs this mode by
default on every overlapping window (``StreamingEngine.panes_eligible``;
measurements in ``docs/engine.md``, "Choosing the window strategy").
Matrices, vectors and snapshots are all addressed by the compile-time
*matrix index* of their (pattern, spec) pair.
"""

from __future__ import annotations

from typing import Sequence

from array import array

from ..events.event import Event
from ..queries.aggregates import AggregateSpec, AggregateState, AggregationKind
from ..queries.pattern import Pattern
from ..queries.workload import Workload
from .prefix_agg import _I64_MAX, positions_by_type

__all__ = [
    "PaneCountMatrix",
    "PaneStateMatrix",
    "PaneScope",
    "WindowPaneAccumulator",
    "CompiledPaneWorkload",
    "make_pane_matrix",
]

_ZERO = AggregateState.zero()
_UNIT = AggregateState.unit()

#: Value identity of one pane matrix: (pattern event types, aggregate spec).
MatrixKey = tuple[tuple[str, ...], AggregateSpec]


class PaneCountMatrix:
    """COUNT(*) pane transition matrix: triangular flat integer columns.

    ``cells[j][i]`` (``i <= j``) is the number of matches of pattern
    positions ``i..j`` wholly inside the pane.  A COUNT(*) aggregate state is
    determined by its sequence count, so cells are machine integers —
    ``array('q')`` rows — and both the batch update and the window fold are
    integer arithmetic.  Like the cohort count columns, a row promotes to a
    plain Python list (exact big-int arithmetic) the moment a count would
    pass ``2**63 - 1``; the prefix *vectors* are Python lists and unbounded
    by construction.
    """

    __slots__ = ("length", "cells", "updates")

    def __init__(self, pattern: Pattern, spec: AggregateSpec) -> None:
        self.length = len(pattern)
        #: cells[j] has j+1 entries: cells[j][i] = T[i][j+1] for i <= j.
        self.cells: list["array | list[int]"] = [
            array("q", bytes(8 * (j + 1))) for j in range(self.length)
        ]
        self.updates = 0

    def apply_batch(self, by_position: dict[int, list[Event]], spec: AggregateSpec) -> None:
        """Commit one same-timestamp batch, descending position order.

        Position ``j`` reads the pre-batch values of column ``j - 1``, so
        events of the batch never chain with each other.
        """
        cells = self.cells
        for position in sorted(by_position, reverse=True):
            k = len(by_position[position])
            column = cells[position]
            if position:
                base = cells[position - 1]
                for i in range(position):
                    if base[i]:
                        updated = column[i] + k * base[i]
                        if updated > _I64_MAX and not isinstance(column, list):
                            column = cells[position] = list(column)
                        column[i] = updated
                        self.updates += k
            # A batch event also starts a fresh sub-match at its own position.
            updated = column[position] + k
            if updated > _I64_MAX and not isinstance(column, list):
                column = cells[position] = list(column)
            column[position] = updated
            self.updates += k

    def new_vector(self) -> list[int]:
        """The unit prefix vector: one empty sequence, nothing matched yet."""
        vector = [0] * (self.length + 1)
        vector[0] = 1
        return vector

    def fold(self, vector: list[int]) -> None:
        """In-place ``v <- v ⊙ T``: absorb this pane into a window's vector.

        Descending target positions keep all reads on pre-fold values (the
        matrix diagonal is the implicit identity, hence the ``vector[j]``
        passthrough term).
        """
        cells = self.cells
        for j in range(self.length, 0, -1):
            column = cells[j - 1]
            acc = 0
            for i in range(j):
                if vector[i] and column[i]:
                    acc += vector[i] * column[i]
            if acc:
                vector[j] += acc

    def final_state(self, vector: list[int]) -> AggregateState:
        """``vector``'s full-pattern count, boxed as an :class:`AggregateState`."""
        count = vector[self.length]
        return AggregateState(count=count) if count else _ZERO

    # -- checkpointing -----------------------------------------------------------
    def export_cells(self) -> dict:
        """Snapshot the triangular cells as nested int lists (JSON-safe)."""
        return {"cells": [list(row) for row in self.cells], "updates": self.updates}

    def restore_cells(self, state: dict) -> None:
        """Restore :meth:`export_cells` output, re-compacting rows that fit.

        Rows whose counts fit signed 64 bits go back into ``array('q')``
        storage; overflowing rows restore as promoted big-int lists, exactly
        mirroring the live promotion rule.
        """
        rows = state["cells"]
        if len(rows) != self.length:
            raise ValueError("snapshot row count does not match the pattern length")
        restored: list["array | list[int]"] = []
        for row in rows:
            try:
                restored.append(array("q", row))
            except OverflowError:
                restored.append(list(row))
        self.cells[:] = restored
        self.updates = state["updates"]


class PaneStateMatrix:
    """General pane transition matrix over :class:`AggregateState` cells.

    Used for COUNT(E)/SUM/MIN/MAX/AVG; batch updates are one fused
    ``extend_many`` per touched cell (the batch is reduced once per position
    via ``summarise_batch``), the fold is ``merge``/``combine`` algebra.
    """

    __slots__ = ("length", "cells", "updates")

    def __init__(self, pattern: Pattern, spec: AggregateSpec) -> None:
        self.length = len(pattern)
        self.cells: list[list[AggregateState]] = [
            [_ZERO] * (j + 1) for j in range(self.length)
        ]
        self.updates = 0

    def apply_batch(self, by_position: dict[int, list[Event]], spec: AggregateSpec) -> None:
        """Commit one same-timestamp batch, descending position order.

        Same stage/commit discipline as :meth:`PaneCountMatrix.apply_batch`,
        with one fused ``summarise_batch``/``extend_many`` update per
        (position, batch) instead of per event.
        """
        cells = self.cells
        for position in sorted(by_position, reverse=True):
            bucket = by_position[position]
            summary = spec.summarise_batch(bucket)
            k = summary[0]
            column = cells[position]
            if position:
                base = cells[position - 1]
                for i in range(position):
                    base_state = base[i]
                    if base_state.count:
                        column[i] = column[i].merge(base_state.extend_many(*summary))
                        self.updates += k
            column[position] = column[position].merge(_UNIT.extend_many(*summary))
            self.updates += k

    def new_vector(self) -> list[AggregateState]:
        """The unit prefix vector: one empty sequence, nothing matched yet."""
        return [_UNIT] + [_ZERO] * self.length

    def fold(self, vector: list[AggregateState]) -> None:
        """In-place ``v <- v ⊙ T`` in the (merge, combine) semiring."""
        cells = self.cells
        for j in range(self.length, 0, -1):
            column = cells[j - 1]
            acc = _ZERO
            for i in range(j):
                left = vector[i]
                if left.count and column[i].count:
                    acc = acc.merge(left.combine(column[i]))
            if acc.count:
                vector[j] = vector[j].merge(acc)

    def final_state(self, vector: list[AggregateState]) -> AggregateState:
        """The full-pattern aggregate state accumulated in ``vector``."""
        return vector[self.length]

    # -- checkpointing -----------------------------------------------------------
    def export_cells(self) -> dict:
        """Snapshot the triangular cells as nested state tuples (JSON-safe)."""
        return {
            "cells": [[state.as_tuple() for state in row] for row in self.cells],
            "updates": self.updates,
        }

    def restore_cells(self, state: dict) -> None:
        """Restore :meth:`export_cells` output."""
        rows = state["cells"]
        if len(rows) != self.length:
            raise ValueError("snapshot row count does not match the pattern length")
        self.cells[:] = [[AggregateState.from_tuple(value) for value in row] for row in rows]
        self.updates = state["updates"]


def make_pane_matrix(
    pattern: Pattern, spec: AggregateSpec, backend: str = "python"
) -> "PaneCountMatrix | PaneStateMatrix":
    """Pick the cheapest matrix representation for ``spec``.

    ``backend="numpy"`` swaps COUNT(*) storage for
    :class:`~repro.executor.kernels.NumpyPaneCountMatrix` (``int64`` rows,
    vectorised commits and folds, same exports).  State matrices are
    pattern-length-squared tiny and stay pure Python under every backend.
    """
    if spec.kind == AggregationKind.COUNT_STAR:
        if backend == "numpy":
            from .kernels import NumpyPaneCountMatrix

            return NumpyPaneCountMatrix(pattern, spec)
        return PaneCountMatrix(pattern, spec)
    return PaneStateMatrix(pattern, spec)


class CompiledPaneWorkload:
    """Pane-mode execution structure of a uniform workload.

    Deduplicates per-query state by (pattern, spec): queries returning the
    same aggregate over the same pattern share one matrix per (pane × group)
    and one vector per (window × group).  Every such matrix is addressed by
    its **matrix index** — its position in :attr:`matrix_keys`, the order of
    first occurrence in the workload — in scopes, accumulators and snapshots
    alike; the value keys are compared only when a workload is recompiled
    (:meth:`remap_from`), never on the per-batch path.

    The sharing *plan* does not act here: pane mode shares work across
    overlapping window instances structurally, across queries only identical
    (pattern, spec) pairs share, and segment decompositions never change
    which matches a query's full pattern has.
    """

    def __init__(self, workload: Workload, backend: str = "python") -> None:
        self.workload = workload
        self.window = workload[0].window
        #: Resolved numeric backend threaded into every pane matrix.
        self.backend = backend
        index_of: dict[MatrixKey, int] = {}
        infos: list[tuple[Pattern, AggregateSpec]] = []
        fan_out: list[tuple[str, int]] = []
        #: Distinct patterns: event types -> (positions-by-type, matrix indices).
        patterns: dict[tuple[str, ...], tuple[dict, list[int]]] = {}
        for query in workload:
            types = query.pattern.event_types
            key: MatrixKey = (types, query.aggregate)
            index = index_of.get(key)
            if index is None:
                index = index_of[key] = len(infos)
                infos.append((query.pattern, query.aggregate))
                if types not in patterns:
                    patterns[types] = (positions_by_type(query.pattern), [])
                patterns[types][1].append(index)
            fan_out.append((query.name, index))
        #: Matrix index -> its (pattern event types, aggregate spec) value key.
        self.matrix_keys: tuple[MatrixKey, ...] = tuple(index_of)
        #: Matrix index -> (pattern, spec).
        self.matrix_infos: tuple[tuple[Pattern, AggregateSpec], ...] = tuple(infos)
        #: (query name, matrix index) in workload order: the emission fan-out
        #: of one finalized value per matrix to the queries sharing it.
        self.query_matrices: tuple[tuple[str, int], ...] = tuple(fan_out)
        index: dict[str, list[tuple[dict, tuple[int, ...]]]] = {}
        for positions, indices in patterns.values():
            entry = (positions, tuple(indices))
            for event_type in positions:
                index.setdefault(event_type, []).append(entry)
        #: Dispatch index: event type -> one (positions-by-type, matrix
        #: indices) entry per distinct pattern containing it.  A batch is
        #: bucketed by event type once and every entry it touches reads those
        #: buckets.
        self.patterns_by_type: dict[str, tuple[tuple[dict, tuple[int, ...]], ...]] = {
            event_type: tuple(entries) for event_type, entries in index.items()
        }

    def remap_from(self, previous: "CompiledPaneWorkload") -> dict[int, int]:
        """``previous``'s matrix index -> this compilation's, for surviving keys.

        Matrix keys are value objects, so a matrix whose (pattern, spec)
        still occurs after query churn keeps its state under a new index.
        """
        index_of = {key: index for index, key in enumerate(self.matrix_keys)}
        return {
            index: index_of[key]
            for index, key in enumerate(previous.matrix_keys)
            if key in index_of
        }


class PaneScope:
    """Transition matrices of one pane × group combination."""

    __slots__ = ("compiled", "pane_index", "group", "matrices")

    def __init__(self, compiled: CompiledPaneWorkload, pane_index: int, group: tuple) -> None:
        self.compiled = compiled
        self.pane_index = pane_index
        self.group = group
        #: Lazily created matrices by matrix index; absent = identity matrix.
        self.matrices: dict[int, PaneCountMatrix | PaneStateMatrix] = {}

    def process_batch(self, events: list[Event]) -> None:
        """Route one same-timestamp batch to the matrices its types touch.

        The batch is bucketed by event type once; every distinct pattern
        containing one of those types reads its position buckets from there
        and applies them to each aggregate spec's matrix of that pattern.
        """
        compiled = self.compiled
        by_type: dict[str, list[Event]] = {}
        for event in events:
            bucket = by_type.get(event.event_type)
            if bucket is None:
                by_type[event.event_type] = [event]
            else:
                bucket.append(event)
        matrices = self.matrices
        infos = compiled.matrix_infos
        patterns_by_type = compiled.patterns_by_type
        touched = {
            id(entry): entry
            for event_type in by_type
            for entry in patterns_by_type.get(event_type, ())
        }
        for positions, indices in touched.values():
            by_position = {
                position: bucket
                for event_type, bucket in by_type.items()
                for position in positions.get(event_type, ())
            }
            for index in indices:
                matrix = matrices.get(index)
                if matrix is None:
                    matrix = matrices[index] = make_pane_matrix(*infos[index], compiled.backend)
                matrix.apply_batch(by_position, infos[index][1])

    @property
    def update_count(self) -> int:
        """Total matrix-cell updates this pane scope performed."""
        return sum(matrix.updates for matrix in self.matrices.values())

    def migrate(self, compiled: CompiledPaneWorkload, remap: dict[int, int]) -> None:
        """Carry the scope across a workload recompilation (query churn).

        ``remap`` is :meth:`CompiledPaneWorkload.remap_from` of the old
        compilation: every matrix whose key survives keeps accumulating under
        its new index; matrices owned solely by detached queries are dropped.
        Matrices for newly attached keys appear lazily on their first
        relevant event, exactly as at session start.
        """
        self.matrices = {
            remap[index]: matrix for index, matrix in self.matrices.items() if index in remap
        }
        self.compiled = compiled

    # -- checkpointing -----------------------------------------------------------
    def export_state(self) -> dict:
        """Snapshot the scope's live matrices, keyed by matrix index."""
        return {
            "pane_index": self.pane_index,
            "group": list(self.group),
            "matrices": [
                [index, matrix.export_cells()] for index, matrix in sorted(self.matrices.items())
            ],
        }

    def restore_state(self, state: dict) -> None:
        """Restore a snapshot produced by :meth:`export_state`."""
        compiled = self.compiled
        self.matrices.clear()
        for index, cells in state["matrices"]:
            matrix = make_pane_matrix(*compiled.matrix_infos[index], compiled.backend)
            matrix.restore_cells(cells)
            self.matrices[index] = matrix


class WindowPaneAccumulator:
    """Prefix vectors of one window instance × group, fed pane by pane."""

    __slots__ = ("compiled", "vectors")

    def __init__(self, compiled: CompiledPaneWorkload) -> None:
        self.compiled = compiled
        #: matrix index -> prefix vector; absent until the first non-identity pane.
        self.vectors: dict[int, list] = {}

    def absorb(self, scope: PaneScope) -> int:
        """Fold one closed pane's matrices into the vectors; returns fold count."""
        vectors = self.vectors
        for index, matrix in scope.matrices.items():
            vector = vectors.get(index)
            if vector is None:
                vector = vectors[index] = matrix.new_vector()
            matrix.fold(vector)
        return len(scope.matrices)

    def migrate(self, compiled: CompiledPaneWorkload, remap: dict[int, int]) -> None:
        """Carry the accumulator across a workload recompilation (query churn).

        Vectors for surviving keys keep folding under their new matrix index,
        vectors owned solely by detached queries are dropped (see
        :meth:`PaneScope.migrate`).
        """
        self.vectors = {
            remap[index]: vector for index, vector in self.vectors.items() if index in remap
        }
        self.compiled = compiled

    def value(self, index: int, open_scope: "PaneScope | None" = None):
        """The RETURN value of matrix ``index`` for this window × group.

        Finalized once per matrix and fanned out to every query sharing it
        (:attr:`CompiledPaneWorkload.query_matrices`).  With ``open_scope``
        the value is as of now, including the still-open pane: detach
        finalization copies the committed prefix vector and folds the open
        pane's matrix (if any) into the copy, so a detach at ``t`` matches a
        run over the stream truncated to events before ``t`` and the
        accumulator itself is left untouched.
        """
        spec = self.compiled.matrix_infos[index][1]
        vector = self.vectors.get(index)
        matrix = open_scope.matrices.get(index) if open_scope is not None else None
        if matrix is not None:
            vector = list(vector) if vector is not None else matrix.new_vector()
            matrix.fold(vector)
        if vector is None:
            return spec.finalize(_ZERO)
        # The vector's last entry aggregates the full-pattern matches; count
        # vectors store plain ints and are lifted here, once per value.
        last = vector[-1]
        if isinstance(last, int):
            return spec.finalize(AggregateState(count=last) if last else _ZERO)
        return spec.finalize(last)

    # -- checkpointing -----------------------------------------------------------
    def export_state(self) -> dict:
        """Snapshot the prefix vectors, keyed by matrix index (JSON-safe)."""
        infos = self.compiled.matrix_infos
        dumped = []
        for index, vector in sorted(self.vectors.items()):
            if infos[index][1].kind == AggregationKind.COUNT_STAR:
                values: list = list(vector)
            else:
                values = [state.as_tuple() for state in vector]
            dumped.append([index, values])
        return {"vectors": dumped}

    def restore_state(self, state: dict) -> None:
        """Restore a snapshot produced by :meth:`export_state`."""
        infos = self.compiled.matrix_infos
        self.vectors.clear()
        for index, values in state["vectors"]:
            if infos[index][1].kind == AggregationKind.COUNT_STAR:
                self.vectors[index] = list(values)
            else:
                self.vectors[index] = [AggregateState.from_tuple(value) for value in values]
