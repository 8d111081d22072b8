"""Pane-partitioned stream processing: one pass per event, one cell per sub-pattern.

The per-instance engine loop fans every event out to all window instances
containing its timestamp (``instances_containing``), so a sliding window with
``size / slide = k`` re-processes each event ``k`` times.  This module
removes that redundancy with the classic pane decomposition (Li et al.) and,
inside a pane, shares every contiguous sub-pattern across queries — the
paper's sharing candidates — structurally:

* The timeline is tiled into non-overlapping **panes** of width
  ``gcd(size, slide)`` (:attr:`~repro.events.windows.SlidingWindow.pane_width`).
  Both ``size`` and ``slide`` are multiples of that width, so every window
  instance is an *exact* union of ``size / gcd`` consecutive panes.
* Per (pane × group) there is one **cell table**
  (:attr:`PaneScope.cells`): one cell per distinct ``(contiguous type
  sub-sequence, aggregate spec)`` over all queries, aggregating the matches
  of that sub-sequence that lie entirely inside the pane.  A cell depends on
  nothing but its key, so a sub-pattern several queries contain is
  maintained once; a batch event of type ``E`` extends each cell ending in
  ``E`` from its *source* cell (the sequence minus its last type).
* Each distinct (pattern, spec) — a **matrix index** — keeps only a *view*
  onto the table: column ``j`` lists the cells of ``types[i:j]``, ``i < j``,
  i.e. the pane transition matrix ``T[i][j]`` of that pattern.
* When the stream time leaves a pane, the pane is **folded** into every
  covering window instance: a per-window prefix vector ``v`` (``v[j]`` =
  aggregate over matches of positions ``0..j-1`` completed so far) absorbs
  the viewed cells, ``v' = v ⊙ T`` in the (⊕ = ``merge``, ⊗ = ``combine``)
  semiring, reading only what the window reads: at its first non-identity
  pane ``v`` is the unit vector, so ``v'`` is row 0 of ``T``; at its last
  pane only ``v[l]`` is read afterwards, so only column ``l`` is folded.
  The window's result is ``v[l]`` after its last pane.

Correctness rests on the same algebra that justified cohort compaction
(``combine`` is associative and distributes over ``merge``, see
``docs/engine.md``) plus two ordering facts:

* **Across panes** — pane boundaries strictly separate timestamps, so a
  prefix match ending in pane ``p`` always precedes a sub-match starting in
  pane ``p' > p``; the fold never pairs events out of order.
* **Within a pane** — a batch is applied in two phases: every source is read
  from a pre-batch snapshot of the cells, so events sharing a timestamp never
  chain with each other (repeated-type patterns included).

There is no combination step inside a pane, hence no sharing conflict and
nothing for a sharing plan to choose: all candidates are shared at once.
COUNT(*) cells are plain Python ints (exact past 2**63), all other specs keep
:class:`~repro.queries.aggregates.AggregateState` cells updated with fused
:meth:`~repro.queries.aggregates.AggregateState.extend_many` calls.  A scope
reads a routed batch's rows straight from its columns — type ids, then one
attribute column per :meth:`~repro.queries.aggregates.AggregateSpec.summarise`
— so the pane path builds no :class:`~repro.events.event.Event`.

Per batch the cost is the distinct cells ending in the batch's types, per
closed pane one fold per matrix × covering window — ``O(l)`` at the window's
first and last pane, ``O(l^2)`` only at a middle one — and an open scope
holds one value per distinct cell.  The win over the per-instance loop
grows with the overlap factor ``k`` and with the events a pane holds, and
shrinks (on sparse streams, into a small loss) where ``gcd(size, slide)``
collapses the pane far below the slide;
:class:`~repro.executor.engine.StreamingEngine` runs this mode by default on
every overlapping window (``StreamingEngine.panes_eligible``; measurements in
``docs/engine.md``, "Choosing the window strategy").
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterator

from ..events.columnar import ColumnarBatch, RowGroups
from ..events.windows import WindowInstance, ended_by
from ..queries.aggregates import AggregateSpec, AggregateState, AggregationKind
from .churn import ChurnState
from .metrics import MetricsCollector
from .results import GroupOrder, LineTemplate

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (the engine imports this module)
    from .engine import CompiledWorkload

__all__ = [
    "PaneScope",
    "WindowPaneAccumulator",
    "CompiledPaneWorkload",
    "Panes",
]

_ZERO = AggregateState.zero()
_UNIT = AggregateState.unit()
_COUNT = AggregateSpec.count_star()

#: Value identity of a matrix or a cell: (event type sequence, aggregate spec).
SequenceKey = tuple[tuple[str, ...], AggregateSpec]

#: One cell update: (target cell, source cell or ``None`` for a length-1 target).
CellOp = tuple[int, "int | None"]

#: One matrix's gathered pane (:func:`_live`): the ``(j, i, cell)`` entries
#: of its non-identity ``T[i][j]``, by descending target position ``j``.
Columns = list[tuple[int, int, object]]


def _is_count(spec: AggregateSpec) -> bool:
    """Whether ``spec``'s cells and vectors are plain COUNT(*) ints."""
    return spec.kind == AggregationKind.COUNT_STAR


def _remap(old_keys: tuple, new_keys: tuple) -> dict[int, int]:
    """Old index -> new index for every key present in both tuples."""
    index_of = {key: index for index, key in enumerate(new_keys)}
    return {index: index_of[key] for index, key in enumerate(old_keys) if key in index_of}


def _live(cells: list, view: tuple, count: bool) -> Columns:
    """The ``(j, i, cell)`` entries of ``view`` whose cell is not the identity."""
    if count:
        return [(j, i, cell) for j, i, c in view if (cell := cells[c])]
    return [(j, i, cell) for j, i, c in view if (cell := cells[c]).count]


def _fold_counts(vector: list[int], columns: Columns) -> None:
    """In-place ``v <- v ⊙ T`` over COUNT(*) ints.

    Descending targets keep all reads (``i < j``) on pre-fold values; the
    matrix diagonal is the implicit identity, hence the ``+=`` passthrough.
    """
    for j, i, cell in columns:
        vector[j] += vector[i] * cell


def _fold_states(vector: list[AggregateState], columns: Columns) -> None:
    """In-place ``v <- v ⊙ T`` in the (merge, combine) semiring.

    Each target's contributions are merged among themselves first, then into
    the vector — one addition order for float totals, whatever the pane holds.
    """
    added = [_ZERO] * len(vector)
    for j, i, cell in columns:
        if vector[i].count:
            added[j] = added[j].merge(vector[i].combine(cell))
    for j, state in enumerate(added):
        if state.count:
            vector[j] = vector[j].merge(state)


class CompiledPaneWorkload:
    """Pane-mode execution structure of a uniform workload.

    Two flat, compile-time index spaces address all pane state — in scopes,
    accumulators and snapshots alike; the value keys behind them are compared
    only when a workload is recompiled (:meth:`remap_from`), never on the
    per-batch path:

    * the **matrix index** — one per distinct (pattern, spec), in order of
      first occurrence (:attr:`matrix_keys`): queries returning the same
      aggregate over the same pattern share one prefix vector per
      (window × group) and are finalized once;
    * the **cell index** — one per distinct (contiguous sub-sequence, spec)
      of any matrix (:attr:`cell_keys`): the paper's sharing candidates and
      their extensions, each maintained once per (pane × group) whichever
      queries contain it.

    Cell ops are indexed by column-layout type id (:attr:`cell_ops`): a new
    layout means a new pane compilation (:meth:`Panes.recompiled`).

    The sharing *plan* does not act here because it has nothing to decide:
    inside a pane there is no combination cost, so every candidate is shared
    at once and conflict-free.
    """

    def __init__(self, compiled: "CompiledWorkload") -> None:
        workload = self.workload = compiled.workload
        self.window = workload[0].window
        #: The column layout whose type ids index :attr:`cell_ops`.
        self.layout = compiled.layout
        matrix_of: dict[SequenceKey, int] = {}
        fan_out: list[tuple[str, int]] = []
        cell_of: dict[SequenceKey, int] = {}
        views: list[tuple[tuple[int, int, int], ...]] = []
        #: event type -> spec -> that spec's cell ops for the type.
        ops: dict[str, dict[AggregateSpec, list[CellOp]]] = {}
        for query in workload:
            types, spec = query.pattern.event_types, query.aggregate
            index = matrix_of.get((types, spec))
            if index is None:
                index = matrix_of[types, spec] = len(views)
                view = []
                for j in range(1, len(types) + 1):
                    for i in range(j):
                        key = (types[i:j], spec)
                        cell = cell_of.get(key)
                        if cell is None:
                            cell = cell_of[key] = len(cell_of)
                            # The source sits in the previous column: already indexed.
                            source = cell_of[types[i : j - 1], spec] if j - i > 1 else None
                            ops.setdefault(types[j - 1], {}).setdefault(spec, []).append(
                                (cell, source)
                            )
                        view.append((j, i, cell))
                # Fold order: target positions descending, sources ascending.
                views.append(tuple(sorted(view, key=lambda entry: (-entry[0], entry[1]))))
            fan_out.append((query.name, index))
        #: Matrix index -> its (pattern event types, aggregate spec) value key.
        self.matrix_keys: tuple[SequenceKey, ...] = tuple(matrix_of)
        #: (query name, matrix index) in workload order: the emission fan-out
        #: of one finalized value per matrix to the queries sharing it.
        self.query_matrices: tuple[tuple[str, int], ...] = tuple(fan_out)
        #: Cell index -> its (type sub-sequence, aggregate spec) value key.
        self.cell_keys: tuple[SequenceKey, ...] = tuple(cell_of)
        #: Matrix index -> its view: ``(j, i, cell index of types[i:j])`` for
        #: every ``i < j``, in fold order.
        self.views = tuple(views)
        #: Matrix index -> the cells of row 0 (``T[0][j]``, ``j`` ascending), the
        #: entries of column ``l`` (``j == l``, fold order) and the length-1 cells.
        self.heads = tuple(tuple(c for j, i, c in sorted(view) if i == 0) for view in views)
        self.tails = tuple(tuple(e for e in view if e[0] == view[0][0]) for view in views)
        self.units = tuple(tuple(c for j, i, c in view if j - i == 1) for view in views)
        #: Matrix index -> whether its cells and vectors are COUNT(*) ints.
        self.counts: tuple[bool, ...] = tuple(_is_count(spec) for _types, spec in self.matrix_keys)
        #: Matrix index -> its unit prefix vector: one empty sequence, nothing matched yet.
        self.unit_vectors = tuple(
            (1,) + (0,) * len(types) if count else (_UNIT,) + (_ZERO,) * len(types)
            for (types, _spec), count in zip(self.matrix_keys, self.counts)
        )
        #: Matrix index -> the ``fold(vector, columns)`` of its algebra.
        self.folds = tuple(_fold_counts if count else _fold_states for count in self.counts)
        #: A fresh scope's cell table: 0 per COUNT(*) cell, the zero state otherwise.
        self.blank_cells: tuple = tuple(0 if _is_count(s) else _ZERO for _t, s in self.cell_keys)
        #: Matrix index -> its length-1 cells' values while it is the identity.
        self.blank_units = tuple(tuple(self.blank_cells[c] for c in units) for units in self.units)
        #: Layout type id -> (event type, COUNT(*) length-1 targets, COUNT(*)
        #: (target, source) pairs, ((spec, cell ops), ...) for the other specs,
        #: whether no op reads a cell the type writes): every cell whose
        #: sequence ends in that type, indexed like the batch's ``type_ids``.
        self.cell_ops: tuple = tuple(
            (
                event_type,
                tuple(target for target, source in count_ops if source is None),
                tuple(op for op in count_ops if op[1] is not None),
                tuple((spec, tuple(ops)) for spec, ops in by_spec.items() if spec != _COUNT),
                not {op[1] for spec_ops in by_spec.values() for op in spec_ops}
                & {op[0] for spec_ops in by_spec.values() for op in spec_ops},
            )
            for event_type in self.layout.types
            for by_spec in (ops.get(event_type, {}),)
            for count_ops in (by_spec.get(_COUNT, ()),)
        )
        #: Cells one scope maintains, against what unshared matrices would hold.
        self.distinct_cells = len(self.cell_keys)
        self.matrix_cells = sum(len(view) for view in views)
        #: Memoised :meth:`line_template` answers, keyed by churn gate.
        self._templates: dict = {}

    def line_template(
        self, churn: "ChurnState | None", start: int
    ) -> tuple[LineTemplate, tuple[int, ...]]:
        """``(template, matrix indices)`` of a window starting at ``start``.

        The fan-out of :attr:`query_matrices` minus the queries ``churn``
        silences there: one line per query in workload order, each reading
        the value of its matrix, and the matrices those lines read — each
        finalized once per window × group.  Built once per churn gate.
        """
        key = None if churn is None else churn.gate(start)
        entry = self._templates.get(key)
        if entry is None:
            fan_out = [
                (name, index)
                for name, index in self.query_matrices
                if churn is None or churn.emits(name, start)
            ]
            indices = tuple(dict.fromkeys(index for _name, index in fan_out))
            slot = {index: position for position, index in enumerate(indices)}
            template = LineTemplate((name, slot[index]) for name, index in fan_out)
            entry = self._templates[key] = (template, indices)
        return entry

    def remap_from(self, previous: "CompiledPaneWorkload") -> tuple[dict[int, int], dict[int, int]]:
        """``previous``'s (matrix, cell) indices -> this compilation's, for surviving keys.

        Keys are value objects, so a vector whose (pattern, spec) — and a
        cell whose (sub-sequence, spec) — still occurs after query churn
        keeps its state under a new index.
        """
        return (
            _remap(previous.matrix_keys, self.matrix_keys),
            _remap(previous.cell_keys, self.cell_keys),
        )


class PaneScope:
    """The cell table of one pane × group combination."""

    __slots__ = ("compiled", "pane_index", "group", "cells", "updates")

    def __init__(self, compiled: CompiledPaneWorkload, pane_index: int, group: tuple) -> None:
        self.compiled = compiled
        self.pane_index = pane_index
        self.group = group
        #: Cell index -> COUNT(*) int or aggregate state (identity until touched).
        self.cells: list = list(compiled.blank_cells)
        #: Cell updates performed, one per (event, extended cell).
        self.updates = 0

    def process_batch(self, batch: ColumnarBatch, rows: list[int]) -> None:
        """Apply this scope's ``rows`` of ``batch`` to every cell their types end.

        Rows are bucketed by type id (``batch.rows_by_type``); every source is
        read from a pre-batch snapshot ``before`` and each delta — ``k`` per
        length-1 cell, ``k · before[source]`` per longer one, a bucket
        summarised once per (type, spec) for state cells — added to the cells.
        One row skips both when its type's ops read no cell the type writes.
        """
        cells = self.cells
        cell_ops = self.compiled.cell_ops
        if len(rows) == 1 and cell_ops[type_id := batch.type_ids[rows[0]]][4]:
            before, buckets = cells, ((type_id, rows),)
        else:
            before, buckets = cells[:], batch.rows_by_type(rows).items()
        for type_id, bucket in buckets:
            event_type, units, pairs, state_ops, _in_place = cell_ops[type_id]
            k = len(bucket)
            done = len(units)
            for target in units:
                cells[target] += k
            for target, source in pairs:
                if base := before[source]:
                    cells[target] += k * base
                    done += 1
            for spec, spec_ops in state_ops:
                summary = batch.summarise(spec, event_type, bucket)
                for target, source in spec_ops:
                    base = _UNIT if source is None else before[source]
                    if base.count:
                        cells[target] = cells[target].merge(base.extend_many(*summary))
                        done += 1
            self.updates += k * done

    def gather(self, full: bool) -> list[tuple[int, list, Columns, "Columns | None"]]:
        """``(matrix index, heads, tails, columns)`` of every non-identity matrix.

        Gathered once per close for every covering window (:meth:`WindowPaneAccumulator.absorb`):
        the heads are the unit vector folded with row 0 (``unit ⊗ T[0][j] =
        T[0][j]``), the tails column ``l``'s live entries, ``columns`` if ``full``.
        """
        compiled, cells = self.compiled, self.cells
        cell = cells.__getitem__
        gathered = []
        for index, count in enumerate(compiled.counts):
            tails = _live(cells, compiled.tails[index], count)
            if tails or tuple(map(cell, compiled.units[index])) != compiled.blank_units[index]:
                heads = [compiled.unit_vectors[index][0], *map(cell, compiled.heads[index])]
                columns = _live(cells, compiled.views[index], count) if full else None
                gathered.append((index, heads, tails, columns))
        return gathered

    def migrate(self, compiled: CompiledPaneWorkload, cell_remap: dict[int, int]) -> None:
        """Carry the scope across a workload recompilation (query churn).

        ``cell_remap`` is the cell half of
        :meth:`CompiledPaneWorkload.remap_from`: every cell whose key
        survives keeps accumulating under its new index, cells only detached
        queries contained are dropped, and cells new with an attached query
        start at the identity — short of the events the pane already holds,
        which only feed windows that query's attach gate suppresses.
        """
        cells = list(compiled.blank_cells)
        for old, new in cell_remap.items():
            cells[new] = self.cells[old]
        self.cells = cells
        self.compiled = compiled

    # -- checkpointing -----------------------------------------------------------
    def export_state(self) -> dict:
        """Snapshot the scope's touched cells, keyed by cell index (JSON-safe)."""
        blank = self.compiled.blank_cells
        return {
            "pane_index": self.pane_index,
            "group": list(self.group),
            "cells": [
                [index, cell if isinstance(cell, int) else cell.as_tuple()]
                for index, cell in enumerate(self.cells)
                if cell != blank[index]
            ],
            "updates": self.updates,
        }

    def restore_state(self, state: dict) -> None:
        """Restore a snapshot produced by :meth:`export_state`.

        Snapshots written before cells were shared hold ``"matrices"`` — one
        triangular block of rows per matrix index, each with its own
        ``updates`` — and are scattered into the table through the matrix's
        view.  Where two blocks disagree on a sequence (a query attached
        inside the pane counted only post-attach events) the larger is kept:
        the older queries stay exact, and windows covering that pane are
        never emitted for the attached one.
        """
        compiled = self.compiled
        self.cells = cells = list(compiled.blank_cells)
        if "cells" in state:
            for index, value in state["cells"]:
                cells[index] = value if isinstance(value, int) else AggregateState.from_tuple(value)
            self.updates = state["updates"]
            return
        self.updates = 0
        for index, matrix in state["matrices"]:
            rows = matrix["cells"]
            if len(rows) != len(compiled.matrix_keys[index][0]):
                raise ValueError("snapshot row count does not match the pattern length")
            self.updates += matrix["updates"]
            for j, i, cell in compiled.views[index]:
                value = rows[j - 1][i]
                if isinstance(value, int):
                    if value > cells[cell]:
                        cells[cell] = value
                elif value[0] > cells[cell].count:
                    cells[cell] = AggregateState.from_tuple(value)


class WindowPaneAccumulator:
    """Prefix vectors of one window instance × group, fed pane by pane."""

    __slots__ = ("compiled", "vectors")

    def __init__(self, compiled: CompiledPaneWorkload) -> None:
        self.compiled = compiled
        #: matrix index -> prefix vector; absent until the first non-identity pane.
        self.vectors: dict[int, list] = {}

    def absorb(self, gathered: list[tuple], last: bool) -> int:
        """Fold one closed pane (:meth:`PaneScope.gather`) into the vectors; returns fold count.

        A vector still absent becomes a copy of the heads (the unit vector
        folded with row 0); at the window's ``last`` pane, whose ``v[l]``
        alone is read afterwards, a vector folds the tails; else the columns.
        """
        compiled = self.compiled
        vectors = self.vectors
        folds = compiled.folds
        for index, heads, tails, columns in gathered:
            vector = vectors.get(index)
            if vector is None:
                vectors[index] = heads[:]
            else:
                folds[index](vector, tails if last else columns)
        return len(gathered)

    def migrate(self, compiled: CompiledPaneWorkload, matrix_remap: dict[int, int]) -> None:
        """Carry the accumulator across a workload recompilation (query churn).

        Vectors for surviving keys keep folding under their new matrix index,
        vectors owned solely by detached queries are dropped (the matrix half
        of :meth:`CompiledPaneWorkload.remap_from`).
        """
        self.vectors = {
            matrix_remap[index]: vector
            for index, vector in self.vectors.items()
            if index in matrix_remap
        }
        self.compiled = compiled

    def value(self, index: int, open_scope: "PaneScope | None" = None):
        """The RETURN value of matrix ``index`` for this window × group.

        Finalized once per matrix and fanned out to every query sharing it
        (:attr:`CompiledPaneWorkload.query_matrices`).  With ``open_scope``
        the value is as of now, including the still-open pane: detach
        finalization copies the committed prefix vector and folds the open
        pane's view of the matrix (if touched) into the copy, so a detach at
        ``t`` matches a run over the stream truncated to events before ``t``
        and the accumulator itself is left untouched.
        """
        compiled = self.compiled
        vector = self.vectors.get(index)
        count = compiled.counts[index]
        columns = open_scope and _live(open_scope.cells, compiled.views[index], count)
        if columns:
            vector = list(vector if vector is not None else compiled.unit_vectors[index])
            compiled.folds[index](vector, columns)
        # The vector's last entry aggregates the full-pattern matches; a
        # COUNT(*) value is that int itself.
        if count:
            return 0 if vector is None else vector[-1]
        return compiled.matrix_keys[index][1].finalize(_ZERO if vector is None else vector[-1])

    # -- checkpointing -----------------------------------------------------------
    def export_state(self) -> dict:
        """Snapshot the prefix vectors, keyed by matrix index (JSON-safe)."""
        counts = self.compiled.counts
        return {
            "vectors": [
                [index, list(vector) if counts[index] else [s.as_tuple() for s in vector]]
                for index, vector in sorted(self.vectors.items())
            ]
        }

    def restore_state(self, state: dict) -> None:
        """Restore a snapshot produced by :meth:`export_state`."""
        counts = self.compiled.counts
        self.vectors = {
            index: list(values) if counts[index] else [AggregateState.from_tuple(v) for v in values]
            for index, values in state["vectors"]
        }


class Panes:
    """Pane-partitioned window state: the open pane's cells plus per-window prefix vectors.

    The :class:`~repro.executor.engine.EngineSession` strategy for
    overlapping windows (the other is :class:`~repro.executor.engine.Instances`).
    Exactly one pane is ever open; when the stream time leaves it, its cell
    tables are folded into the accumulators of every covering window
    instance and dropped.  The plan has nothing to decide: the panes share
    work across window instances, the cell table across queries.
    """

    mode = "panes"

    __slots__ = (
        "collector",
        "compiled",
        "width",
        "open_index",
        "open_scopes",
        "windows",
        "last_timestamp",
        "canonical",
    )

    def __init__(self, compiled: "CompiledWorkload", collector: MetricsCollector) -> None:
        self.collector = collector
        self.compiled = CompiledPaneWorkload(compiled)
        self.width = compiled.window.pane_width
        #: The single open pane: index plus one scope per group seen in it.
        self.open_index: "int | None" = None
        self.open_scopes: dict[tuple, PaneScope] = {}
        #: Pane-fed prefix vectors: window instance -> group -> accumulator.
        self.windows: dict[WindowInstance, dict[tuple, WindowPaneAccumulator]] = {}
        #: The last batch timestamp (the pane loop has no cursor to hold it).
        self.last_timestamp = -1
        self.canonical = GroupOrder()

    def step(self, timestamp: int, batch: ColumnarBatch, groups: "RowGroups | None") -> None:
        """Process one routed timestamp batch (each group's row indices) into the current pane."""
        self.last_timestamp = timestamp
        if groups:
            pane_index = self.open_index = timestamp // self.width
            open_scopes = self.open_scopes
            for group, rows in groups.items():
                scope = open_scopes.get(group)
                if scope is None:
                    scope = open_scopes[group] = PaneScope(self.compiled, pane_index, group)
                    self.collector.panes_created += 1
                scope.process_batch(batch, rows)

    def due(self, timestamp: "int | None") -> list[WindowInstance]:
        """Fold the open pane if ``timestamp`` leaves it, then the windows ended by then."""
        if timestamp is None or timestamp // self.width != self.open_index:
            self._close_pane()
            return ended_by(self.windows, timestamp)
        return []  # windows end on pane boundaries: none inside the open pane

    def _close_pane(self) -> None:
        """Fold the open pane (if any) into the accumulators of its covering windows."""
        if self.open_index is None:
            return
        compiled = self.compiled
        collector = self.collector
        pane_start, pane_end = compiled.window.pane_span(self.open_index)
        windows = compiled.window.instances_covering_pane(self.open_index)
        # Each scope's views are gathered once and reused by every covering
        # window; the full columns only if a window has panes on both sides.
        full = any(window.start < pane_start and window.end > pane_end for window in windows)
        gathered_by_group = []
        for group, scope in self.open_scopes.items():
            gathered_by_group.append((group, scope.gather(full)))
            collector.state_updates += scope.updates
        for window in windows:
            last = window.end == pane_end
            group_accumulators = self.windows.setdefault(window, {})
            for group, gathered in gathered_by_group:
                accumulator = group_accumulators.get(group)
                if accumulator is None:
                    accumulator = group_accumulators[group] = WindowPaneAccumulator(compiled)
                collector.pane_merges += accumulator.absorb(gathered, last)
        self.open_scopes = {}
        self.open_index = None

    def expire(
        self, windows: list[WindowInstance], churn: "ChurnState | None"
    ) -> Iterator[tuple]:
        """Pop ``windows`` and yield each window × group's block, groups in canonical order.

        A block is ``(template, window, group, values)``: one value per
        distinct matrix the window's fan-out reads
        (:meth:`CompiledPaneWorkload.line_template`), finalized once and
        written into every sharing query's line when the ledger flushes — no
        row per query.  A window whose queries the churn gate all silences
        yields blocks that write nothing, and still counts as finalized.
        """
        line_template = self.compiled.line_template
        for window in windows:
            template, indices = line_template(churn, window.start)
            by_group = self.windows.pop(window)
            for group in self.canonical(by_group):
                value = by_group[group].value
                yield template, window, group, [value(index) for index in indices]

    def partials(self, name: str, churn: ChurnState) -> list[tuple]:
        """The detached query's value for every open window, one block each; live state untouched.

        Open windows are the accumulators' plus (for the still-open pane)
        every window covering it; the open pane's cells are folded into a
        copied vector per window.
        """
        compiled = self.compiled  # pre-migration: still contains the query
        window_groups = {window: set(by_group) for window, by_group in self.windows.items()}
        open_windows: set[WindowInstance] = set()
        if self.open_index is not None and self.open_scopes:
            open_windows = set(compiled.window.instances_covering_pane(self.open_index))
            for window in open_windows:
                window_groups.setdefault(window, set()).update(self.open_scopes)
        blocks = []
        template = LineTemplate([(name, 0)])
        index = dict(compiled.query_matrices)[name]
        blank = WindowPaneAccumulator(compiled)
        for window in sorted(window_groups):
            if not churn.emits(name, window.start):
                continue
            by_group = self.windows.get(window, {})
            for group in self.canonical(window_groups[window]):
                accumulator = by_group.get(group, blank)
                open_scope = self.open_scopes.get(group) if window in open_windows else None
                blocks.append((template, window, group, [accumulator.value(index, open_scope)]))
        return blocks

    def recompiled(self, compiled) -> None:
        """Re-point live pane state at the pane compilation of ``compiled`` (workload and layout).

        Keys are values (type sequence, aggregate spec): surviving cells and
        prefix vectors carry over under their new index, new ones start at the
        identity, a detached query's own are dropped — no generation tags.
        """
        new_compiled = CompiledPaneWorkload(compiled)
        matrix_remap, cell_remap = new_compiled.remap_from(self.compiled)
        for scope in self.open_scopes.values():
            scope.migrate(new_compiled, cell_remap)
        for by_group in self.windows.values():
            for accumulator in by_group.values():
                accumulator.migrate(new_compiled, matrix_remap)
        self.compiled = new_compiled

    # -- checkpointing -----------------------------------------------------------
    def export(self) -> dict:
        """The open pane's scopes and the accumulators, groups canonical, windows sorted."""
        return {
            "open_pane_index": self.open_index,
            "open_pane_scopes": [
                self.open_scopes[group].export_state()
                for group in self.canonical(self.open_scopes)
            ],
            "accumulators": [
                {"window": [window.start, window.end], "group": list(group), **acc.export_state()}
                for window, group, acc in self.canonical.walk(self.windows)
            ],
            "last_timestamp": self.last_timestamp,
        }

    def restore(self, state: dict) -> None:
        """Restore what :meth:`export` wrote, under the current pane compilation."""
        self.open_index = state["open_pane_index"]
        self.open_scopes = {}
        for dump in state["open_pane_scopes"]:
            group = tuple(dump["group"])
            scope = self.open_scopes[group] = PaneScope(self.compiled, dump["pane_index"], group)
            scope.restore_state(dump)
        self.windows = {}
        for dump in state["accumulators"]:
            window = WindowInstance(*dump["window"])
            accumulator = WindowPaneAccumulator(self.compiled)
            accumulator.restore_state(dump)
            self.windows.setdefault(window, {})[tuple(dump["group"])] = accumulator
        self.last_timestamp = state["last_timestamp"]
