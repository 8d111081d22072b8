"""Optional numpy kernel backend for the aggregation layer.

The engine's routing is vectorised (columnar micro-batches, compiled filter
kernels) but aggregation commits were still per-cell Python arithmetic:
:class:`~repro.executor.prefix_agg._CountColumns` walks every cohort of a
column and :meth:`~repro.queries.aggregates.AggregateSpec.summarise_batch`
iterates boxed :class:`~repro.events.event.Event` objects.  This module
provides drop-in numpy implementations of those inner loops behind the same
column interfaces, selected per engine via ``backend="python" | "numpy" |
"auto"`` (:func:`resolve_backend`).

Design contract — **bit-identical results across backends**:

* **Integer columns** (COUNT(*) cohort columns) live in ``int64`` arrays.
  Every vectorised commit first checks a conservative overflow bound
  against :data:`I64_MAX` (counts are non-negative, so column maxima
  dominate every cell) and *promotes* the column to the pure-Python
  big-int representation before any value could wrap — the same promotion
  rule the ``array('q')`` columns use, so exact arithmetic is preserved and
  the canonical exported state (plain int lists) is identical either way.
  Promoting early is results-neutral: only the storage representation
  changes, never a stored value.
* **Float reductions** reproduce the Python path's *sequential*
  left-to-right semantics: sums use ``np.cumsum`` (a left fold, unlike the
  pairwise ``np.sum``) normalised with ``+ 0.0`` so a ``-0.0`` column sum
  cannot diverge from Python's ``0.0``-seeded accumulator, and min/max rely
  on ``np.minimum``/``np.maximum`` keeping their *first* operand on ties —
  the same tie-breaking as Python's builtin ``min``/``max``, so signed
  zeros survive identically.  ``NaN`` attribute values are outside the
  engine's contract (the canonical JSON codec rejects them).
* **State columns** vectorise the fused
  :meth:`~repro.queries.aggregates.AggregateState.extend_many` +
  ``merge`` column update over struct-of-arrays fields (count/target int64,
  total float64, min/max float64 with ``NaN`` encoding ``None``), using the
  exact per-cell expression tree of the scalar code — IEEE float ops are
  deterministic, so evaluating the same expressions element-wise yields the
  same bits.

Because exports are backend-agnostic (plain ints, floats, ``None``), a
checkpoint written by either backend restores into the other and the replay
determinism contract is unchanged.

numpy is an *optional* dependency (``pip install repro[numpy]``): this module
imports without it — and without importing it: numpy is loaded when a backend
first resolves to ``"numpy"`` — ``backend="auto"`` quietly falls back to pure
Python, and ``backend="numpy"`` raises a clear error.
"""

from __future__ import annotations

from importlib.util import find_spec
from typing import Callable, Optional, Sequence

from ..events.event import Event
from ..queries.aggregates import AggregateSpec, AggregateState, AggregationKind


def _import_numpy():
    """Import numpy and bind it to ``_np`` for every kernel in this module."""
    global _np
    import numpy

    _np = numpy
    return numpy


class _LazyNumpy:
    """``_np`` until numpy is needed: pure-Python runs never pay for the import."""

    def __getattr__(self, name: str):
        return getattr(_import_numpy(), name)


_np = _LazyNumpy()

__all__ = [
    "BACKENDS",
    "I64_MAX",
    "numpy_available",
    "resolve_backend",
    "make_summariser",
    "summarise_values",
    "NumpyCountColumns",
    "NumpyStateColumns",
]

#: Backend names accepted by the engine layer: the pure-Python reference,
#: the numpy kernels, and ``"auto"`` (numpy when importable, else Python).
BACKENDS = ("python", "numpy", "auto")

#: Largest value storable in an ``int64`` cell; the promotion bound shared
#: with the ``array('q')`` columns of :mod:`repro.executor.prefix_agg`.
I64_MAX = 2**63 - 1

#: Batches smaller than this are summarised by the scalar loop even under
#: the numpy backend: array construction costs more than it saves on a
#: handful of events (the "numpy loses on tiny batches" regime, see
#: ``docs/engine.md``).  Parity is unaffected — both paths are exact.
_SUMMARISE_VECTOR_MIN = 16

_ZERO = AggregateState.zero()

#: A batch summary: the ``(k, targeted, total, min, max)`` argument tuple of
#: :meth:`~repro.queries.aggregates.AggregateState.extend_many`.
_BatchSummary = "tuple[int, int, float, Optional[float], Optional[float]]"


def numpy_available() -> bool:
    """Whether the optional numpy dependency is importable (without importing it)."""
    return find_spec("numpy") is not None


def resolve_backend(backend: str) -> str:
    """Resolve a requested backend name to ``"python"`` or ``"numpy"``.

    ``"auto"`` selects numpy when it is importable and falls back to the
    pure-Python reference otherwise; ``"numpy"`` without numpy installed
    raises immediately (at engine construction, not mid-stream) with an
    actionable message.
    """
    if backend not in BACKENDS:
        raise ValueError(f"unknown backend {backend!r}; choose one of {BACKENDS}")
    if backend == "auto":
        backend = "numpy" if numpy_available() else "python"
    elif backend == "numpy" and not numpy_available():
        raise RuntimeError(
            "backend='numpy' requires the optional numpy dependency "
            "(pip install numpy, or the 'numpy' extra: pip install repro[numpy]); "
            "use backend='auto' to fall back to the pure-Python kernels"
        )
    if backend == "numpy":
        _import_numpy()
    return backend


# -- batch summarisation -----------------------------------------------------------


def summarise_values(
    spec: AggregateSpec, k: int, values: Sequence
) -> "tuple[int, int, float, Optional[float], Optional[float]]":
    """Vectorised reduction of a raw attribute value column.

    The numpy twin of :meth:`~repro.queries.aggregates.AggregateSpec.summarise_values`:
    ``values`` holds the tracked attribute of ``k`` same-type events in batch
    order (``None`` for events not carrying it — the raw-column shape
    :meth:`~repro.events.columnar.ColumnarBatch.attribute_values` exposes),
    and the result is the ``(k, targeted, total, min, max)`` summary consumed
    by ``extend_many``.  Bit-identical to the scalar loop: the sum is a
    ``cumsum`` left fold normalised with ``+ 0.0`` (Python's accumulator
    starts at ``0.0`` and can therefore never end on ``-0.0``), and the
    min/max reductions keep the first operand on ties exactly like the
    builtins.
    """
    present = [value for value in values if value is not None]
    if not present:
        return k, k, 0.0, None, None
    column = _np.asarray(present, dtype=_np.float64)
    if len(present) == 1:
        total = float(column[0]) + 0.0
    else:
        total = float(_np.cumsum(column)[-1]) + 0.0
    return k, k, total, float(column.min()), float(column.max())


def _summarise_batch_numpy(
    spec: AggregateSpec, events: Sequence[Event]
) -> "tuple[int, int, float, Optional[float], Optional[float]]":
    """Numpy-backed :meth:`~repro.queries.aggregates.AggregateSpec.summarise_batch`.

    Extracts the batch's raw attribute column with one comprehension (the
    per-event work shrinks to a dict lookup) and reduces it with
    :func:`summarise_values`.  Small batches delegate to the scalar loop —
    below :data:`_SUMMARISE_VECTOR_MIN` events the array round-trip costs
    more than it saves.
    """
    k = len(events)
    if (
        k < _SUMMARISE_VECTOR_MIN
        or spec.kind == AggregationKind.COUNT_STAR
        or not spec.tracks_attribute
    ):
        return spec.summarise_batch(events)
    if not spec.targets(events[0]):
        return k, 0, 0.0, None, None
    attribute = spec.attribute
    return summarise_values(spec, k, [event.attributes.get(attribute) for event in events])


def make_summariser(
    backend: str,
) -> "Callable[[AggregateSpec, Sequence[Event]], tuple]":
    """The batch summariser of ``backend`` (already resolved, see :func:`resolve_backend`).

    Returns a ``(spec, events) -> (k, targeted, total, min, max)`` callable:
    the bound :meth:`~repro.queries.aggregates.AggregateSpec.summarise_batch`
    loop for ``"python"``, the columnar reduction
    (:func:`_summarise_batch_numpy`) for ``"numpy"``.
    """
    if backend == "numpy":
        return _summarise_batch_numpy
    return lambda spec, events: spec.summarise_batch(events)


# -- internal float helpers --------------------------------------------------------


def _nan_min(a, b):
    """Element-wise ``_none_min`` over NaN-encoded optional floats.

    ``NaN`` plays ``None``: an absent value yields the other operand, and
    when both are present ``np.minimum`` keeps its first operand on ties —
    the same tie-breaking (and signed-zero behaviour) as Python's ``min``.
    """
    result = _np.where(_np.isnan(a), b, a)
    both = ~_np.isnan(a) & ~_np.isnan(b)
    return _np.where(both, _np.minimum(a, b), result)


def _nan_max(a, b):
    """Element-wise ``_none_max`` over NaN-encoded optional floats."""
    result = _np.where(_np.isnan(a), b, a)
    both = ~_np.isnan(a) & ~_np.isnan(b)
    return _np.where(both, _np.maximum(a, b), result)


# -- cohort column families --------------------------------------------------------


class NumpyCountColumns:
    """COUNT(*) cohort columns in ``int64`` numpy storage.

    The numpy twin of :class:`~repro.executor.prefix_agg._CountColumns`:
    one flat 64-bit integer column per pattern position, indexed by cohort
    id, with the whole-column batch commit as a single vectorised
    multiply-add.  Shares the promotion rule of the ``array('q')`` columns —
    a column switches to a plain Python list (exact big-int arithmetic) the
    moment a stored count *could* pass :data:`I64_MAX`, checked via a
    conservative column-maximum bound **before** the vector op so no value
    ever wraps.  Canonical exports are plain int lists, identical to the
    Python backend's.
    """

    __slots__ = ("columns", "_size")

    def __init__(self, length: int) -> None:
        #: Per-position storage: an ``int64`` array (capacity-managed, the
        #: live prefix is ``[:_size]``) or a promoted big-int Python list.
        self.columns: list = [_np.zeros(0, dtype=_np.int64) for _ in range(length)]
        self._size = 0

    def _grow(self, position: int):
        """Double one column's capacity (amortised O(1) appends)."""
        column = self.columns[position]
        grown = _np.zeros(max(8, 2 * len(column)), dtype=_np.int64)
        grown[: len(column)] = column
        self.columns[position] = grown
        return grown

    def _promoted(self, position: int) -> list:
        """Switch one column to unbounded Python ints (idempotent)."""
        column = self.columns[position]
        if not isinstance(column, list):
            column = column[: self._size].tolist()
            self.columns[position] = column
        return column

    def append_cohort(self, initial: AggregateState) -> None:
        """Open a new cohort: ``initial`` count at position 0, zero elsewhere."""
        count = initial.count
        size = self._size
        for position, column in enumerate(self.columns):
            value = count if position == 0 else 0
            if not isinstance(column, list):
                if value > I64_MAX:
                    column = self._promoted(position)
                else:
                    if size >= len(column):
                        column = self._grow(position)
                    column[size] = value
                    continue
            column.append(value)
        self._size = size + 1

    def add_to_cohort(self, cohort: int, addition: AggregateState) -> None:
        """Coalesce a START batch into an existing cohort's position-0 cell.

        Exact either side of the promotion bound: the sum is formed in
        Python ints and the column promotes before a value could wrap.
        """
        column = self.columns[0]
        if isinstance(column, list):
            column[cohort] += addition.count
            return
        updated = int(column[cohort]) + addition.count
        if updated > I64_MAX:
            column = self._promoted(0)
        column[cohort] = updated

    def state_at(self, position: int, cohort: int) -> AggregateState:
        """The cohort's aggregate at ``position``, boxed on demand."""
        column = self.columns[position]
        count = column[cohort] if isinstance(column, list) else int(column[cohort])
        return AggregateState(count=count) if count else _ZERO

    def column_states(self, position: int) -> list[AggregateState]:
        """One position's whole column as boxed states (cohort order)."""
        column = self.columns[position]
        values = column if isinstance(column, list) else column[: self._size].tolist()
        return [AggregateState(count=count) if count else _ZERO for count in values]

    def extend_commit(
        self, position: int, summary, collect_deltas: bool
    ) -> "tuple[list | None, int]":
        """Apply one batch summary to a whole column as a vector multiply-add.

        Same contract as the Python columns: returns the per-cohort deltas
        (at the completion position) and the number of aggregate updates.
        The overflow bound ``k * max(base) + max(column)`` is exact for
        non-negative counts; tripping it promotes the target column and
        re-runs the commit in big-int Python arithmetic.
        """
        base = self.columns[position - 1]
        column = self.columns[position]
        k = summary[0]
        size = self._size
        if isinstance(base, list) or isinstance(column, list):
            return self._extend_commit_big(position, k, collect_deltas)
        base_view = base[:size]
        if size == 0 or not base_view.any():
            return ([] if collect_deltas else None), 0
        if k * int(base_view.max()) + int(column[:size].max()) > I64_MAX:
            self._promoted(position)
            return self._extend_commit_big(position, k, collect_deltas)
        column[:size] += base_view * k
        touched = int(_np.count_nonzero(base_view))
        if not collect_deltas:
            return None, touched * k
        deltas = [
            (cohort, AggregateState(count=k * int(base_view[cohort])))
            for cohort in _np.flatnonzero(base_view).tolist()
        ]
        return deltas, touched * k

    def _extend_commit_big(
        self, position: int, k: int, collect_deltas: bool
    ) -> "tuple[list | None, int]":
        """Exact big-int commit used once either column has been promoted."""
        base = self.columns[position - 1]
        if not isinstance(base, list):
            base = base[: self._size].tolist()
        column = self._promoted(position)
        deltas: "list | None" = [] if collect_deltas else None
        touched = 0
        for cohort, base_count in enumerate(base):
            if not base_count:
                continue
            added = k * base_count
            column[cohort] += added
            touched += 1
            if deltas is not None:
                deltas.append((cohort, AggregateState(count=added)))
        return deltas, touched * k

    def _store(self, position: int, values: list) -> None:
        """Store one column, re-compacting to ``int64`` when it fits."""
        try:
            self.columns[position] = _np.array(values, dtype=_np.int64)
        except OverflowError:
            self.columns[position] = list(values)

    def export_columns(self) -> list:
        """The columns as nested lists of plain ints (JSON-safe, exact).

        Byte-identical under canonical JSON to
        :meth:`~repro.executor.prefix_agg._CountColumns.export_columns` for
        the same logical state — the cross-backend checkpoint contract.
        """
        return [
            list(column) if isinstance(column, list) else column[: self._size].tolist()
            for column in self.columns
        ]

    def restore_columns(self, columns: Sequence) -> None:
        """Restore columns exported by either backend's ``export_columns``."""
        if len(columns) != len(self.columns):
            raise ValueError("snapshot column count does not match the pattern length")
        self._size = len(columns[0])
        for position, values in enumerate(columns):
            self._store(position, list(values))

    def clear(self) -> None:
        """Reset for pooled reuse, re-arming the compact representation."""
        for position, column in enumerate(self.columns):
            if isinstance(column, list):
                self.columns[position] = _np.zeros(0, dtype=_np.int64)
        self._size = 0


class NumpyStateColumns:
    """General aggregate columns in struct-of-arrays numpy storage.

    The numpy twin of :class:`~repro.executor.prefix_agg._StateColumns` for
    COUNT(E)/SUM/MIN/MAX/AVG: instead of one
    :class:`~repro.queries.aggregates.AggregateState` object per cell, each
    pattern position keeps five parallel arrays (count/target ``int64``,
    total ``float64``, min/max ``float64`` with ``NaN`` encoding ``None``)
    and the fused ``extend_many`` + ``merge`` batch commit runs as
    whole-column vector expressions — the exact per-cell expression tree of
    the scalar code, so IEEE determinism makes the results bit-identical.
    Count/target overflow promotes a position back to a boxed
    ``AggregateState`` list (exact big-int arithmetic), mirroring the count
    columns' promotion rule.
    """

    __slots__ = ("length", "_size", "_counts", "_targets", "_totals", "_mins", "_maxs", "_big")

    def __init__(self, length: int) -> None:
        self.length = length
        self._size = 0
        self._counts = [_np.zeros(0, dtype=_np.int64) for _ in range(length)]
        self._targets = [_np.zeros(0, dtype=_np.int64) for _ in range(length)]
        self._totals = [_np.zeros(0, dtype=_np.float64) for _ in range(length)]
        self._mins = [_np.zeros(0, dtype=_np.float64) for _ in range(length)]
        self._maxs = [_np.zeros(0, dtype=_np.float64) for _ in range(length)]
        #: Promoted positions: boxed big-int state lists, keyed by position.
        self._big: dict[int, list[AggregateState]] = {}

    def _grow(self, position: int) -> None:
        """Double one position's capacity across all five field arrays."""
        for family in (self._counts, self._targets, self._totals, self._mins, self._maxs):
            column = family[position]
            grown = _np.zeros(max(8, 2 * len(column)), dtype=column.dtype)
            grown[: len(column)] = column
            family[position] = grown

    def _state_from_arrays(self, position: int, cohort: int) -> AggregateState:
        """Box one array cell (``NaN`` min/max decode to ``None``)."""
        count = int(self._counts[position][cohort])
        if not count:
            return _ZERO
        minimum = float(self._mins[position][cohort])
        maximum = float(self._maxs[position][cohort])
        return AggregateState(
            count=count,
            target_count=int(self._targets[position][cohort]),
            total=float(self._totals[position][cohort]),
            minimum=None if minimum != minimum else minimum,
            maximum=None if maximum != maximum else maximum,
        )

    def _column_list(self, position: int) -> list[AggregateState]:
        """The position's column as boxed states (promoted list or a copy)."""
        states = self._big.get(position)
        if states is None:
            states = [self._state_from_arrays(position, cohort) for cohort in range(self._size)]
        return states

    def _promoted(self, position: int) -> list[AggregateState]:
        """Switch one position to the boxed big-int representation."""
        states = self._big.get(position)
        if states is None:
            states = [self._state_from_arrays(position, cohort) for cohort in range(self._size)]
            self._big[position] = states
        return states

    def _write_cell(self, position: int, cohort: int, state: AggregateState) -> None:
        """Unbox ``state`` into one array cell (``None`` min/max encode as NaN)."""
        self._counts[position][cohort] = state.count
        self._targets[position][cohort] = state.target_count
        self._totals[position][cohort] = state.total
        self._mins[position][cohort] = _np.nan if state.minimum is None else state.minimum
        self._maxs[position][cohort] = _np.nan if state.maximum is None else state.maximum

    def append_cohort(self, initial: AggregateState) -> None:
        """Open a new cohort: ``initial`` at position 0, zero elsewhere."""
        size = self._size
        for position in range(self.length):
            state = initial if position == 0 else _ZERO
            big = self._big.get(position)
            if big is None and (state.count > I64_MAX or state.target_count > I64_MAX):
                big = self._promoted(position)
            if big is not None:
                big.append(state)
                continue
            if size >= len(self._counts[position]):
                self._grow(position)
            self._write_cell(position, size, state)
        self._size = size + 1

    def add_to_cohort(self, cohort: int, addition: AggregateState) -> None:
        """Coalesce a START batch into an existing cohort's position-0 cell.

        The cell is boxed, merged with the scalar ``merge`` and unboxed, so
        the stored bits equal the Python columns'; a merged count or target
        past :data:`I64_MAX` promotes position 0 first.
        """
        big = self._big.get(0)
        if big is None:
            merged = self._state_from_arrays(0, cohort).merge(addition)
            if merged.count <= I64_MAX and merged.target_count <= I64_MAX:
                self._write_cell(0, cohort, merged)
                return
            big = self._promoted(0)
        big[cohort] = big[cohort].merge(addition)

    def state_at(self, position: int, cohort: int) -> AggregateState:
        """The cohort's aggregate at ``position``, boxed on demand."""
        big = self._big.get(position)
        if big is not None:
            return big[cohort]
        return self._state_from_arrays(position, cohort)

    def column_states(self, position: int) -> list[AggregateState]:
        """One position's whole column as boxed states (cohort order)."""
        return list(self._column_list(position))

    def extend_commit(
        self, position: int, summary, collect_deltas: bool
    ) -> "tuple[list | None, int]":
        """Vectorised fused ``extend_many`` + ``merge`` over a whole column.

        Evaluates the exact per-cell expressions of the scalar path as
        column vectors; the conservative ``int64`` bound (column maxima,
        valid because counts are non-negative) promotes the target position
        to boxed big-int states before any count or target could wrap.
        """
        k, targeted, total_value, batch_min, batch_max = summary
        size = self._size
        if position - 1 in self._big or position in self._big:
            return self._extend_commit_boxed(position, summary, collect_deltas)
        base_counts = self._counts[position - 1][:size]
        if size == 0 or not base_counts.any():
            return ([] if collect_deltas else None), 0
        base_targets = self._targets[position - 1][:size]
        max_base_count = int(base_counts.max())
        if (
            k * max_base_count + int(self._counts[position][:size].max()) > I64_MAX
            or k * int(base_targets.max())
            + targeted * max_base_count
            + int(self._targets[position][:size].max())
            > I64_MAX
        ):
            self._promoted(position)
            return self._extend_commit_boxed(position, summary, collect_deltas)
        mask = base_counts > 0
        base_totals = self._totals[position - 1][:size]
        base_mins = self._mins[position - 1][:size]
        base_maxs = self._maxs[position - 1][:size]
        add_counts = base_counts * k
        if targeted == 0:
            # extend_many degenerates to scale(k): min/max pass through.
            add_targets = base_targets * k
            add_totals = base_totals * k
            add_mins = base_mins
            add_maxs = base_maxs
        else:
            add_targets = base_targets * k + targeted * base_counts
            add_totals = base_totals * k + total_value * base_counts
            add_mins = (
                base_mins
                if batch_min is None
                else _nan_min(base_mins, _np.float64(batch_min))
            )
            add_maxs = (
                base_maxs
                if batch_max is None
                else _nan_max(base_maxs, _np.float64(batch_max))
            )
        # Merge into the column.  Where base.count == 0 every integer/float
        # addition is exactly zero (zero states have all-zero fields and
        # additions are never -0.0), so counts/targets/totals add unmasked;
        # min/max must stay masked — a NaN base min would otherwise let the
        # batch minimum leak into untouched cells.
        self._counts[position][:size] += add_counts
        self._targets[position][:size] += add_targets
        self._totals[position][:size] += add_totals
        mins = self._mins[position][:size]
        maxs = self._maxs[position][:size]
        mins[...] = _np.where(mask, _nan_min(mins, add_mins), mins)
        maxs[...] = _np.where(mask, _nan_max(maxs, add_maxs), maxs)
        touched = int(_np.count_nonzero(mask))
        if not collect_deltas:
            return None, touched * k
        deltas = []
        for cohort in _np.flatnonzero(mask).tolist():
            minimum = float(add_mins[cohort])
            maximum = float(add_maxs[cohort])
            deltas.append(
                (
                    cohort,
                    AggregateState(
                        count=int(add_counts[cohort]),
                        target_count=int(add_targets[cohort]),
                        total=float(add_totals[cohort]),
                        minimum=None if minimum != minimum else minimum,
                        maximum=None if maximum != maximum else maximum,
                    ),
                )
            )
        return deltas, touched * k

    def _extend_commit_boxed(
        self, position: int, summary, collect_deltas: bool
    ) -> "tuple[list | None, int]":
        """Boxed big-int commit used once either position has been promoted."""
        base = self._column_list(position - 1)
        column = self._promoted(position)
        deltas: "list | None" = [] if collect_deltas else None
        touched = 0
        for cohort, base_state in enumerate(base):
            if base_state.count == 0:
                continue
            addition = base_state.extend_many(*summary)
            column[cohort] = column[cohort].merge(addition)
            touched += 1
            if deltas is not None:
                deltas.append((cohort, addition))
        return deltas, touched * summary[0]

    def _set_column(self, position: int, states: list[AggregateState]) -> None:
        """Store one boxed column, re-packing into arrays when counts fit."""
        if any(
            state.count > I64_MAX or state.target_count > I64_MAX for state in states
        ):
            self._big[position] = list(states)
            return
        self._big.pop(position, None)
        n = len(states)
        counts = _np.empty(n, dtype=_np.int64)
        targets = _np.empty(n, dtype=_np.int64)
        totals = _np.empty(n, dtype=_np.float64)
        mins = _np.empty(n, dtype=_np.float64)
        maxs = _np.empty(n, dtype=_np.float64)
        for index, state in enumerate(states):
            counts[index] = state.count
            targets[index] = state.target_count
            totals[index] = state.total
            mins[index] = _np.nan if state.minimum is None else state.minimum
            maxs[index] = _np.nan if state.maximum is None else state.maximum
        self._counts[position] = counts
        self._targets[position] = targets
        self._totals[position] = totals
        self._mins[position] = mins
        self._maxs[position] = maxs

    def export_columns(self) -> list:
        """The columns as nested lists of state tuples (JSON-safe).

        Identical under canonical JSON to the Python backend's export for
        the same logical state — the cross-backend checkpoint contract.
        """
        return [
            [state.as_tuple() for state in self._column_list(position)]
            for position in range(self.length)
        ]

    def restore_columns(self, columns: Sequence) -> None:
        """Restore columns exported by either backend's ``export_columns``."""
        if len(columns) != self.length:
            raise ValueError("snapshot column count does not match the pattern length")
        self._size = len(columns[0])
        for position, values in enumerate(columns):
            self._set_column(
                position, [AggregateState.from_tuple(value) for value in values]
            )

    def clear(self) -> None:
        """Reset for pooled reuse (array capacity is kept)."""
        self._big.clear()
        self._size = 0
