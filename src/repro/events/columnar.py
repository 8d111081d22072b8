"""Columnar micro-batch representation of a timestamp batch.

Routing a batch — type lookup, filter predicates, group keys, metric
counting — reads only a handful of *columns*: the event type, the attributes
the workload's predicates read, and the partition attributes.  This module
provides the struct-of-arrays view the engine
(:class:`~repro.executor.engine.StreamingEngine`) routes:

* :class:`ColumnLayout` — *which* columns to materialise, derived once per
  compiled workload: the relevant event types (interned to small integer
  ids), the attributes read by filter predicates and aggregate specs, and
  the partition attributes (GROUP BY + equivalence predicates) that become
  interned group-key tuples.
* :class:`ColumnarBatch` — one timestamp batch as parallel arrays:
  ``type_ids`` (``-1`` for types outside the workload), one value list per
  layout attribute, and the interned ``group_keys``.  Routing hands the
  window strategies row indices into these columns, and both strategies'
  kernels bucket them (:meth:`ColumnarBatch.rows_by_type`) and summarise
  them (:meth:`ColumnarBatch.summarise`) from the columns; events are
  materialised only for ``on_batch`` observers.

An event log's runs, an in-memory stream's stored runs
(:meth:`EventStream.runs <repro.events.stream.EventStream.runs>`) and the
reorder feed's released batches, the same ``Rows`` shape, become batches
through :meth:`ColumnarBatch.from_rows` without an
:class:`~repro.events.event.Event`; :meth:`ColumnarBatch.from_events` serves
only ordered event iterables (generators, event lists).  The engine builds
one batch per timestamp as it routes
(:meth:`~repro.executor.engine.StreamingEngine.routed_batches`).

Group keys are *interned*: equal keys across a stream are one tuple object,
which removes per-event tuple allocation from the routing loop and keeps the
per-group dictionaries compact.
"""

from __future__ import annotations

from itertools import compress, repeat
from typing import TYPE_CHECKING, Any, Iterable, Iterator

from .event import Event
from .log import Rows, rows_to_events

if TYPE_CHECKING:  # pragma: no cover - the query layer sits above this module
    from ..queries.aggregates import AggregateSpec

__all__ = ["ColumnLayout", "ColumnarBatch", "RowGroups"]

#: A routed batch's groups: group key -> the group's row indices, in batch order.
RowGroups = dict[tuple, list[int]]

#: Distinct group keys retained by the streaming interner before it is
#: dropped and restarted.  Interning is a dedup optimisation, never a
#: correctness requirement, so resetting it merely loses tuple sharing
#: across the boundary — and keeps unbounded-stream runs bounded by their
#: open scopes (the engine's memory contract), not by group cardinality.
_INTERNER_LIMIT = 4096


class ColumnLayout:
    """Which columns a :class:`ColumnarBatch` materialises.

    Parameters
    ----------
    types:
        The event types the workload can react to; interned to ids
        ``0..len(types)-1`` in the given order.  Every other type maps to
        ``-1`` (irrelevant by type).
    attributes:
        Attributes to extract into per-batch value columns (the union of
        filter-predicate and aggregate-spec reads).
    partition:
        Attributes forming the group key (GROUP BY then equivalence
        attributes, in :attr:`Query.partition_attributes` order); when
        non-empty each batch carries an interned ``group_keys`` column.
    """

    __slots__ = ("types", "attributes", "partition", "_type_ids")

    def __init__(
        self,
        types: Iterable[str],
        attributes: Iterable[str] = (),
        partition: Iterable[str] = (),
    ) -> None:
        self.types: tuple[str, ...] = tuple(types)
        self.attributes: tuple[str, ...] = tuple(attributes)
        self.partition: tuple[str, ...] = tuple(partition)
        self._type_ids: dict[str, int] = {
            event_type: index for index, event_type in enumerate(self.types)
        }
        if len(self._type_ids) != len(self.types):
            raise ValueError("layout types must be unique")

    def type_id(self, event_type: str) -> int:
        """Interned id of ``event_type``; ``-1`` when outside the layout."""
        return self._type_ids.get(event_type, -1)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"ColumnLayout(types={len(self.types)}, attributes={list(self.attributes)}, "
            f"partition={list(self.partition)})"
        )


class ColumnarBatch:
    """One same-timestamp batch in struct-of-arrays form.

    All columns are parallel to the batch's events (iterating the batch
    yields them) but only *defined* at the type-relevant indices
    (:attr:`relevant`): routing never reads a value or group key of a row
    the workload cannot react to, so extraction skips those rows and leaves
    ``None`` cells behind.  At relevant indices,
    ``columns[attr][i] is None`` means event ``i`` does not carry ``attr``
    (matching ``Event.attribute(attr)``).

    Routing (:meth:`CompiledWorkload.route_columnar
    <repro.executor.engine.CompiledWorkload.route_columnar>`) selects rows by
    index, and the kernels of both window strategies read ``type_ids`` and
    ``columns`` at those rows directly.  A batch built :meth:`from_rows` (an
    event log's or a stream's columns) therefore holds no
    :class:`~repro.events.event.Event`; iterating it (``on_batch`` observers)
    builds them.
    """

    __slots__ = (
        "timestamp",
        "size",
        "type_ids",
        "relevant",
        "columns",
        "group_keys",
        "_events",
        "_rows",
    )

    def __init__(
        self,
        timestamp: int,
        type_ids: list[int],
        relevant: list[int],
        events: "list[Event] | None" = None,
        rows: "list[Rows] | None" = None,
    ) -> None:
        self.timestamp = timestamp
        self._events = events
        #: The log runs the events are built from on demand (``from_rows``).
        self._rows = rows
        self.size = len(type_ids)
        self.type_ids = type_ids
        #: Row indices whose type the layout knows (``type_ids[i] >= 0``) —
        #: the batch's type-relevance selection, precomputed at ingestion so
        #: routing never scans rows the workload cannot react to.
        self.relevant = relevant
        self.columns: dict[str, list[Any]] = {}
        self.group_keys: "list[tuple | None] | None" = None

    @classmethod
    def from_events(
        cls,
        timestamp: int,
        events: list[Event],
        layout: ColumnLayout,
        key_interner: "dict[tuple, tuple] | None" = None,
    ) -> "ColumnarBatch":
        """Extract the layout's columns from one timestamp batch.

        ``key_interner`` deduplicates group-key tuples across batches; pass
        one shared dict per stream so routing dictionaries see one object per
        distinct key.  Attribute cells and group keys are extracted only at
        type-relevant rows — the rest of the batch is dead to routing by
        construction, so per-event work tracks the relevant fraction, not
        the stream rate.
        """
        type_of = layout._type_ids
        type_ids = [type_of.get(event.event_type, -1) for event in events]
        relevant = [i for i, type_id in enumerate(type_ids) if type_id >= 0]
        batch = cls(timestamp, type_ids, relevant, events=events)

        def cells(name: str) -> list:
            return [events[i].attributes.get(name) for i in relevant]

        batch._fill(layout, key_interner, cells)
        return batch

    @classmethod
    def from_rows(
        cls,
        timestamp: int,
        rows: "list[Rows]",
        layout: ColumnLayout,
        key_interner: "dict[tuple, tuple] | None" = None,
    ) -> "ColumnarBatch":
        """Build the batch from an event log's column rows, without events.

        ``rows`` is one timestamp run as
        :meth:`EventLogReader.batches_from <repro.events.log.EventLogReader.batches_from>`
        yields it: one ``Rows`` per run of events with equal attribute names.
        Equal, column for column, to :meth:`from_events` over the same events.

        The relevant rows are found by one C-level scan of the type column
        (``compress`` over ``dict.__contains__``), and only they get a type id
        looked up: most rows of a sparse stream are of no layout type.
        """
        type_of = layout._type_ids
        types = rows[0][0] if len(rows) == 1 else [t for run in rows for t in run[0]]
        relevant = list(compress(range(len(types)), map(type_of.__contains__, types)))
        type_ids = [-1] * len(types)
        for i in relevant:
            type_ids[i] = type_of[types[i]]
        batch = cls(timestamp, type_ids, relevant, rows=rows)
        absent = [None] * len(relevant)

        def cells(name: str) -> list:
            if len(rows) == 1:
                column = rows[0][2].get(name)
            else:  # a run without the name contributes ``None`` cells
                column = [c for types, _, run in rows for c in run.get(name) or [None] * len(types)]
            return absent if column is None else [column[i] for i in relevant]

        batch._fill(layout, key_interner, cells)
        return batch

    def _fill(self, layout: ColumnLayout, key_interner: "dict | None", cells) -> None:
        """Scatter ``cells(name)``, a name's values at the relevant rows, into columns and keys."""
        relevant = self.relevant
        for attr in layout.attributes:
            column: list[Any] = [None] * self.size
            for i, value in zip(relevant, cells(attr)):
                column[i] = value
            self.columns[attr] = column
        if layout.partition:
            interner = key_interner if key_interner is not None else {}
            group_keys: list["tuple | None"] = [None] * self.size
            for i, raw in zip(relevant, zip(*map(cells, layout.partition))):
                group_keys[i] = interner.setdefault(raw, raw)
            self.group_keys = group_keys

    def rows_by_type(self, rows: Iterable[int]) -> dict[int, list[int]]:
        """Bucket ``rows`` by interned type id: type id -> its rows, in batch order.

        Types appear in the order of their first row.  The one row->type
        bucketing of both window strategies: a pane scope looks its cell ops
        up by id, a per-instance scope names the types through the layout.
        """
        type_ids = self.type_ids
        by_type: dict[int, list[int]] = {}
        for i in rows:
            bucket = by_type.get(type_ids[i])
            if bucket is None:
                by_type[type_ids[i]] = [i]
            else:
                bucket.append(i)
        return by_type

    def summarise(self, spec: "AggregateSpec", event_type: str, rows: list[int]) -> tuple:
        """``spec.summarise`` over ``rows`` (all ``event_type``), values read from :attr:`columns`.

        A column this batch's layout lacks reads as ``None`` in every row, as
        ``Event.attribute`` reads an absent attribute: only a detached query's
        silenced zombie chain, compiled under an older layout, asks for one.
        """
        attribute = spec.attribute
        if attribute is None:
            return spec.summarise(event_type, len(rows), ())
        column = self.columns.get(attribute)
        values = repeat(None, len(rows)) if column is None else map(column.__getitem__, rows)
        return spec.summarise(event_type, len(rows), values)

    def __len__(self) -> int:
        return self.size

    def __iter__(self) -> Iterator[Event]:
        """The batch's events; built afresh for column rows, and not kept."""
        if self._events is None:
            return rows_to_events(self.timestamp, self._rows)
        return iter(self._events)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"ColumnarBatch(t={self.timestamp}, {self.size} events)"

