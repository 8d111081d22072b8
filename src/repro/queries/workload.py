"""Query workloads.

A :class:`Workload` is the unit of optimization in Sharon: the Multi-query
Event Sequence Aggregation problem takes a workload and a stream and asks for
the sharing plan minimising workload latency (Section 2.2).

Besides acting as an ordered container of queries, the workload exposes the
structural facts the optimizer needs — which event types occur, whether all
queries agree on window/predicates/grouping (the core model's assumption),
and per-query lookups by name.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Sequence

from ..events.event import EventType
from .pattern import Pattern
from .query import Query

__all__ = ["NonUniformWorkloadError", "Workload"]


class NonUniformWorkloadError(ValueError):
    """A workload whose queries differ in window, predicates or grouping reached
    an executor that needs them to agree (the paper's assumption (2), Section 2.1)."""


class Workload:
    """An ordered collection of uniquely named queries."""

    def __init__(self, queries: Iterable[Query] = (), name: str = "workload") -> None:
        self.name = name
        self._queries: list[Query] = []
        self._by_name: dict[str, Query] = {}
        for query in queries:
            self.add(query)

    # -- container protocol -----------------------------------------------------
    def add(self, query: Query) -> None:
        if query.name in self._by_name:
            raise ValueError(f"duplicate query name {query.name!r} in workload {self.name!r}")
        self._queries.append(query)
        self._by_name[query.name] = query

    def __iter__(self) -> Iterator[Query]:
        return iter(self._queries)

    def __len__(self) -> int:
        return len(self._queries)

    def __getitem__(self, key) -> Query:
        if isinstance(key, str):
            return self._by_name[key]
        return self._queries[key]

    def __contains__(self, query: "Query | str") -> bool:
        if isinstance(query, str):
            return query in self._by_name
        return query in self._queries

    @property
    def queries(self) -> tuple[Query, ...]:
        return tuple(self._queries)

    def query_names(self) -> tuple[str, ...]:
        return tuple(q.name for q in self._queries)

    def index_of(self, query: "Query | str") -> int:
        """Position of a query in the workload (used as its identifier)."""
        name = query if isinstance(query, str) else query.name
        for index, candidate in enumerate(self._queries):
            if candidate.name == name:
                return index
        raise KeyError(f"query {name!r} not in workload {self.name!r}")

    # -- structural facts ---------------------------------------------------------
    def event_types(self) -> tuple[EventType, ...]:
        """All event types referenced by any query, sorted."""
        types: set[EventType] = set()
        for query in self._queries:
            types.update(query.pattern.event_types)
        return tuple(sorted(types))

    def patterns(self) -> tuple[Pattern, ...]:
        return tuple(q.pattern for q in self._queries)

    def is_uniform(self) -> bool:
        """Whether all queries share window, predicates, and grouping.

        This is the paper's simplifying assumption (2) in Section 2.1; the
        callers that require it raise :class:`NonUniformWorkloadError` when
        it does not hold.
        """
        if len(self._queries) <= 1:
            return True
        first = self._queries[0]
        return all(q.same_context_as(first) for q in self._queries[1:])

    def subset(self, names: Sequence[str], name: str = "") -> "Workload":
        """A new workload containing only the named queries (original order)."""
        wanted = set(names)
        picked = [q for q in self._queries if q.name in wanted]
        return Workload(picked, name=name or f"{self.name}-subset")

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Workload({self.name!r}, {len(self._queries)} queries)"
