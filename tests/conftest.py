"""Shared fixtures for the Sharon reproduction test suite."""

from __future__ import annotations

import json
from itertools import accumulate

import pytest

from repro.core import SharingCandidate, build_sharon_graph
from repro.datasets import (
    EcommerceConfig,
    TaxiConfig,
    generate_ecommerce_stream,
    generate_taxi_stream,
    purchase_workload,
    traffic_workload,
)
from repro.events import ColumnarBatch, ColumnLayout, Event, EventStream, SlidingWindow
from repro.events.log import LOG_FORMAT, event_to_record
from repro.events.stream import timestamp_batches
from repro.queries import AggregateSpec, Pattern, PredicateSet, Query, Workload
from repro.utils import RateCatalog

#: Vertex weights of the Sharon graph in Figure 4, keyed by pattern types.
#: They are consistent with Examples 5, 7, 8, 10 and 12 of the paper
#: (GWMIN bound ~38.57, greedy score 43, optimal score 50).
PAPER_BENEFITS: dict[tuple[str, ...], float] = {
    ("OakSt", "MainSt"): 25.0,             # p1, shared by q1-q4
    ("ParkAve", "OakSt"): 9.0,             # p2, shared by q3, q4
    ("ParkAve", "OakSt", "MainSt"): 12.0,  # p3, shared by q3, q4
    ("MainSt", "WestSt"): 15.0,            # p4, shared by q2, q4
    ("OakSt", "MainSt", "WestSt"): 20.0,   # p5, shared by q2, q4
    ("MainSt", "StateSt"): 8.0,            # p6, shared by q1, q5
    ("ElmSt", "ParkAve"): 18.0,            # p7, shared by q6, q7
}


def paper_benefit(candidate: SharingCandidate) -> float:
    """Benefit override reproducing the weights of Figure 4."""
    return PAPER_BENEFITS.get(candidate.pattern.event_types, 0.0)


@pytest.fixture
def traffic() -> Workload:
    """The traffic-monitoring workload q1-q7 (Figure 1)."""
    return traffic_workload()

@pytest.fixture
def purchases() -> Workload:
    """The purchase-monitoring workload q8-q11 (Figure 2)."""
    return purchase_workload()


@pytest.fixture
def paper_graph(traffic):
    """The Sharon graph of Figure 4 with the paper's vertex weights."""
    return build_sharon_graph(
        traffic, RateCatalog(default_rate=1.0), benefit_override=paper_benefit
    )


@pytest.fixture
def small_taxi_stream() -> EventStream:
    """A small deterministic taxi stream for executor tests."""
    return generate_taxi_stream(
        TaxiConfig(duration_seconds=90, reports_per_second=6, num_vehicles=5, seed=3)
    )


@pytest.fixture
def small_purchase_stream() -> EventStream:
    """A small deterministic purchase stream for executor tests."""
    return generate_ecommerce_stream(
        EcommerceConfig(
            num_items=10,
            num_customers=4,
            duration_seconds=90,
            purchases_per_second=5.0,
            seed=13,
        )
    )


@pytest.fixture
def ab_query() -> Query:
    """COUNT(*) over SEQ(A, B), window 4 slide 1 — the running example of Figure 6."""
    return Query(
        pattern=Pattern(["A", "B"]),
        window=SlidingWindow(size=4, slide=1),
        aggregate=AggregateSpec.count_star(),
        name="ab",
    )


def make_events(rows) -> list[Event]:
    """Build events from ``(type, timestamp)`` or ``(type, timestamp, attrs)`` rows."""
    events = []
    for event_id, row in enumerate(rows):
        if len(row) == 2:
            event_type, timestamp = row
            attrs = {}
        else:
            event_type, timestamp, attrs = row
        events.append(Event(event_type, timestamp, attrs, event_id))
    return events


def kernel_batches(events):
    """Yield ``events`` as the per-instance kernels read them: ``(batch, rows by type)``.

    One :class:`ColumnarBatch` per timestamp over a layout holding every type
    and attribute of ``events``, and its rows bucketed by type name.
    """
    layout = ColumnLayout(
        types=sorted({event.event_type for event in events}),
        attributes=sorted({name for event in events for name in event.attributes}),
    )
    for timestamp, batch_events in timestamp_batches(events):
        batch = ColumnarBatch.from_events(timestamp, batch_events, layout)
        by_id = batch.rows_by_type(batch.relevant)
        yield batch, {layout.types[type_id]: rows for type_id, rows in by_id.items()}


def arrival_lateness(events) -> list[int]:
    """How late each arrival is: the largest timestamp seen so far minus its own."""
    latest = accumulate((event.timestamp for event in events), max)
    return [seen - event.timestamp for seen, event in zip(latest, events)]


def write_v1_log(events, path) -> None:
    """``events`` as a version 1 log: the same header and record lines, no frames."""
    lines = [{"format": LOG_FORMAT, "version": 1, "stream": "v1"}, *map(event_to_record, events)]
    path.write_text(
        "".join(json.dumps(line, separators=(",", ":")) + "\n" for line in lines), encoding="utf-8"
    )


@pytest.fixture
def uniform_query_factory():
    """Factory building uniform COUNT(*) queries sharing one window."""

    window = SlidingWindow(size=20, slide=10)

    def factory(types, name, predicates: PredicateSet | None = None) -> Query:
        return Query(
            pattern=Pattern(types),
            window=window,
            aggregate=AggregateSpec.count_star(),
            predicates=predicates if predicates is not None else PredicateSet(),
            name=name,
        )

    return factory
