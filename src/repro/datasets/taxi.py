"""Synthetic stand-in for the New York City Taxi / Uber data set (TX).

The paper's TX experiments replay 1.3 billion real trips (330 GB), which are
not available offline.  This module generates a *position-report* stream with
the same structural properties the executors and the cost model care about:

* event types are street segments (``OakSt``, ``MainSt`` ... plus generated
  avenues), so route patterns are contiguous sequences of street types;
* every report carries the vehicle identifier (the ``[vehicle]`` equivalence
  predicate of queries q1–q7), passenger count, and speed;
* vehicles drive routes drawn from a small set of popular routes with
  Zipf-like popularity, so some street sequences are frequent (popular
  routes) and others rare — the property that makes sharing worthwhile.

Absolute throughput numbers differ from the authors' testbed, but the
relative behaviour of the executors (who wins, how the gap scales with
queries / events per window) is preserved because it depends only on event
rates and match counts, both of which are controlled here.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from ..events.event import Event
from ..events.stream import EventStream

__all__ = ["TaxiConfig", "DEFAULT_STREETS", "generate_taxi_stream"]


#: Street segments of the motivating example (Figure 1) plus filler avenues.
DEFAULT_STREETS: tuple[str, ...] = (
    "OakSt",
    "MainSt",
    "ParkAve",
    "WestSt",
    "StateSt",
    "ElmSt",
    "HighSt",
    "GroveSt",
    "CherrySt",
    "LakeAve",
)


@dataclass(frozen=True)
class TaxiConfig:
    """Parameters of the synthetic taxi stream."""

    streets: tuple[str, ...] = DEFAULT_STREETS
    num_vehicles: int = 50
    duration_seconds: int = 600
    reports_per_second: float = 20.0
    #: Number of distinct routes vehicles choose from; popularity is Zipf-like.
    num_routes: int = 8
    route_length: tuple[int, int] = (3, 5)
    seed: int = 42

    def __post_init__(self) -> None:
        if self.num_vehicles <= 0:
            raise ValueError("num_vehicles must be positive")
        if self.duration_seconds <= 0:
            raise ValueError("duration_seconds must be positive")
        if self.reports_per_second <= 0:
            raise ValueError("reports_per_second must be positive")
        if not 2 <= self.route_length[0] <= self.route_length[1]:
            raise ValueError("route_length must be an increasing pair with minimum >= 2")


def _build_routes(config: TaxiConfig, rng: random.Random) -> list[list[str]]:
    """Popular routes: contiguous runs over the street list, wrapping around."""
    routes = []
    for index in range(config.num_routes):
        length = rng.randint(*config.route_length)
        start = rng.randrange(len(config.streets))
        route = [config.streets[(start + offset) % len(config.streets)] for offset in range(length)]
        routes.append(route)
    return routes


def generate_taxi_stream(config: TaxiConfig = TaxiConfig()) -> EventStream:
    """Generate the synthetic TX position-report stream.

    Vehicles repeatedly pick a route (popular routes more often), then emit
    one report per route segment on consecutive seconds, so a trip over
    ``(OakSt, MainSt)`` produces exactly the event sequence the traffic
    queries count.
    """
    rng = random.Random(config.seed)
    routes = _build_routes(config, rng)
    # Zipf-like route popularity: route k is picked with weight 1/(k+1).
    weights = [1.0 / (k + 1) for k in range(len(routes))]

    #: Per-vehicle driving state: remaining segments of the current trip.
    remaining: dict[int, list[str]] = {vehicle: [] for vehicle in range(config.num_vehicles)}

    events: list[Event] = []
    event_id = 0
    for timestamp in range(config.duration_seconds):
        arrivals = int(config.reports_per_second)
        if rng.random() < config.reports_per_second - arrivals:
            arrivals += 1
        for _ in range(arrivals):
            vehicle = rng.randrange(config.num_vehicles)
            if not remaining[vehicle]:
                remaining[vehicle] = list(rng.choices(routes, weights=weights, k=1)[0])
            street = remaining[vehicle].pop(0)
            events.append(
                Event(
                    street,
                    timestamp,
                    {
                        "vehicle": vehicle,
                        "passengers": rng.randint(1, 4),
                        "speed": round(rng.uniform(5.0, 35.0), 1),
                    },
                    event_id,
                )
            )
            event_id += 1
    return EventStream(events, name="taxi")
