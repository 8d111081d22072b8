"""Compact re-implementation of the Linear Road position-report generator (LR).

The Linear Road benchmark [6] simulates cars on an expressway emitting
position reports; the paper uses its traffic simulator to produce a 3-hour
stream whose rate ramps up from a few dozen to thousands of events per
second.  This module reproduces the aspects that matter for Sharon:

* event types are expressway *segments* (``Seg0`` ... ``SegN``) so that the
  traffic workload's sequence patterns (car crosses segment i, then i+1, ...)
  have matches;
* every report carries the car identifier (equivalence predicate), speed, and
  lane;
* the report rate increases linearly over the simulated duration, which is
  what drives the events-per-window sweeps of Figures 13 and 14.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from ..events.event import Event
from ..events.stream import EventStream

__all__ = ["LinearRoadConfig", "segment_types", "generate_linear_road_stream"]


@dataclass(frozen=True)
class LinearRoadConfig:
    """Parameters of the Linear Road simulation."""

    num_segments: int = 20
    num_cars: int = 200
    duration_seconds: int = 600
    #: Report rate at the start and at the end of the simulation (events/s).
    initial_rate: float = 5.0
    final_rate: float = 50.0
    #: Probability that a car advances to the next segment after reporting.
    advance_probability: float = 0.7
    seed: int = 17

    def __post_init__(self) -> None:
        if self.num_segments < 2:
            raise ValueError("num_segments must be at least 2")
        if self.num_cars <= 0:
            raise ValueError("num_cars must be positive")
        if self.duration_seconds <= 0:
            raise ValueError("duration_seconds must be positive")
        if self.initial_rate <= 0 or self.final_rate <= 0:
            raise ValueError("rates must be positive")


def segment_types(config: LinearRoadConfig = LinearRoadConfig()) -> tuple[str, ...]:
    """The segment event types ``Seg0 .. Seg{n-1}`` in travel order."""
    return tuple(f"Seg{i}" for i in range(config.num_segments))


def generate_linear_road_stream(config: LinearRoadConfig = LinearRoadConfig()) -> EventStream:
    """Generate the LR position-report stream with a linearly ramping rate."""
    rng = random.Random(config.seed)
    types = segment_types(config)
    positions = {car: rng.randrange(config.num_segments) for car in range(config.num_cars)}

    events: list[Event] = []
    event_id = 0
    duration = config.duration_seconds
    for timestamp in range(duration):
        progress = timestamp / max(duration - 1, 1)
        rate = config.initial_rate + (config.final_rate - config.initial_rate) * progress
        arrivals = int(rate)
        if rng.random() < rate - arrivals:
            arrivals += 1
        for _ in range(arrivals):
            car = rng.randrange(config.num_cars)
            segment = positions[car]
            events.append(
                Event(
                    types[segment],
                    timestamp,
                    {
                        "car": car,
                        "speed": round(rng.uniform(30.0, 90.0), 1),
                        "lane": rng.randint(0, 3),
                    },
                    event_id,
                )
            )
            event_id += 1
            if rng.random() < config.advance_probability:
                positions[car] = (segment + 1) % config.num_segments
    return EventStream(events, name="linear-road")
