"""E-commerce purchase stream generator (EC).

The paper's EC data set is synthetic: "sequences of items bought together for
3 hours ... 50 items and 20 users ... 3k events per second" (Section 8.1).
This module reproduces it.  Each event is one item purchase carrying the
customer identifier and a price; customers follow *purchase dependency
chains* (a laptop tends to be followed by a case, then an adapter, ...), so
the purchase-pattern queries of Figure 2 have matches whose frequency decays
with pattern length.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from ..events.event import Event
from ..events.stream import EventStream

__all__ = ["EcommerceConfig", "DEFAULT_ITEMS", "item_types", "generate_ecommerce_stream"]


#: Named items of the motivating example (Figure 2); additional generic items
#: ``Item5`` ... are appended to reach the configured catalogue size.
DEFAULT_ITEMS: tuple[str, ...] = (
    "Laptop",
    "Case",
    "Adapter",
    "KeyboardProtector",
    "Mouse",
    "iPhone",
    "ScreenProtector",
    "Headphones",
    "Charger",
    "Dock",
)


@dataclass(frozen=True)
class EcommerceConfig:
    """Parameters of the purchase stream (defaults scaled down from the paper)."""

    num_items: int = 50
    num_customers: int = 20
    duration_seconds: int = 600
    purchases_per_second: float = 30.0
    #: Probability that a customer's next purchase follows the dependency chain.
    follow_probability: float = 0.6
    seed: int = 23

    def __post_init__(self) -> None:
        if self.num_items < 2:
            raise ValueError("num_items must be at least 2")
        if self.num_customers <= 0:
            raise ValueError("num_customers must be positive")
        if self.duration_seconds <= 0:
            raise ValueError("duration_seconds must be positive")
        if self.purchases_per_second <= 0:
            raise ValueError("purchases_per_second must be positive")
        if not 0.0 <= self.follow_probability <= 1.0:
            raise ValueError("follow_probability must be a probability")


def item_types(config: EcommerceConfig = EcommerceConfig()) -> tuple[str, ...]:
    """Item event types: the named items first, then generated filler items."""
    items = list(DEFAULT_ITEMS[: config.num_items])
    next_index = len(items)
    while len(items) < config.num_items:
        items.append(f"Item{next_index}")
        next_index += 1
    return tuple(items)


def generate_ecommerce_stream(config: EcommerceConfig = EcommerceConfig()) -> EventStream:
    """Generate the synthetic purchase stream.

    Each customer has a current position in the dependency chain (the item
    catalogue in order).  With ``follow_probability`` the next purchase is the
    next item in the chain (producing the sequential patterns the workload
    counts); otherwise the customer buys a random item and restarts a chain
    there.
    """
    rng = random.Random(config.seed)
    items = item_types(config)
    positions = {customer: rng.randrange(len(items)) for customer in range(config.num_customers)}

    events: list[Event] = []
    event_id = 0
    for timestamp in range(config.duration_seconds):
        arrivals = int(config.purchases_per_second)
        if rng.random() < config.purchases_per_second - arrivals:
            arrivals += 1
        for _ in range(arrivals):
            customer = rng.randrange(config.num_customers)
            if rng.random() < config.follow_probability:
                position = (positions[customer] + 1) % len(items)
            else:
                position = rng.randrange(len(items))
            positions[customer] = position
            events.append(
                Event(
                    items[position],
                    timestamp,
                    {"customer": customer, "price": round(rng.uniform(5.0, 2000.0), 2)},
                    event_id,
                )
            )
            event_id += 1
    return EventStream(events, name="ecommerce")
