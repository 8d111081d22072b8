"""Event-rate catalog used by the sharing benefit model.

The cost formulas of Section 3 are parameterised by the arrival rate of each
event type, ``Rate(E)``, and by derived quantities such as the total rate of
the types of a pattern (Equation 1).  A :class:`RateCatalog` holds those
per-type rates; it can be constructed

* explicitly from a ``{type: rate}`` mapping (unit tests, paper examples),
* uniformly (every type has the same rate — the paper's default workloads
  use streams with roughly balanced types), or
* empirically from a stream sample, mirroring the runtime-statistics
  collection the paper delegates to [18] for dynamic workloads (Section 7.4).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

from ..events.event import EventType
from ..events.stream import EventStream, StreamStatistics
from ..queries.pattern import Pattern

__all__ = ["RateCatalog"]


@dataclass
class RateCatalog:
    """Per-event-type rates (events per time unit, or per window — any
    consistent unit works because the benefit model only compares costs).

    Parameters
    ----------
    rates:
        Mapping from event type to its rate.
    default_rate:
        Rate assumed for types missing from ``rates``.  The paper's model
        needs every referenced type to have a positive rate; a zero default
        combined with a strict lookup surfaces typos early.
    """

    rates: dict[EventType, float] = field(default_factory=dict)
    default_rate: float | None = None

    def __post_init__(self) -> None:
        for event_type, rate in self.rates.items():
            if rate < 0:
                raise ValueError(f"rate of {event_type!r} must be non-negative, got {rate}")

    # -- constructors ---------------------------------------------------------
    @classmethod
    def uniform(cls, event_types: Iterable[EventType], rate: float = 1.0) -> "RateCatalog":
        """A catalog assigning the same ``rate`` to every listed type."""
        return cls({event_type: float(rate) for event_type in event_types})

    @classmethod
    def from_stream(
        cls,
        stream: EventStream,
        per: str = "window",
        window_size: int | None = None,
    ) -> "RateCatalog":
        """Estimate rates from a stream sample.

        A type absent from the sample has rate 0 (``default_rate=0.0``): the
        sample measured its absence.

        Parameters
        ----------
        stream:
            The sample to measure.
        per:
            ``"time-unit"`` for events per stream time unit or ``"window"``
            for expected events per window (requires ``window_size``).
        window_size:
            Window length when ``per="window"``.
        """
        return cls.from_statistics(stream.statistics(), per, window_size)

    @classmethod
    def from_statistics(
        cls,
        stats: StreamStatistics,
        per: str = "window",
        window_size: int | None = None,
    ) -> "RateCatalog":
        """Rates from a sample's counts, as :meth:`from_stream` measures them."""
        if per == "time-unit":
            factor = 1.0
        elif per == "window":
            if window_size is None:
                raise ValueError("per='window' requires window_size")
            factor = float(window_size)
        else:
            raise ValueError(f"unknown rate unit {per!r}")
        duration = max(stats.duration, 1)
        rates = {
            event_type: count / duration * factor
            for event_type, count in stats.counts_per_type.items()
        }
        return cls(rates, default_rate=0.0)

    # -- lookups ---------------------------------------------------------------
    def rate(self, event_type: EventType) -> float:
        """``Rate(E)`` for one event type."""
        if event_type in self.rates:
            return self.rates[event_type]
        if self.default_rate is not None:
            return self.default_rate
        raise KeyError(
            f"no rate registered for event type {event_type!r} "
            f"(known: {sorted(self.rates)}); set default_rate to allow fallbacks"
        )

    def __contains__(self, event_type: EventType) -> bool:
        return event_type in self.rates or self.default_rate is not None

    def pattern_rate(self, pattern: Pattern) -> float:
        """``Rate(P) = sum of Rate(Ej)`` over the pattern's types (Equation 1).

        An empty pattern (missing prefix or suffix) has rate 0.
        """
        return float(sum(self.rate(event_type) for event_type in pattern.event_types))

    def start_rate(self, pattern: Pattern) -> float:
        """``Rate(E1)``: rate of the START type of ``pattern`` (0 if empty)."""
        if len(pattern) == 0:
            return 0.0
        return self.rate(pattern.start_type)

    def scaled(self, factor: float) -> "RateCatalog":
        """A new catalog with every rate multiplied by ``factor``."""
        if factor < 0:
            raise ValueError("scale factor must be non-negative")
        return RateCatalog(
            {event_type: rate * factor for event_type, rate in self.rates.items()},
            default_rate=None if self.default_rate is None else self.default_rate * factor,
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"RateCatalog({len(self.rates)} types, default={self.default_rate})"
