"""Core event model for the Sharon reproduction.

Events are the atomic inputs of every executor in this library.  Following the
paper's data model (Section 2.1), time is a linearly ordered set of
non-negative integers (seconds in the motivating examples), every event
carries a time stamp assigned by its source, belongs to exactly one *event
type* (e.g. ``MainSt`` position reports, ``Laptop`` purchases), and exposes a
flat attribute dictionary.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Mapping

__all__ = ["Event", "EventType"]


#: Event types are plain strings ("MainSt", "Laptop", ...).  An alias is kept
#: so signatures read like the paper ("given event types E1..El").
EventType = str


@dataclass(frozen=True, slots=True, init=False)
class Event:
    """A single immutable stream event.

    Parameters
    ----------
    event_type:
        The type ``E`` of the event (``e.type = E`` in the paper).
    timestamp:
        Non-negative integer time stamp ``e.time`` assigned by the producer.
        The stream substrate guarantees that executors observe events in
        non-decreasing timestamp order; sequence semantics use *strictly*
        increasing timestamps between matched events.
    attributes:
        Flat mapping of attribute name to value (e.g. ``{"vehicle": 17}``).
    event_id:
        Optional producer-assigned identifier, handy for debugging and for
        deterministic tie-breaking in tests.  It never affects matching.
    """

    event_type: EventType
    timestamp: int
    attributes: Mapping[str, Any] = field(default_factory=dict)
    event_id: int = -1

    def __init__(
        self,
        event_type: EventType,
        timestamp: int,
        attributes: Mapping[str, Any] | None = None,
        event_id: int = -1,
    ) -> None:
        # Each field through its slot's own setter: a frozen dataclass's
        # generated ``__init__`` goes through ``object.__setattr__`` per field,
        # which doubles the cost of an event, and a log read or a stream's
        # iteration builds one per row.
        _set_event_type(self, event_type)
        _set_timestamp(self, timestamp)
        _set_attributes(self, {} if attributes is None else attributes)
        _set_event_id(self, event_id)
        self.__post_init__()

    def __post_init__(self) -> None:
        if self.timestamp < 0:
            raise ValueError(f"event timestamp must be non-negative, got {self.timestamp}")
        if not self.event_type:
            raise ValueError("event type must be a non-empty string")

    @property
    def type(self) -> EventType:
        """Alias matching the paper's ``e.type`` notation."""
        return self.event_type

    @property
    def time(self) -> int:
        """Alias matching the paper's ``e.time`` notation."""
        return self.timestamp

    def attribute(self, name: str, default: Any = None) -> Any:
        """Return the value of attribute ``name`` or ``default`` if absent."""
        return self.attributes.get(name, default)

    def __getitem__(self, name: str) -> Any:
        try:
            return self.attributes[name]
        except KeyError as exc:
            raise KeyError(
                f"event of type {self.event_type!r} has no attribute {name!r}; "
                f"known attributes: {sorted(self.attributes)}"
            ) from exc

    def __contains__(self, name: str) -> bool:
        return name in self.attributes

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        attrs = ", ".join(f"{k}={v!r}" for k, v in sorted(self.attributes.items()))
        return f"Event({self.event_type}@{self.timestamp}{', ' + attrs if attrs else ''})"


_set_event_type = Event.event_type.__set__
_set_timestamp = Event.timestamp.__set__
_set_attributes = Event.attributes.__set__
_set_event_id = Event.event_id.__set__
