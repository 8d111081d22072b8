"""Aggregation functions over matched event sequences (RETURN clause).

The paper supports distributive aggregates (COUNT, MIN, MAX, SUM) and the
algebraic AVG (Definition 2):

* ``COUNT(*)``      — number of matched sequences per group and window.
* ``COUNT(E)``      — number of events of type ``E`` across all matched
  sequences (with one occurrence of ``E`` per pattern this equals COUNT(*)).
* ``SUM(E.attr)``   — sum of ``attr`` over all events of type ``E`` in all
  matched sequences.
* ``MIN/MAX(E.attr)`` — extrema of ``attr`` over those events.
* ``AVG(E.attr)``   — SUM(E.attr) / COUNT(E).

All of them are computed incrementally by the online executors through the
:class:`AggregateState` monoid defined here: a state carries the sequence
count together with sum/min/max of the tracked attribute, supports the two
operations needed by prefix counting —

* ``extend(event, multiplier)``: append one event to ``multiplier`` existing
  (partial) sequences;
* ``merge(other)``: combine disjoint sets of sequences;
* ``scale(factor)`` / ``combine(left, right)``: multiply disjoint prefix and
  suffix match sets (the count-combination step of the Shared method,
  Section 3.3).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

from ..events.event import Event

__all__ = ["AggregateSpec", "AggregateState", "AggregationKind"]


class AggregationKind:
    """Enumeration of supported aggregation function names."""

    COUNT_STAR = "COUNT(*)"
    COUNT = "COUNT"
    SUM = "SUM"
    MIN = "MIN"
    MAX = "MAX"
    AVG = "AVG"

    ALL = (COUNT_STAR, COUNT, SUM, MIN, MAX, AVG)


@dataclass(frozen=True, slots=True)
class AggregateSpec:
    """Specification of one aggregation function.

    Parameters
    ----------
    kind:
        One of :class:`AggregationKind` values.
    event_type:
        The event type ``E`` the aggregate targets (``None`` for COUNT(*)).
    attribute:
        The attribute ``attr`` for SUM/MIN/MAX/AVG.
    """

    kind: str
    event_type: Optional[str] = None
    attribute: Optional[str] = None

    def __post_init__(self) -> None:
        if self.kind not in AggregationKind.ALL:
            raise ValueError(f"unsupported aggregation function {self.kind!r}")
        if self.kind == AggregationKind.COUNT_STAR:
            if self.event_type is not None or self.attribute is not None:
                raise ValueError("COUNT(*) takes no event type or attribute")
        elif self.kind == AggregationKind.COUNT:
            if self.event_type is None:
                raise ValueError("COUNT(E) requires an event type")
        else:
            if self.event_type is None or self.attribute is None:
                raise ValueError(f"{self.kind} requires an event type and attribute")

    # -- constructors ---------------------------------------------------------
    @classmethod
    def count_star(cls) -> "AggregateSpec":
        return cls(AggregationKind.COUNT_STAR)

    @classmethod
    def count(cls, event_type: str) -> "AggregateSpec":
        return cls(AggregationKind.COUNT, event_type)

    @classmethod
    def sum(cls, event_type: str, attribute: str) -> "AggregateSpec":
        return cls(AggregationKind.SUM, event_type, attribute)

    @classmethod
    def min(cls, event_type: str, attribute: str) -> "AggregateSpec":
        return cls(AggregationKind.MIN, event_type, attribute)

    @classmethod
    def max(cls, event_type: str, attribute: str) -> "AggregateSpec":
        return cls(AggregationKind.MAX, event_type, attribute)

    @classmethod
    def avg(cls, event_type: str, attribute: str) -> "AggregateSpec":
        return cls(AggregationKind.AVG, event_type, attribute)

    @property
    def read_attributes(self) -> tuple[str, ...]:
        """Attributes this aggregate reads from events (column-layout input)."""
        return (self.attribute,) if self.attribute is not None else ()

    @property
    def tracks_attribute(self) -> bool:
        """Whether the aggregate needs per-event attribute tracking."""
        return self.kind in (
            AggregationKind.SUM,
            AggregationKind.MIN,
            AggregationKind.MAX,
            AggregationKind.AVG,
        )

    def finalize(self, state: "AggregateState"):
        """Extract the final result value from an accumulated state."""
        if self.kind == AggregationKind.COUNT_STAR:
            return state.count
        if self.kind == AggregationKind.COUNT:
            return state.target_count
        if self.kind == AggregationKind.SUM:
            return state.total
        if self.kind == AggregationKind.MIN:
            return state.minimum
        if self.kind == AggregationKind.MAX:
            return state.maximum
        if self.kind == AggregationKind.AVG:
            if state.target_count == 0:
                return None
            return state.total / state.target_count
        raise AssertionError(f"unreachable aggregation kind {self.kind!r}")

    def summarise(
        self, event_type: str, k: int, values: Iterable
    ) -> tuple[int, int, float, Optional[float], Optional[float]]:
        """Reduce ``k`` batch events of one type to ``AggregateState.extend_many`` arguments.

        Returns ``(k, targeted, total_value, minimum, maximum)``.  ``values``
        are the events' :attr:`attribute` values in batch order (``None``
        where an event lacks it); it is iterated only when the spec tracks
        an attribute of ``event_type``, so callers may pass a lazy iterable.
        The events share one type (they occupy one pattern position, or
        extend one pane cell), so the targeting decision is made once.
        """
        if self.kind == AggregationKind.COUNT_STAR or event_type != self.event_type:
            return k, 0, 0.0, None, None
        if not self.tracks_attribute:
            return k, k, 0.0, None, None
        total = 0.0
        minimum: Optional[float] = None
        maximum: Optional[float] = None
        for value in values:
            if value is None:
                continue
            value = float(value)
            total += value
            if minimum is None or value < minimum:
                minimum = value
            if maximum is None or value > maximum:
                maximum = value
        return k, k, total, minimum, maximum

    def evaluate_sequences(self, sequences: Sequence[Sequence[Event]]):
        """Reference (two-step) evaluation over fully constructed sequences.

        The two-step baselines and the brute-force test oracle call this after
        they have materialised all matched sequences.
        """
        state = AggregateState.zero()
        for sequence in sequences:
            contribution = AggregateState.unit()
            for event in sequence:
                contribution = contribution.extend(event, self)
            state = state.merge(contribution)
        return self.finalize(state)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        if self.kind == AggregationKind.COUNT_STAR:
            return "COUNT(*)"
        if self.kind == AggregationKind.COUNT:
            return f"COUNT({self.event_type})"
        return f"{self.kind}({self.event_type}.{self.attribute})"


@dataclass(frozen=True, slots=True)
class AggregateState:
    """Incremental aggregation state over a *set* of (partial) sequences.

    ``count`` is the number of sequences represented; ``target_count``,
    ``total``, ``minimum`` and ``maximum`` summarise the tracked attribute
    across events of the targeted type over all represented sequences.

    The state forms a commutative monoid under :meth:`merge` with identity
    :meth:`zero`, which is what makes shared, out-of-order-free incremental
    maintenance possible.
    """

    count: int = 0
    target_count: int = 0
    total: float = 0.0
    minimum: Optional[float] = None
    maximum: Optional[float] = None

    # -- constructors ---------------------------------------------------------
    @staticmethod
    def zero() -> "AggregateState":
        """Identity element: the empty set of sequences (shared singleton)."""
        return _ZERO_STATE

    @staticmethod
    def unit() -> "AggregateState":
        """A single empty (zero-length) partial sequence (shared singleton)."""
        return _UNIT_STATE

    # -- monoid / semiring operations -----------------------------------------
    def merge(self, other: "AggregateState") -> "AggregateState":
        """Union of two disjoint sequence sets."""
        # Identity fast paths: the executors merge against zero() constantly
        # (fresh positions, empty carries); skipping the allocation keeps the
        # hot path low-churn.  States are immutable, so sharing is safe.
        if other is _ZERO_STATE:
            return self
        if self is _ZERO_STATE:
            return other
        return AggregateState(
            count=self.count + other.count,
            target_count=self.target_count + other.target_count,
            total=self.total + other.total,
            minimum=_none_min(self.minimum, other.minimum),
            maximum=_none_max(self.maximum, other.maximum),
        )

    def extend(self, event: Event, spec: Optional[AggregateSpec] = None) -> "AggregateState":
        """Append ``event`` to every sequence represented by this state.

        The sequence count is unchanged (each sequence grows by one event);
        if the event is targeted by ``spec`` its attribute contributes once
        per represented sequence.
        """
        if self.count == 0 or spec is None or spec.kind == AggregationKind.COUNT_STAR:
            return self
        if spec.event_type != event.event_type:
            return self
        value = event.attribute(spec.attribute) if spec.tracks_attribute else None
        new_target = self.target_count + self.count
        if value is None:
            # COUNT(E), or a targeted event without the attribute: counts for
            # COUNT(E) but contributes nothing to SUM/MIN/MAX.
            return AggregateState(self.count, new_target, self.total, self.minimum, self.maximum)
        value = float(value)
        return AggregateState(
            count=self.count,
            target_count=new_target,
            total=self.total + value * self.count,
            minimum=_none_min(self.minimum, value),
            maximum=_none_max(self.maximum, value),
        )

    def extend_many(
        self,
        k: int,
        targeted: int,
        total_value: float,
        minimum: "Optional[float]",
        maximum: "Optional[float]",
    ) -> "AggregateState":
        """Merge of ``k`` copies of this state, each extended by one batch event.

        This is the fused form of ``merge(extend(e1), ..., extend(ek))`` used
        by the vectorised column updates: ``targeted`` is how many of the
        ``k`` events the spec targets, and ``total_value``/``minimum``/
        ``maximum`` summarise their tracked attribute values.  Correct because
        ``extend`` distributes over ``merge`` (the state is a commutative
        monoid and ``extend`` is linear in it).
        """
        if self.count == 0:
            return _ZERO_STATE
        if targeted == 0:
            return self.scale(k)
        return AggregateState(
            count=self.count * k,
            target_count=self.target_count * k + targeted * self.count,
            total=self.total * k + total_value * self.count,
            minimum=_none_min(self.minimum, minimum),
            maximum=_none_max(self.maximum, maximum),
        )

    def combine(self, right: "AggregateState") -> "AggregateState":
        """Cross-product combination of disjoint prefix and suffix match sets.

        Every sequence on the left is concatenated with every sequence on the
        right (count multiplication of the Shared method, Section 3.3).
        Attribute statistics distribute accordingly: each left contribution is
        replicated ``right.count`` times and vice versa.
        """
        if self.count == 0 or right.count == 0:
            return _ZERO_STATE
        return AggregateState(
            count=self.count * right.count,
            target_count=self.target_count * right.count + right.target_count * self.count,
            total=self.total * right.count + right.total * self.count,
            minimum=_none_min(self.minimum, right.minimum),
            maximum=_none_max(self.maximum, right.maximum),
        )

    def scale(self, factor: int) -> "AggregateState":
        """Replicate the represented sequences ``factor`` times."""
        if factor < 0:
            raise ValueError("scale factor must be non-negative")
        if factor == 0:
            return _ZERO_STATE
        if factor == 1:
            return self
        return AggregateState(
            count=self.count * factor,
            target_count=self.target_count * factor,
            total=self.total * factor,
            minimum=self.minimum,
            maximum=self.maximum,
        )

    @property
    def is_zero(self) -> bool:
        return self.count == 0

    # -- snapshot codec -------------------------------------------------------
    def as_tuple(self) -> tuple:
        """The state as a ``(count, target_count, total, min, max)`` tuple.

        This is the canonical JSON-safe snapshot leaf used by the engine's
        checkpoint/restore machinery (every field is an int, float or None,
        and Python's JSON codec round-trips all of them exactly).
        """
        return (self.count, self.target_count, self.total, self.minimum, self.maximum)

    @classmethod
    def from_tuple(cls, values: Sequence) -> "AggregateState":
        """Rebuild a state from :meth:`as_tuple` output (lists accepted)."""
        state = cls(*values)
        if state.count == 0 and state == _ZERO_STATE:
            # Restore the shared identity so merge() fast paths keep firing.
            return _ZERO_STATE
        return state

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"AggregateState(count={self.count}, target_count={self.target_count}, "
            f"total={self.total}, min={self.minimum}, max={self.maximum})"
        )


#: Shared immutable identity states (frozen dataclasses, safe to alias).
_ZERO_STATE = AggregateState()
_UNIT_STATE = AggregateState(count=1)


def _none_min(a: Optional[float], b: Optional[float]) -> Optional[float]:
    if a is None:
        return b
    if b is None:
        return a
    return min(a, b)


def _none_max(a: Optional[float], b: Optional[float]) -> Optional[float]:
    if a is None:
        return b
    if b is None:
        return a
    return max(a, b)
