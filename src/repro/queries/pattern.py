"""Event sequence patterns (Definition 1) and their sub-pattern structure.

A pattern ``P = (E1 ... El)`` is an ordered tuple of event types.  A stream
sequence ``s = (e1 ... el)`` matches ``P`` if the events appear in strictly
increasing timestamp order with ``ei.type = Ei``.

Patterns are the central syntactic objects of the Sharon optimizer: sharable
patterns are contiguous sub-patterns shared by multiple queries
(Definition 3), and each query splits around a shared pattern into
``prefix``, shared pattern, and ``suffix`` (Definition 4).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator

from ..events.event import EventType

__all__ = ["Pattern", "PatternSplit"]


@dataclass(frozen=True)
class PatternSplit:
    """The decomposition of a query pattern around a shared sub-pattern.

    Attributes
    ----------
    prefix:
        Events preceding the shared pattern in the query (possibly empty).
    shared:
        The shared sub-pattern itself.
    suffix:
        Events following the shared pattern in the query (possibly empty).
    """

    prefix: "Pattern"
    shared: "Pattern"
    suffix: "Pattern"

    @property
    def segments(self) -> tuple["Pattern", ...]:
        """Non-empty segments in stream order (prefix, shared, suffix)."""
        return tuple(seg for seg in (self.prefix, self.shared, self.suffix) if len(seg) > 0)


class Pattern:
    """An event sequence pattern ``(E1 ... El)``.

    Patterns behave like immutable tuples of event types and support the
    sub-pattern operations used throughout the optimizer: enumeration of
    contiguous sub-patterns, overlap tests (Definition 6), and splitting a
    containing pattern into prefix / shared / suffix (Definition 4).

    Examples
    --------
    >>> p = Pattern(["OakSt", "MainSt"])
    >>> len(p), p.start_type, p.end_type
    (2, 'OakSt', 'MainSt')
    >>> Pattern(["ParkAve", "OakSt", "MainSt"]).contains(p)
    True
    """

    __slots__ = ("_types",)

    def __init__(self, event_types: Iterable[EventType]) -> None:
        types = tuple(event_types)
        if not types:
            raise ValueError("a pattern must contain at least one event type")
        if any(not isinstance(t, str) or not t for t in types):
            raise ValueError(f"pattern event types must be non-empty strings, got {types!r}")
        self._types = types

    # -- tuple-like behaviour -------------------------------------------------
    @property
    def event_types(self) -> tuple[EventType, ...]:
        return self._types

    @property
    def length(self) -> int:
        return len(self._types)

    def __len__(self) -> int:
        return len(self._types)

    def __iter__(self) -> Iterator[EventType]:
        return iter(self._types)

    def __getitem__(self, index) -> EventType:
        result = self._types[index]
        return result

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Pattern):
            return self._types == other._types
        if isinstance(other, tuple):
            return self._types == other
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._types)

    def __lt__(self, other: "Pattern") -> bool:
        return self._types < other._types

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"({', '.join(self._types)})"

    # -- positional structure -------------------------------------------------
    @property
    def start_type(self) -> EventType:
        """Type of the START event of any match of this pattern."""
        return self._types[0]

    @property
    def end_type(self) -> EventType:
        """Type of the END event of any match of this pattern."""
        return self._types[-1]

    def index_of(self, event_type: EventType) -> int:
        """Position of ``event_type`` in the pattern (first occurrence)."""
        return self._types.index(event_type)

    def positions_of(self, event_type: EventType) -> tuple[int, ...]:
        """All positions of ``event_type`` (Section 7.3 extension)."""
        return tuple(i for i, t in enumerate(self._types) if t == event_type)

    # -- sub-pattern operations ------------------------------------------------
    def subpattern(self, start: int, end: int) -> "Pattern":
        """Contiguous sub-pattern ``(E_start ... E_{end-1})`` (0-based, end exclusive)."""
        if not 0 <= start < end <= len(self._types):
            raise IndexError(f"invalid sub-pattern bounds [{start}:{end}] for length {len(self)}")
        return Pattern(self._types[start:end])

    def contiguous_subpatterns(self, min_length: int = 2) -> Iterator["Pattern"]:
        """Yield every contiguous sub-pattern of at least ``min_length`` types.

        The modified CCSpan detection (Appendix A) enumerates exactly these.
        """
        n = len(self._types)
        for end in range(min_length, n + 1):
            for start in range(0, end - min_length + 1):
                yield Pattern(self._types[start:end])

    def contains(self, other: "Pattern") -> bool:
        """Whether ``other`` appears as a contiguous sub-pattern of ``self``."""
        return self.find(other) >= 0

    def find(self, other: "Pattern") -> int:
        """Index of the first occurrence of ``other`` in ``self`` (or ``-1``)."""
        n, m = len(self._types), len(other._types)
        for start in range(0, n - m + 1):
            if self._types[start : start + m] == other._types:
                return start
        return -1

    def occurrences(self, other: "Pattern") -> tuple[int, ...]:
        """All start positions where ``other`` occurs in ``self``."""
        n, m = len(self._types), len(other._types)
        return tuple(
            start for start in range(0, n - m + 1) if self._types[start : start + m] == other._types
        )

    def split_around(self, shared: "Pattern", occurrence: int = 0) -> PatternSplit:
        """Split this pattern into prefix / ``shared`` / suffix (Definition 4).

        Raises
        ------
        ValueError
            If ``shared`` does not occur in this pattern.
        """
        starts = self.occurrences(shared)
        if not starts:
            raise ValueError(f"pattern {shared!r} does not occur in {self!r}")
        start = starts[occurrence]
        end = start + len(shared)
        prefix = Pattern(self._types[:start]) if start > 0 else _EMPTY
        suffix = Pattern(self._types[end:]) if end < len(self._types) else _EMPTY
        return PatternSplit(prefix=prefix, shared=shared, suffix=suffix)

    def overlaps(self, other: "Pattern") -> bool:
        """Positional overlap test used by the sharing-conflict model (Definition 6).

        Two patterns overlap if a non-empty suffix of one equals a non-empty
        prefix of the other (in either direction), or if one contains the
        other — exactly the situations where they would compete for the same
        positions of a query pattern that contains both.
        """
        if self.contains(other) or other.contains(self):
            return True
        return _suffix_prefix_overlap(self._types, other._types) or _suffix_prefix_overlap(
            other._types, self._types
        )

    def concat(self, other: "Pattern") -> "Pattern":
        """Concatenate two patterns (used by the shared executor's chaining)."""
        if len(other) == 0:
            return self
        if len(self._types) == 0:
            return other
        return Pattern(self._types + other._types)

    @staticmethod
    def empty() -> "Pattern":
        """The empty pattern placeholder used for missing prefixes/suffixes."""
        return _EMPTY


class _EmptyPattern(Pattern):
    """Internal zero-length pattern; only reachable via :meth:`Pattern.empty`."""

    def __init__(self) -> None:  # bypass the non-empty check deliberately
        self._types = ()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return "()"


_EMPTY = _EmptyPattern()


def _suffix_prefix_overlap(left: tuple[EventType, ...], right: tuple[EventType, ...]) -> bool:
    """True if some non-empty suffix of ``left`` equals a prefix of ``right``."""
    max_k = min(len(left), len(right))
    for k in range(1, max_k + 1):
        if left[-k:] == right[:k]:
            return True
    return False
