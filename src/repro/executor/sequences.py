"""Explicit event sequence construction (the *two-step* substrate).

The state-of-the-art baselines the paper compares against construct all
matching event sequences before aggregating them:

* the non-shared two-step approach (Flink-style) enumerates, per query, every
  match of the full pattern;
* the shared two-step approach (SPASS-style) constructs the sequences of
  shared sub-patterns once and joins them with per-query prefix/suffix
  sequences.

Both are built on the enumeration and temporal-join primitives of this
module, which are also used as the ground-truth oracle by the test suite.
The number of sequences is polynomial in the number of events per window
(Section 1), which is precisely why these baselines collapse in Figure 13 —
expect these functions to be slow on purpose for large inputs.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from ..events.event import Event
from ..queries.pattern import Pattern

__all__ = [
    "enumerate_pattern_matches",
    "join_sequences",
]

#: A constructed sequence is a tuple of events in match order.
EventSequence = tuple[Event, ...]


def enumerate_pattern_matches(
    pattern: Pattern, events: Sequence[Event]
) -> list[EventSequence]:
    """All matches of ``pattern`` over ``events`` (strictly increasing timestamps).

    ``events`` must be sorted by timestamp (the engine guarantees this).  The
    construction is the classic prefix-extension join: matches of the prefix
    of length ``j`` are extended by every later event of type ``Ej+1``.
    """
    partial: list[list[EventSequence]] = [[] for _ in range(len(pattern))]
    for event in events:
        for position in reversed(range(len(pattern))):
            if event.event_type != pattern.event_types[position]:
                continue
            if position == 0:
                partial[0].append((event,))
                continue
            for prefix_match in partial[position - 1]:
                if prefix_match[-1].timestamp < event.timestamp:
                    partial[position].append(prefix_match + (event,))
    return partial[-1]


def join_sequences(
    left: Iterable[EventSequence], right: Iterable[EventSequence]
) -> list[EventSequence]:
    """Temporal join: concatenate pairs where ``left`` ends before ``right`` starts.

    This is the sequence-level analogue of the Shared method's count
    combination; SPASS-style execution uses it to assemble full query matches
    from shared sub-pattern matches.
    """
    left = list(left)
    right = list(right)
    joined: list[EventSequence] = []
    for left_sequence in left:
        left_end = left_sequence[-1].timestamp
        for right_sequence in right:
            if left_end < right_sequence[0].timestamp:
                joined.append(left_sequence + right_sequence)
    return joined
