"""Brute-force reference implementations the tests compare the package against."""

from __future__ import annotations

from collections import Counter
from itertools import combinations, groupby
from random import Random

from repro.core import SharingPlan
from repro.executor.results import LineTemplate


def enumerate_valid_plans(graph) -> list[SharingPlan]:
    """Every valid plan of a small Sharon graph, the empty plan included.

    Checks all ``2^n`` vertex subsets for independence, so it is a reference
    for the plan finder's pruned traversal, not a replacement for it.
    """
    vertices = graph.vertices
    return [
        SharingPlan(subset)
        for size in range(len(vertices) + 1)
        for subset in combinations(vertices, size)
        if graph.is_independent_set(subset)
    ]


def count_pattern_matches(pattern, events) -> int:
    """Number of matches of ``pattern`` over timestamp-sorted ``events``, by counting.

    A dynamic-programming counter: it agrees with full enumeration without
    materialising a single sequence.  Same-timestamp events cannot chain, so
    each timestamp batch extends the counts as they stood before it.
    """
    counts = [0] * len(pattern)
    for _timestamp, batch in groupby(events, key=lambda event: event.timestamp):
        before = list(counts)
        for event in batch:
            for position, event_type in enumerate(pattern.event_types):
                if event.event_type == event_type:
                    counts[position] += 1 if position == 0 else before[position - 1]
    return counts[-1]


def row_blocks(rows) -> list[tuple]:
    """The emission blocks that stand for plain result rows, one block per row.

    A block is what a closing window × group hands its session's ledger:
    ``(LineTemplate, window, group, values)``; here each row gets the
    one-line template of its query name, reading the block's only value.
    """
    templates: dict = {}
    blocks = []
    for name, window, group, value in rows:
        template = templates.get(name)
        if template is None:
            template = templates[name] = LineTemplate([(name, 0)])
        blocks.append((template, window, group, [value]))
    return blocks


def stream_order(event) -> tuple:
    """The ``(timestamp, event_id)`` key an event stream is ordered by."""
    return (event.timestamp, event.event_id)


class ReferenceStream:
    """A stream kept as a sorted list of ``Event`` objects.

    The reference for :class:`~repro.events.stream.EventStream`, which keeps
    columns instead: every method here is the obvious list operation.
    """

    def __init__(self, events=()) -> None:
        self.events = sorted(events, key=stream_order)

    def between(self, start: int, end: int) -> list:
        return [e for e in self.events if start <= e.timestamp < end]

    def of_types(self, event_types) -> list:
        wanted = set(event_types)
        return [e for e in self.events if e.event_type in wanted]

    def sample(self, fraction: float, seed: int) -> list:
        rng = Random(seed)
        return [e for e in self.events if rng.random() < fraction]

    def event_types(self) -> tuple:
        return tuple(sorted({e.event_type for e in self.events}))

    def statistics(self) -> tuple:
        """``(total events, duration, counts per type)``."""
        if not self.events:
            return 0, 0, {}
        span = max(1, self.events[-1].timestamp - self.events[0].timestamp + 1)
        return len(self.events), span, dict(Counter(e.event_type for e in self.events))
