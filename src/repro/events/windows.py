"""Sliding window semantics (WITHIN / SLIDE clauses).

A query window is defined by its length ``size`` (WITHIN) and its ``slide``
(SLIDE).  Window instances start at multiples of ``slide``: the ``k``-th
instance covers the half-open interval ``[k * slide, k * slide + size)``.
A complete event sequence belongs to a window instance if *all* of its events
fall inside the interval; because matched events are time-ordered it suffices
that the START and END events do (a fact the paper's expiration technique
relies on, Section 3.2).

Besides per-timestamp instance enumeration this module defines the window's
**pane geometry** (Li et al.-style panes): the timeline is tiled into
non-overlapping panes of width ``gcd(size, slide)``, and — because both
``size`` and ``slide`` are multiples of that width — every window instance is
an *exact* union of ``size / gcd`` consecutive panes.  The pane-partitioned
engine mode relies on this tiling to process each event once per pane instead
of once per covering window instance.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from typing import Iterable, Iterator

__all__ = ["SlidingWindow", "WindowInstance", "WindowCursor", "ended_by"]


@dataclass(frozen=True, slots=True, order=True)
class WindowInstance:
    """One concrete window: the half-open time interval ``[start, end)``."""

    start: int
    end: int

    @property
    def size(self) -> int:
        """Length of the instance's interval in time units."""
        return self.end - self.start

    def contains(self, timestamp: int) -> bool:
        """Whether ``timestamp`` lies inside ``[start, end)`` (end exclusive)."""
        return self.start <= timestamp < self.end

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"[{self.start},{self.end})"


@dataclass(frozen=True, slots=True)
class SlidingWindow:
    """A sliding window specification.

    Parameters
    ----------
    size:
        Window length (WITHIN clause), in stream time units.
    slide:
        Slide step (SLIDE clause).  ``slide == size`` yields tumbling windows.
    """

    size: int
    slide: int

    def __post_init__(self) -> None:
        if self.size <= 0:
            raise ValueError(f"window size must be positive, got {self.size}")
        if self.slide <= 0:
            raise ValueError(f"window slide must be positive, got {self.slide}")
        if self.slide > self.size:
            raise ValueError(
                f"window slide ({self.slide}) larger than size ({self.size}) would drop events"
            )

    @property
    def max_overlap(self) -> int:
        """Maximum number of window instances a single timestamp belongs to."""
        return -(-self.size // self.slide)  # ceil division

    def instances_containing(self, timestamp: int) -> list[WindowInstance]:
        """All window instances whose interval contains ``timestamp``.

        Instances are half-open: a timestamp on a window's *end* boundary
        belongs to the next instance(s), never the ending one.

        Examples
        --------
        >>> SlidingWindow(size=4, slide=1).instances_containing(2)
        [[0,4), [1,5), [2,6)]

        Window-edge semantics (the pane refactor relies on these exactly):
        ``t = 4`` is excluded from ``[0,4)`` but included in ``[4,8)``, and a
        timestamp inside the first slide belongs only to the instances
        starting at non-negative multiples of ``slide``:

        >>> SlidingWindow(size=4, slide=2).instances_containing(4)
        [[2,6), [4,8)]
        >>> SlidingWindow(size=4, slide=2).instances_containing(1)
        [[0,4)]
        >>> SlidingWindow(size=6, slide=3).instances_containing(3)
        [[0,6), [3,9)]
        """
        if timestamp < 0:
            raise ValueError("timestamps are non-negative")
        last_start = (timestamp // self.slide) * self.slide
        instances = []
        start = last_start
        while start >= 0 and start + self.size > timestamp:
            instances.append(WindowInstance(start, start + self.size))
            start -= self.slide
        instances.reverse()
        return instances

    def instance_starting_at(self, start: int) -> WindowInstance:
        """The instance ``[start, start + size)``; ``start`` must be on-slide."""
        if start % self.slide != 0:
            raise ValueError(f"window instances start at multiples of slide={self.slide}")
        return WindowInstance(start, start + self.size)

    def instances_between(self, start_time: int, end_time: int) -> Iterator[WindowInstance]:
        """Yield all window instances overlapping ``[start_time, end_time]``.

        Both endpoints are inclusive timestamps: the first instance yielded is
        the earliest one containing ``start_time`` and the last one starts at
        the largest non-negative multiple of ``slide`` that is ``<=
        end_time``.

        Examples
        --------
        >>> list(SlidingWindow(size=4, slide=2).instances_between(4, 4))
        [[2,6), [4,8)]
        >>> list(SlidingWindow(size=4, slide=2).instances_between(5, 4))
        []
        >>> list(SlidingWindow(size=6, slide=2).instances_between(0, 1))
        [[0,6)]
        """
        if end_time < start_time:
            return
        first_start = max(0, ((start_time - self.size) // self.slide + 1) * self.slide)
        start = first_start
        while start <= end_time:
            yield WindowInstance(start, start + self.size)
            start += self.slide

    # -- pane geometry -----------------------------------------------------------
    @property
    def pane_width(self) -> int:
        """Width of the non-overlapping panes tiling the timeline.

        The pane width is ``gcd(size, slide)``, the largest step such that
        every window-instance boundary (all multiples of ``slide``, plus
        ``size`` offsets thereof) falls on a pane boundary.  Pane ``p`` covers
        ``[p * pane_width, (p + 1) * pane_width)``; consecutive panes tile the
        timeline with no gaps or overlaps.

        >>> SlidingWindow(size=12, slide=4).pane_width
        4
        >>> SlidingWindow(size=10, slide=4).pane_width  # slide does not divide size
        2
        >>> SlidingWindow(size=7, slide=3).pane_width   # degenerate: unit panes
        1
        """
        return math.gcd(self.size, self.slide)

    def pane_index_of(self, timestamp: int) -> int:
        """Index of the pane containing ``timestamp``."""
        if timestamp < 0:
            raise ValueError("timestamps are non-negative")
        return timestamp // self.pane_width

    def pane_span(self, pane_index: int) -> tuple[int, int]:
        """The half-open interval ``[start, end)`` of pane ``pane_index``."""
        width = self.pane_width
        return pane_index * width, (pane_index + 1) * width

    def panes_covering(self, instance: WindowInstance) -> range:
        """Indexes of the panes whose union is exactly ``instance``.

        Because window boundaries are multiples of the pane width, the panes
        returned are each fully contained in the instance and together tile
        it without gaps.

        >>> window = SlidingWindow(size=4, slide=2)
        >>> list(window.panes_covering(WindowInstance(2, 6)))
        [1, 2]
        """
        width = self.pane_width
        if instance.start % width or instance.end % width:
            raise ValueError(
                f"window {instance!r} is not aligned to the pane width {width}"
            )
        return range(instance.start // width, instance.end // width)

    def instances_covering_pane(self, pane_index: int) -> list[WindowInstance]:
        """All window instances that fully contain pane ``pane_index``.

        The inverse of :meth:`panes_covering`: exactly the instances ``w``
        with ``pane_index in self.panes_covering(w)``, in ascending order.
        Every timestamp of the pane belongs to precisely these instances
        (panes never straddle a window boundary), which is what lets the
        pane-partitioned engine route a pane's aggregates instead of routing
        each event to its covering instances.
        """
        if pane_index < 0:
            raise ValueError("pane indexes are non-negative")
        pane_start, pane_end = self.pane_span(pane_index)
        # Window starts are multiples of slide with start <= pane_start and
        # start + size >= pane_end; since size >= pane width, the containment
        # test collapses to the instance containing the pane's first timestamp.
        return [
            instance
            for instance in self.instances_containing(pane_start)
            if instance.end >= pane_end
        ]

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"SlidingWindow(WITHIN {self.size} SLIDE {self.slide})"


def ended_by(instances: Iterable[WindowInstance], timestamp: "int | None") -> list[WindowInstance]:
    """The ``instances`` that ended by ``timestamp`` (``None``: all of them), in start order."""
    return sorted(w for w in instances if timestamp is None or w.end <= timestamp)


class WindowCursor:
    """Incremental :meth:`SlidingWindow.instances_containing` for monotone time.

    Streams are replayed in non-decreasing timestamp order, so the set of
    window instances containing the current timestamp changes only at its
    edges: instances whose end has passed drop off the front, and newly
    started instances append at the back.  The cursor maintains that set in a
    deque — :meth:`advance` costs O(instances opened + instances closed)
    across a whole run (amortised O(1) per batch) instead of rebuilding the
    O(``max_overlap``) instance list for every event, which is what the
    engine's per-event loop used to do.

    Examples
    --------
    >>> cursor = WindowCursor(SlidingWindow(size=4, slide=2))
    >>> list(cursor.advance(2))
    [[0,4), [2,6)]
    >>> list(cursor.advance(4))
    [[2,6), [4,8)]
    >>> list(cursor.advance(11))  # gaps fast-forward without scanning
    [[8,12), [10,14)]
    """

    __slots__ = ("window", "_instances", "_next_start", "_timestamp")

    def __init__(self, window: SlidingWindow) -> None:
        self.window = window
        self._instances: deque[WindowInstance] = deque()
        self._next_start = 0
        self._timestamp = -1

    @property
    def timestamp(self) -> int:
        """The last timestamp advanced to (-1 before the first advance)."""
        return self._timestamp

    def advance(self, timestamp: int) -> deque[WindowInstance]:
        """Instances containing ``timestamp`` (ascending by start).

        Timestamps must be non-decreasing across calls; the returned deque is
        the cursor's live state — iterate it, do not mutate it.
        """
        if timestamp < self._timestamp:
            raise ValueError(
                f"WindowCursor requires monotone timestamps "
                f"({timestamp} after {self._timestamp})"
            )
        self._timestamp = timestamp
        instances = self._instances
        while instances and instances[0].end <= timestamp:
            instances.popleft()
        size = self.window.size
        slide = self.window.slide
        next_start = self._next_start
        lowest = timestamp - size  # starts must satisfy start > timestamp - size
        if next_start <= lowest:
            # Fast-forward over a stream gap: skip instances that would be
            # born already expired (keeps advance O(overlap), not O(gap)).
            next_start = max(0, (lowest // slide + 1) * slide)
        while next_start <= timestamp:
            instances.append(WindowInstance(next_start, next_start + size))
            next_start += slide
        self._next_start = next_start
        return instances

    # -- checkpointing -----------------------------------------------------------
    def export_state(self) -> dict:
        """Snapshot the cursor position as a JSON-safe dict.

        Only the two scalars are persisted; the live instance deque is fully
        determined by them (it always equals
        ``window.instances_containing(timestamp)``) and is rebuilt on
        :meth:`restore_state`.
        """
        return {"next_start": self._next_start, "timestamp": self._timestamp}

    def restore_state(self, state: dict) -> None:
        """Restore a position exported by :meth:`export_state`."""
        self._next_start = state["next_start"]
        self._timestamp = state["timestamp"]
        self._instances.clear()
        if self._timestamp >= 0:
            self._instances.extend(self.window.instances_containing(self._timestamp))
