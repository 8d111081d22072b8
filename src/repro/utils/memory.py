"""Approximate deep-size measurement for peak-memory reporting.

The paper reports "peak memory ... for storing aggregates, events, and event
sequences" (executors) and "for storing the Sharon graph and the sharing
plans" (optimizers).  We approximate the footprint of a Python object graph
with a recursive ``sys.getsizeof`` walk.  Absolute byte counts differ from the
authors' Java measurements, but relative comparisons between executors (the
quantity the figures plot) remain meaningful because all executors are
measured the same way.
"""

from __future__ import annotations

import sys
from typing import Any, Iterable

__all__ = ["deep_sizeof", "PeakMemoryTracker"]


def deep_sizeof(obj: Any, _seen: set[int] | None = None) -> int:
    """Approximate total size in bytes of ``obj`` and everything it references.

    Shared sub-objects are counted once, which is exactly what we want when
    comparing shared against non-shared executors: state reused by several
    queries contributes its footprint a single time.
    """
    seen = _seen if _seen is not None else set()
    object_id = id(obj)
    if object_id in seen:
        return 0
    seen.add(object_id)

    size = sys.getsizeof(obj)

    if isinstance(obj, dict):
        size += sum(deep_sizeof(k, seen) + deep_sizeof(v, seen) for k, v in obj.items())
    elif isinstance(obj, (list, tuple, set, frozenset)):
        size += sum(deep_sizeof(item, seen) for item in obj)
    elif hasattr(obj, "__dict__"):
        size += deep_sizeof(vars(obj), seen)
    elif hasattr(obj, "__slots__"):
        size += sum(
            deep_sizeof(getattr(obj, slot), seen)
            for slot in _iter_slots(obj)
            if hasattr(obj, slot)
        )
    return size


def _iter_slots(obj: Any) -> Iterable[str]:
    for klass in type(obj).__mro__:
        slots = getattr(klass, "__slots__", ())
        if isinstance(slots, str):
            slots = (slots,)
        yield from slots


class PeakMemoryTracker:
    """Keeps the maximum of a series of memory samples.

    Executors call :meth:`sample` at window boundaries (where their state is
    largest) and report :attr:`peak_bytes` at the end of a run.
    """

    def __init__(self) -> None:
        self.peak_bytes = 0
        self.samples = 0

    def sample(self, *objects: Any) -> int:
        """Measure the given objects and fold the total into the peak."""
        seen: set[int] = set()
        total = sum(deep_sizeof(obj, seen) for obj in objects)
        self.samples += 1
        if total > self.peak_bytes:
            self.peak_bytes = total
        return total

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"PeakMemoryTracker(peak={self.peak_bytes}B over {self.samples} samples)"
