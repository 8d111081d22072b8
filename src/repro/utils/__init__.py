"""Cross-cutting utilities: rate catalog and memory measurement."""

from .memory import PeakMemoryTracker, deep_sizeof
from .rates import RateCatalog

__all__ = [
    "PeakMemoryTracker",
    "deep_sizeof",
    "RateCatalog",
]
