"""Event model substrate: events, streams, and sliding windows."""

from .columnar import ColumnLayout, ColumnarBatch
from .disorder import (
    DisorderError,
    ReorderBuffer,
    ReorderFeed,
    bounded_shuffle,
    validate_late_policy,
)
from .event import Event, EventType
from .log import (
    EventLogError,
    EventLogReader,
    EventLogWriter,
    event_from_record,
    event_row,
    event_to_record,
    write_event_log,
)
from .stream import (
    EventStream,
    StreamStatistics,
    merge_streams,
    timestamp_batches,
)
from .windows import SlidingWindow, WindowCursor, WindowInstance

__all__ = [
    "Event",
    "EventType",
    "DisorderError",
    "ReorderBuffer",
    "ReorderFeed",
    "bounded_shuffle",
    "validate_late_policy",
    "EventLogError",
    "EventLogReader",
    "EventLogWriter",
    "event_from_record",
    "event_row",
    "event_to_record",
    "write_event_log",
    "EventStream",
    "StreamStatistics",
    "merge_streams",
    "timestamp_batches",
    "ColumnLayout",
    "ColumnarBatch",
    "SlidingWindow",
    "WindowCursor",
    "WindowInstance",
]
