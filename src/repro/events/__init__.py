"""Event model substrate: events, schemas, streams, and sliding windows."""

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
    read_event_log,
    write_event_log,
)
from .schema import AttributeSpec, EventSchema, SchemaRegistry, SchemaValidationError
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
    "read_event_log",
    "write_event_log",
    "AttributeSpec",
    "EventSchema",
    "SchemaRegistry",
    "SchemaValidationError",
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
