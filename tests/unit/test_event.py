"""Unit tests for the event model (repro.events.event)."""

from __future__ import annotations

import pytest

from repro.events import Event


class TestEventConstruction:
    def test_basic_fields(self):
        event = Event("MainSt", 5, {"vehicle": 3}, event_id=9)
        assert event.event_type == "MainSt"
        assert event.timestamp == 5
        assert event.attributes == {"vehicle": 3}
        assert event.event_id == 9

    def test_paper_aliases(self):
        event = Event("OakSt", 12)
        assert event.type == "OakSt"
        assert event.time == 12

    def test_negative_timestamp_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            Event("A", -1)

    def test_empty_type_rejected(self):
        with pytest.raises(ValueError, match="non-empty"):
            Event("", 0)

    def test_default_attributes_empty(self):
        assert Event("A", 0).attributes == {}

    def test_events_are_hashable_and_equal_by_value(self):
        a = Event("A", 1, {"x": 1}, 0)
        b = Event("A", 1, {"x": 1}, 0)
        assert a == b


class TestEventAttributes:
    def test_attribute_lookup_with_default(self):
        event = Event("A", 0, {"speed": 42.0})
        assert event.attribute("speed") == 42.0
        assert event.attribute("missing") is None
        assert event.attribute("missing", -1) == -1

    def test_getitem_and_contains(self):
        event = Event("A", 0, {"speed": 42.0})
        assert event["speed"] == 42.0
        assert "speed" in event
        assert "missing" not in event

    def test_getitem_missing_raises_with_known_attributes(self):
        event = Event("A", 0, {"speed": 42.0})
        with pytest.raises(KeyError, match="speed"):
            event["missing"]
