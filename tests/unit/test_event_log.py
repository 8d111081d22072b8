"""Unit tests for the durable JSONL event log (repro.events.log)."""

from __future__ import annotations

import json
from itertools import accumulate
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.events import (
    ColumnLayout,
    ColumnarBatch,
    Event,
    EventLogError,
    EventLogReader,
    EventLogWriter,
    EventStream,
    event_from_record,
    event_to_record,
    write_event_log,
)
from repro.events.log import _MIXED_FRAME_ROWS, LOG_FORMAT, LOG_VERSION, row_event, rows_to_events
from repro.events.stream import timestamp_batches

FIXTURES = Path(__file__).resolve().parents[1] / "fixtures"


def make_events():
    return [
        Event("A", 1, {"entity": 7, "value": 2.5}, 0),
        Event("B", 1, {"entity": 7, "label": "x"}, 1),
        Event("A", 3, {"flag": True, "missing": None}, 2),
    ]


class TestEventCodec:
    def test_record_has_fixed_field_order(self):
        record = event_to_record(Event("A", 5, {"b": 1, "a": 2}, 9))
        assert list(record) == ["t", "type", "id", "attrs"]
        assert list(record["attrs"]) == ["a", "b"]

    def test_round_trip_preserves_event(self):
        for event in make_events():
            back = event_from_record(event_to_record(event))
            assert back.event_type == event.event_type
            assert back.timestamp == event.timestamp
            assert back.event_id == event.event_id
            assert back.attributes == event.attributes

    def test_encoding_is_canonical(self):
        # Attribute insertion order must not leak into the bytes.
        a = event_to_record(Event("A", 1, {"x": 1, "y": 2}, 0))
        b = event_to_record(Event("A", 1, {"y": 2, "x": 1}, 0))
        assert json.dumps(a) == json.dumps(b)

    def test_non_scalar_attribute_is_rejected(self):
        with pytest.raises(EventLogError, match="non-scalar"):
            event_to_record(Event("A", 1, {"bad": (1, 2)}, 0))
        with pytest.raises(EventLogError, match="non-scalar"):
            event_to_record(Event("A", 1, {"bad": {"nested": 1}}, 0))

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_attribute_is_rejected_when_appended(self, value, tmp_path):
        with pytest.raises(EventLogError, match="attribute 'x' of event 7 has non-finite"):
            event_to_record(Event("A", 1, {"x": value}, 7))
        # The writer refuses the event itself; the open run and the handle survive.
        path = tmp_path / "events.jsonl"
        good = [Event("A", 1, {"x": 1.5}, 6), Event("A", 1, {"x": 2.5}, 8), Event("A", 2, {"x": 0.0}, 9)]
        writer = EventLogWriter(path)
        writer.append(good[0])
        with pytest.raises(EventLogError, match="attribute 'x' of event 7 has non-finite"):
            writer.append(Event("A", 1, {"x": value}, 7))
        writer.extend(good[1:])
        writer.close()
        assert writer.events_written == 3
        assert list(EventLogReader(path)) == good

    @pytest.mark.parametrize("event_id", [float("nan"), {"from": 1}, [1], (1,)])
    def test_an_id_the_log_cannot_store_is_rejected_when_appended(self, event_id, tmp_path):
        path = tmp_path / "events.jsonl"
        with EventLogWriter(path) as writer:
            writer.append(Event("A", 1, {}, 0))
            with pytest.raises(EventLogError, match="the id of event 'B' at t=1 has non-"):
                writer.append(Event("B", 1, {}, event_id))
            writer.append(Event("A", 1, {}, 1))
        assert list(EventLogReader(path)) == [Event("A", 1, {}, 0), Event("A", 1, {}, 1)]


class TestWriterReader:
    def test_write_then_read_round_trips(self, tmp_path):
        path = tmp_path / "events.jsonl"
        events = make_events()
        written = write_event_log(events, path, stream_name="s")
        assert written == len(events)
        reader = EventLogReader(path)
        assert reader.stream_name == "s"
        assert [e.event_id for e in reader] == [0, 1, 2]
        assert reader.count_events() == len(events)

    def test_stream_round_trip_preserves_name_and_order(self, tmp_path):
        path = tmp_path / "events.jsonl"
        stream = EventStream(make_events(), name="taxi")
        write_event_log(stream, path)
        back = EventLogReader(path).read_stream()
        assert back.name == "taxi"
        assert list(back) == list(stream)

    def test_header_line_is_first_and_validated(self, tmp_path):
        path = tmp_path / "events.jsonl"
        write_event_log(make_events(), path, stream_name="s")
        first = path.read_text(encoding="utf-8").splitlines()[0]
        header = json.loads(first)
        assert header == {"format": LOG_FORMAT, "version": LOG_VERSION, "stream": "s"}

    def test_log_bytes_are_deterministic(self, tmp_path):
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        write_event_log(make_events(), a, stream_name="s")
        write_event_log(make_events(), b, stream_name="s")
        assert a.read_bytes() == b.read_bytes()

    def test_events_from_seeks(self, tmp_path):
        path = tmp_path / "events.jsonl"
        events = [Event("A", i, {"n": i}, i) for i in range(10)]
        write_event_log(events, path)
        reader = EventLogReader(path)
        assert [e.event_id for e in reader.events_from(7)] == [7, 8, 9]
        assert list(reader.events_from(10)) == []
        with pytest.raises(ValueError):
            list(reader.events_from(-1))

    def test_writer_append_and_context_manager(self, tmp_path):
        path = tmp_path / "events.jsonl"
        with EventLogWriter(path, stream_name="s", fsync_every=2) as writer:
            for event in make_events():
                writer.append(event)
            assert writer.events_written == 3
        # close() is idempotent and a closed writer refuses appends.
        writer.close()
        with pytest.raises(EventLogError, match="closed"):
            writer.append(Event("A", 9, event_id=99))
        assert EventLogReader(path).count_events() == 3

    def test_writer_rejects_negative_fsync_batch(self, tmp_path):
        with pytest.raises(ValueError):
            EventLogWriter(tmp_path / "x.jsonl", fsync_every=-1)

    def test_reader_rejects_missing_header(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_text("", encoding="utf-8")
        with pytest.raises(EventLogError, match="header"):
            EventLogReader(path)

    def test_reader_rejects_foreign_file(self, tmp_path):
        path = tmp_path / "foreign.jsonl"
        path.write_text('{"not": "a log"}\n', encoding="utf-8")
        with pytest.raises(EventLogError, match=LOG_FORMAT):
            EventLogReader(path)

    def test_reader_rejects_version_skew(self, tmp_path):
        path = tmp_path / "future.jsonl"
        path.write_text(
            json.dumps({"format": LOG_FORMAT, "version": LOG_VERSION + 1, "stream": "s"})
            + "\n",
            encoding="utf-8",
        )
        with pytest.raises(EventLogError, match="version"):
            EventLogReader(path)

    def test_reader_rejects_unparseable_header(self, tmp_path):
        path = tmp_path / "garbage.jsonl"
        path.write_text("not json\n", encoding="utf-8")
        with pytest.raises(EventLogError, match="unparseable"):
            EventLogReader(path)


def body_lines(path) -> list:
    return [json.loads(line) for line in path.read_text(encoding="utf-8").splitlines()[1:]]


def write_lines(path, version: int, lines: list) -> Path:
    """A log of ``version`` with the given body lines, as the writer of that version spells them."""
    header = {"format": LOG_FORMAT, "version": version, "stream": "s"}
    path.write_text(
        "".join(json.dumps(line, separators=(",", ":")) + "\n" for line in [header, *lines]),
        encoding="utf-8",
    )
    return path


class TestFrames:
    def test_runs_become_frames_and_single_events_stay_records(self, tmp_path):
        events = [
            Event("A", 5, {"entity": 1, "value": None}, 0),
            Event("B", 5, {"entity": 2, "value": 7}, 1),
            Event("A", 5, {"entity": 3}, 2),  # other attribute names: the run is cut
            Event("A", 6, {"entity": 3}, 3),  # other timestamp: cut again
        ]
        # The version 2 writer spelled every id out; its file still reads.
        v2 = write_lines(
            tmp_path / "v2.jsonl",
            2,
            [
                {"t": 5, "type": ["A", "B"], "id": [0, 1], "attrs": {"entity": [1, 2], "value": [None, 7]}},
                {"t": 5, "type": "A", "id": 2, "attrs": {"entity": 3}},
                {"t": 6, "type": "A", "id": 3, "attrs": {"entity": 3}},
            ],
        )
        assert list(EventLogReader(v2)) == events
        # Version 3 writes the same lines: two small consecutive ids are
        # shorter as a list than as a run.
        path = tmp_path / "events.jsonl"
        write_event_log(events, path)
        assert body_lines(path) == [
            {"t": 5, "type": ["A", "B"], "id": [0, 1], "attrs": {"entity": [1, 2], "value": [None, 7]}},
            {"t": 5, "type": "A", "id": 2, "attrs": {"entity": 3}},
            {"t": 6, "type": "A", "id": 3, "attrs": {"entity": 3}},
        ]
        assert list(EventLogReader(path)) == events

    @pytest.mark.parametrize(
        "ids",
        [[4, 6, 7], [7, 7], [3, 2], [0, 1, 1], [True, 2], [False, True], [1, 2.0]],
        ids=["gap", "duplicate", "descending", "tail-duplicate", "bool-first", "bools", "float"],
    )
    def test_ids_that_do_not_step_by_one_integer_stay_a_list(self, ids, tmp_path):
        path = tmp_path / "events.jsonl"
        events = [Event("A", 1, {}, event_id) for event_id in ids]
        write_event_log(events, path)
        assert body_lines(path) == [{"t": 1, "type": ["A"] * len(ids), "id": ids, "attrs": {}}]
        restored = list(EventLogReader(path))
        assert [type(event.event_id) for event in restored] == list(map(type, ids))
        assert restored == events

    @pytest.mark.parametrize(
        "ids, as_run",
        [
            ([1234, 1235], False),  # {"from":1234} is 13 characters, [1234,1235] 11
            ([99999, 100000], False),  # 14 and 14: a run must be strictly shorter
            ([999999, 1000000], True),  # 15 against 16
            ([0, 1, 2], False),
            ([100, 101, 102], True),  # 12 against 13
            (list(range(7)), True),
        ],
    )
    def test_a_run_is_written_only_when_shorter_than_its_list(self, ids, as_run, tmp_path):
        path = tmp_path / "events.jsonl"
        events = [Event("A", 1, {}, event_id) for event_id in ids]
        write_event_log(events, path)
        ((line,),) = [body_lines(path)]
        assert line["id"] == ({"from": ids[0]} if as_run else ids)
        assert list(EventLogReader(path)) == events

    def test_a_sync_cuts_the_run_and_the_reader_merges_it_back(self, tmp_path):
        events = [Event("A", 1, {"n": i}, 100 + i) for i in range(7)]
        path = tmp_path / "events.jsonl"
        write_event_log(events, path, fsync_every=3)
        assert [len(line["type"]) for line in body_lines(path)] == [3, 3, 1]
        assert body_lines(path) == [
            {"t": 1, "type": ["A"] * 3, "id": {"from": 100}, "attrs": {"n": [0, 1, 2]}},
            {"t": 1, "type": ["A"] * 3, "id": {"from": 103}, "attrs": {"n": [3, 4, 5]}},
            {"t": 1, "type": "A", "id": 106, "attrs": {"n": 6}},
        ]
        # The version 2 writer cut the same run, ids spelled out.
        v2 = write_lines(
            tmp_path / "v2.jsonl",
            2,
            [
                {"t": 1, "type": ["A"] * 3, "id": [100, 101, 102], "attrs": {"n": [0, 1, 2]}},
                {"t": 1, "type": ["A"] * 3, "id": [103, 104, 105], "attrs": {"n": [3, 4, 5]}},
                {"t": 1, "type": "A", "id": 106, "attrs": {"n": 6}},
            ],
        )
        assert [len(line["type"]) for line in body_lines(v2)] == [3, 3, 1]
        for log in (path, v2):
            ((timestamp, rows),) = EventLogReader(log).batches_from(0)
            assert timestamp == 1 and len(rows) == 1
            assert list(rows_to_events(timestamp, rows)) == events
            # Seeking into the middle of a frame slices it.
            ((_, rows),) = EventLogReader(log).batches_from(4)
            assert list(rows_to_events(1, rows)) == events[4:]
            assert list(EventLogReader(log).events_from(4)) == events[4:]
            assert list(EventLogReader(log, start=5)) == events[5:]

    @pytest.mark.parametrize(
        "ids, merged",
        # Ids from 100 up: three of them are shorter as a run than as a list.
        [
            ([100, 101, 102, 103, 104, 105], range(100, 106)),  # run + continuing run
            ([100, 101, 102, 107, 108, 109], [100, 101, 102, 107, 108, 109]),  # run + jumping run
            ([100, 101, 102, 103, 105, 107], [100, 101, 102, 103, 105, 107]),  # run + list
            ([100, 102, 104, 105, 106, 107], [100, 102, 104, 105, 106, 107]),  # list + run
            (list(range(100, 107)), list(range(100, 107))),  # run + run + record
        ],
    )
    def test_merged_ids_stay_a_range_only_where_a_run_continues_a_run(self, ids, merged, tmp_path):
        path = tmp_path / "events.jsonl"
        events = [Event("AB"[i % 2], 1, {"n": i}, event_id) for i, event_id in enumerate(ids)]
        write_event_log(events, path, fsync_every=3)
        ((_, ((_, merged_ids, _),)),) = EventLogReader(path).batches_from(0)
        assert type(merged_ids) is type(merged) and merged_ids == merged
        for start in range(len(events) + 1):
            # Every seek, into either frame, slices the ids as they were merged.
            batches = list(EventLogReader(path).batches_from(start))
            expected = [events[start:]] if start < len(events) else []
            assert [list(rows_to_events(t, rows)) for t, rows in batches] == expected
            if batches:
                ((_, ((_, tail_ids, _),)),) = batches
                assert list(tail_ids) == ids[start:]
                if isinstance(merged, range):
                    assert tail_ids == range(ids[start], ids[-1] + 1)
            assert list(EventLogReader(path).events_from(start)) == events[start:]

    def test_a_frame_spans_timestamps_until_one_exceeds_its_row_0(self, tmp_path):
        events = [
            Event("A", 5, {"n": 0}, 10),
            Event("B", 3, {"n": 1}, 4),
            Event("A", 5, {"n": 2}, 11),  # equal to row 0's: the frame goes on
            Event("C", 1, {"n": 3}, 2),
            Event("A", 6, {"n": 4}, 12),  # greater than every timestamp in it: cut
            Event("B", 6, {"n": 5}, 13),
            Event("A", 2, {"m": 6}, 3),  # other attribute names: cut
        ]
        path = tmp_path / "events.jsonl"
        write_event_log(events, path)
        assert body_lines(path) == [
            {"t": [5, 3, 5, 1], "type": list("ABAC"), "id": [10, 4, 11, 2], "attrs": {"n": [0, 1, 2, 3]}},
            {"t": 6, "type": ["A", "B"], "id": [12, 13], "attrs": {"n": [4, 5]}},
            {"t": 2, "type": "A", "id": 3, "attrs": {"m": 6}},
        ]
        reader = EventLogReader(path)
        assert list(reader) == events
        # Batches split the frame into its same-timestamp stretches, in arrival order.
        assert [(t, list(rows_to_events(t, rows))) for t, rows in reader.batches_from(0)] == list(
            timestamp_batches(events)
        )

    def test_a_frame_spanning_timestamps_is_capped_however_rarely_it_syncs(self, tmp_path, monkeypatch):
        monkeypatch.setattr("repro.events.log._MIXED_FRAME_ROWS", 4)
        mixed = [Event("A", 9 - i % 2, {}, i) for i in range(10)]  # 9, 8, 9, 8, ...
        same = [Event("A", 20, {}, i) for i in range(10, 20)]  # one timestamp: only a sync cuts it
        path = tmp_path / "events.jsonl"
        write_event_log(mixed + same, path, fsync_every=0)
        assert [line["t"] for line in body_lines(path)] == [[9, 8, 9, 8], [9, 8, 9, 8], [9, 8], 20]
        assert list(EventLogReader(path)) == mixed + same

    def test_seeks_at_every_index_inside_a_frame_spanning_timestamps(self, tmp_path):
        arrivals = [(7, "A"), (3, "B"), (7, "B"), (5, "A"), (5, "C"), (3, "A"), (6, "B"), (7, "C")]
        events = [Event(etype, t, {"n": i}, 100 + i) for i, (t, etype) in enumerate(arrivals)]
        path = tmp_path / "events.jsonl"
        write_event_log(events, path, fsync_every=0)
        ((line,),) = [body_lines(path)]
        assert line["t"] == [t for t, _ in arrivals] and line["id"] == {"from": 100}
        reader = EventLogReader(path)
        for start in range(len(events) + 1):
            tail = events[start:]
            assert list(reader.events_from(start)) == tail
            assert list(EventLogReader(path, start=start)) == tail
            assert list(map(row_event, reader.rows_from(start))) == tail
            batches = [(t, list(rows_to_events(t, rows))) for t, rows in reader.batches_from(start)]
            assert batches == list(timestamp_batches(tail))

    def test_counts(self, tmp_path):
        path = tmp_path / "events.jsonl"
        write_event_log(make_events(), path)
        reader = EventLogReader(path)
        assert (reader.count_events(), reader.count_lines()) == (3, 3)

    @pytest.mark.parametrize("name", ["v1_checkpoint", "parent_checkpoint"])
    def test_v1_fixtures_read_identically_through_both_iterators(self, name):
        reader = EventLogReader(FIXTURES / name / "events.jsonl")
        assert reader.header["version"] == 1
        events = list(reader)
        assert events and len(events) == reader.count_events() == reader.count_lines()
        batches = [(t, list(rows_to_events(t, rows))) for t, rows in reader.batches_from(0)]
        assert batches == list(timestamp_batches(events))


RECORD = '{"t":3,"type":"A","id":1,"attrs":{"n":1}}'
FRAME = '{"t":3,"type":["A","B"],"id":[1,2],"attrs":{"n":[1,2]}}'

#: One malformed body line per fault, for a record line and for a frame.
MALFORMED = {
    "record-torn": RECORD[:17],
    "frame-torn": FRAME[:25],
    "not-an-object": "[1,2,3]",
    "a-scalar": "17",
    "record-missing-t": '{"type":"A","id":1,"attrs":{}}',
    "record-missing-type": '{"t":3,"id":1,"attrs":{}}',
    "record-missing-id": '{"t":3,"type":"A","attrs":{}}',
    "record-missing-attrs": '{"t":3,"type":"A","id":1}',
    "frame-missing-id": '{"t":3,"type":["A","B"],"attrs":{"n":[1,2]}}',
    "frame-missing-attrs": '{"t":3,"type":["A","B"],"id":[1,2]}',
    "frame-short-ids": '{"t":3,"type":["A","B"],"id":[1],"attrs":{"n":[1,2]}}',
    "frame-long-column": '{"t":3,"type":["A","B"],"id":[1,2],"attrs":{"n":[1,2,3]}}',
    "frame-scalar-column": '{"t":3,"type":["A","B"],"id":[1,2],"attrs":{"n":1}}',
    "frame-scalar-ids": '{"t":3,"type":["A","B"],"id":1,"attrs":{"n":[1,2]}}',
    "frame-empty": '{"t":3,"type":[],"id":[],"attrs":{}}',
    "record-float-t": '{"t":3.5,"type":"A","id":1,"attrs":{}}',
    "record-string-t": '{"t":"3","type":"A","id":1,"attrs":{}}',
    "record-bool-t": '{"t":true,"type":"A","id":1,"attrs":{}}',
    "record-negative-t": '{"t":-1,"type":"A","id":1,"attrs":{}}',
    "frame-negative-t": '{"t":-1,"type":["A","B"],"id":[1,2],"attrs":{}}',
    "frame-float-t": '{"t":3.0,"type":["A","B"],"id":[1,2],"attrs":{}}',
    "record-empty-type": '{"t":3,"type":"","id":1,"attrs":{}}',
    "record-numeric-type": '{"t":3,"type":7,"id":1,"attrs":{}}',
    "frame-empty-type": '{"t":3,"type":["A",""],"id":[1,2],"attrs":{}}',
    "frame-numeric-type": '{"t":3,"type":["A",7],"id":[1,2],"attrs":{}}',
    "record-attrs-not-an-object": '{"t":3,"type":"A","id":1,"attrs":[1]}',
    "frame-attrs-not-an-object": '{"t":3,"type":["A","B"],"id":[1,2],"attrs":[[1,2]]}',
    "run-float-from": '{"t":3,"type":["A","B"],"id":{"from":1.0},"attrs":{"n":[1,2]}}',
    "run-bool-from": '{"t":3,"type":["A","B"],"id":{"from":true},"attrs":{"n":[1,2]}}',
    "run-string-from": '{"t":3,"type":["A","B"],"id":{"from":"1"},"attrs":{"n":[1,2]}}',
    "run-list-from": '{"t":3,"type":["A","B"],"id":{"from":[1,2]},"attrs":{"n":[1,2]}}',
    "run-missing-from": '{"t":3,"type":["A","B"],"id":{},"attrs":{"n":[1,2]}}',
    "run-extra-key": '{"t":3,"type":["A","B"],"id":{"from":1,"to":2},"attrs":{"n":[1,2]}}',
    "run-other-key": '{"t":3,"type":["A","B"],"id":{"start":1},"attrs":{"n":[1,2]}}',
    "run-on-a-record": '{"t":3,"type":"A","id":{"from":1},"attrs":{"n":1}}',
    "run-long-column": '{"t":3,"type":["A","B"],"id":{"from":1},"attrs":{"n":[1,2,3]}}',
    "t-column-short": '{"t":[3],"type":["A","B"],"id":[1,2],"attrs":{"n":[1,2]}}',
    "t-column-long": '{"t":[3,2,1],"type":["A","B"],"id":[1,2],"attrs":{"n":[1,2]}}',
    "t-column-empty": '{"t":[],"type":["A","B"],"id":[1,2],"attrs":{"n":[1,2]}}',
    "t-column-negative": '{"t":[3,-1],"type":["A","B"],"id":[1,2],"attrs":{"n":[1,2]}}',
    "t-column-float": '{"t":[3,2.0],"type":["A","B"],"id":[1,2],"attrs":{"n":[1,2]}}',
    "t-column-bool": '{"t":[3,true],"type":["A","B"],"id":[1,2],"attrs":{"n":[1,2]}}',
    "t-column-str": '{"t":[3,"2"],"type":["A","B"],"id":[1,2],"attrs":{"n":[1,2]}}',
    "t-column-nested": '{"t":[3,[2]],"type":["A","B"],"id":[1,2],"attrs":{"n":[1,2]}}',
    "t-column-on-a-record": '{"t":[3],"type":"A","id":1,"attrs":{"n":1}}',
}


class TestMalformedBodyLines:
    """Every bad body line is an ``EventLogError`` naming the file and the line."""

    def test_a_run_of_ids_reads_as_the_list_it_replaces(self, tmp_path):
        """The good lines of the fault test, ids as a run, read the same."""
        lines = [FRAME.replace("3", "2", 1), RECORD, FRAME.replace("[1,2]", '{"from":1}', 1)]
        assert '"id":{"from":1}' in lines[2]
        header = json.dumps({"format": LOG_FORMAT, "version": LOG_VERSION, "stream": "s"})
        path = tmp_path / "events.jsonl"
        path.write_text("\n".join([header, *lines]) + "\n", encoding="utf-8")
        reader = EventLogReader(path)
        assert [(e.timestamp, e.event_id) for e in reader] == [(2, 1), (2, 2), (3, 1), (3, 1), (3, 2)]
        assert [[e.event_id for e in rows_to_events(t, rows)] for t, rows in reader.batches_from(0)] == [
            [1, 2],
            [1, 1, 2],
        ]

    @pytest.mark.parametrize("fault", sorted(MALFORMED))
    def test_fault_is_named_after_the_good_lines_were_delivered(self, fault, tmp_path):
        path = tmp_path / "events.jsonl"
        header = json.dumps({"format": LOG_FORMAT, "version": LOG_VERSION, "stream": "s"})
        # Line 1 header, 2 a frame, 3 blank (ignored), 4 a record, 5 the fault.
        path.write_text(
            "\n".join([header, FRAME.replace("3", "2", 1), "", RECORD, MALFORMED[fault], RECORD]) + "\n",
            encoding="utf-8",
        )
        reader = EventLogReader(path)
        expected = rf"{path.name}, line 5: malformed"

        delivered = []
        with pytest.raises(EventLogError, match=expected):
            for event in reader.events_from(0):
                delivered.append(event.event_id)
        assert delivered == [1, 2, 1]

        batches = []
        with pytest.raises(EventLogError, match=expected):
            for timestamp, rows in reader.batches_from(0):
                batches.append((timestamp, [e.event_id for e in rows_to_events(timestamp, rows)]))
        # The batch the bad line would have extended or ended is not delivered.
        assert batches == [(2, [1, 2])]
        with pytest.raises(EventLogError, match=expected):
            reader.count_events()
        # A seek that stops before the fault still meets it.
        with pytest.raises(EventLogError, match=expected):
            list(reader.events_from(2))


# -- property tests -----------------------------------------------------------

attr_values = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(2**70), max_value=2**70),
    st.floats(allow_nan=False, allow_infinity=False),
    st.text(max_size=12),
)

events_strategy = st.lists(
    st.builds(
        lambda ts, etype, attrs: (ts, etype, attrs),
        st.integers(min_value=0, max_value=50),
        st.sampled_from(["A", "B", "C"]),
        st.dictionaries(st.text(min_size=1, max_size=6), attr_values, max_size=4),
    ),
    max_size=40,
)


@settings(max_examples=60, deadline=None)
@given(rows=events_strategy)
def test_log_round_trip_property(rows, tmp_path_factory):
    """Any scalar-attributed stream round-trips through the log exactly."""
    events = [Event(etype, ts, attrs, event_id) for event_id, (ts, etype, attrs) in enumerate(rows)]
    stream = EventStream(events, name="prop")
    path = tmp_path_factory.mktemp("log") / "events.jsonl"
    write_event_log(stream, path)
    back = EventLogReader(path).read_stream()
    assert len(back) == len(stream)
    for original, restored in zip(stream, back):
        assert restored.event_type == original.event_type
        assert restored.timestamp == original.timestamp
        assert restored.event_id == original.event_id
        assert restored.attributes == original.attributes


@settings(max_examples=60, deadline=None)
@given(rows=events_strategy)
def test_event_codec_round_trip_property(rows):
    """event_to_record/event_from_record are exact inverses on scalar attrs."""
    for event_id, (ts, etype, attrs) in enumerate(rows):
        event = Event(etype, ts, attrs, event_id)
        restored = event_from_record(json.loads(json.dumps(event_to_record(event))))
        assert restored.attributes == event.attributes
        assert (restored.event_type, restored.timestamp, restored.event_id) == (
            event.event_type,
            event.timestamp,
            event.event_id,
        )


arrival_strategy = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=6),
        st.sampled_from(["A", "B", "C", "Ünï"]),
        st.one_of(
            st.just({}),
            st.fixed_dictionaries({"entity": attr_values, "value": attr_values}),
            st.fixed_dictionaries({"entity": attr_values}),
            st.dictionaries(st.sampled_from(["entity", "value", "x"]), attr_values, max_size=3),
        ),
    ),
    max_size=40,
)

#: Reads ``entity``/``value`` columns and keys groups by two attributes, one often absent.
PROPERTY_LAYOUT = ColumnLayout(types=("A", "B"), attributes=("entity", "value"), partition=("entity", "x"))


def same_value(a, b) -> bool:
    """Equality that tells ``1`` from ``True`` from ``1.0`` (JSON keeps them apart)."""
    return a == b and type(a) is type(b)


def assert_same_batch(built: ColumnarBatch, reference: ColumnarBatch) -> None:
    assert built.timestamp == reference.timestamp and built.size == reference.size
    assert built.type_ids == reference.type_ids
    assert built.relevant == reference.relevant
    assert list(built.columns) == list(reference.columns)
    for name, column in reference.columns.items():
        assert all(map(same_value, built.columns[name], column)), name
    assert built.group_keys == reference.group_keys
    assert list(built) == list(reference)
    for ours, theirs in zip(built, reference):
        assert all(same_value(ours.attributes[k], theirs.attributes[k]) for k in theirs.attributes)


def compact(value) -> str:
    """``value`` as the log writer spells it."""
    return json.dumps(value, separators=(",", ":"))


def v3_body(events: list, fsync_every: int) -> list:
    """The body lines the version 3 writer wrote for ``events``.

    A run ended where the timestamp or the attribute names changed and at
    every sync; a run of one was a record, a longer one a frame whose ids
    were ``{"from": first}`` when they stepped by +1 and that was shorter.
    """
    runs: list = []
    for index, event in enumerate(events):
        key = (event.timestamp, tuple(sorted(event.attributes)))
        if not runs or runs[-1][0] != key or (fsync_every and index % fsync_every == 0):
            runs.append((key, []))
        runs[-1][1].append(event_to_record(event))
    lines = []
    for (timestamp, names), records in runs:
        if len(records) == 1:
            lines.append(compact(records[0]))
            continue
        ids = [record["id"] for record in records]
        if all(type(i) is int for i in ids) and ids == list(range(ids[0], ids[0] + len(ids))):
            if len(compact({"from": ids[0]})) < len(compact(ids)):
                ids = {"from": ids[0]}
        frame = {
            "t": timestamp,
            "type": [record["type"] for record in records],
            "id": ids,
            "attrs": {name: [record["attrs"][name] for record in records] for name in names},
        }
        lines.append(compact(frame))
    return lines


#: Steps between consecutive event ids: mostly +1 (frames store a run), with
#: duplicates, gaps and descents (frames keep the id list).
id_steps = st.lists(st.sampled_from([1, 1, 1, 0, 2, -1]), min_size=40, max_size=40)


@settings(max_examples=120, deadline=None)
@given(
    rows=arrival_strategy,
    ordered=st.booleans(),
    fsync_every=st.sampled_from([0, 1, 3, 512]),
    steps=st.one_of(st.none(), id_steps),
)
# Two rows with small consecutive ids: the list is shorter than the run.
@example(rows=[(1, "A", {}), (1, "B", {})], ordered=False, fsync_every=0, steps=None)
def test_log_codec_property(rows, ordered, fsync_every, steps, tmp_path_factory):
    """write -> read is exact from every index, in events, batches and columns."""
    if ordered:
        rows = sorted(rows, key=lambda row: row[0])  # long same-timestamp runs
    ids = range(len(rows)) if steps is None else accumulate(steps, initial=5)
    events = [Event(etype, ts, attrs, event_id) for event_id, (ts, etype, attrs) in zip(ids, rows)]
    directory = tmp_path_factory.mktemp("codec")
    path = directory / "events.jsonl"
    write_event_log(events, path, stream_name="prop", fsync_every=fsync_every)
    write_event_log(iter(events), directory / "again.jsonl", stream_name="prop", fsync_every=fsync_every)
    assert path.read_bytes() == (directory / "again.jsonl").read_bytes()
    stored_ids = []
    for line in body_lines(path):
        if isinstance(line["type"], list):  # frames hold runs of two or more
            size = len(line["type"])
            assert size >= 2
            assert fsync_every == 0 or size <= fsync_every
            if isinstance(line["t"], list):  # a timestamp column only where they differ
                assert len(line["t"]) == size and len(set(line["t"])) > 1 and size <= _MIXED_FRAME_ROWS
                # Row 0 holds the frame's largest timestamp: only it can move a watermark.
                assert line["t"][0] == max(line["t"])
            run = {"from": line["id"]["from"] if isinstance(line["id"], dict) else line["id"][0]}
            consecutive = list(range(run["from"], run["from"] + size))
            if isinstance(line["id"], dict):  # a run of ids: they step by one, and it is shorter
                assert len(compact(run)) < len(compact(consecutive))
                stored_ids += consecutive
            else:  # no list-form frame steps by +1 unless the list is no longer than the run
                assert line["id"] != consecutive or len(compact(line["id"])) <= len(compact(run))
                stored_ids += line["id"]
        else:
            stored_ids.append(line["id"])
    assert stored_ids == [event.event_id for event in events]
    times = [event.timestamp for event in events]
    if times == sorted(times):  # an in-order stream is cut where version 3 cut it
        body = path.read_text(encoding="utf-8").partition("\n")[2]
        assert body == "".join(line + "\n" for line in v3_body(events, fsync_every))

    reader = EventLogReader(path)
    assert reader.count_events() == len(events)
    for start in range(len(events) + 1):
        tail = events[start:]
        assert list(reader.events_from(start)) == tail
        expected = list(timestamp_batches(tail))
        batches = list(reader.batches_from(start))
        assert [(t, list(rows_to_events(t, frames))) for t, frames in batches] == expected
        for (timestamp, frames), (_, batch_events) in zip(batches, expected):
            assert_same_batch(
                ColumnarBatch.from_rows(timestamp, frames, PROPERTY_LAYOUT, {}),
                ColumnarBatch.from_events(timestamp, batch_events, PROPERTY_LAYOUT, {}),
            )


def test_a_run_longer_than_the_sync_batch_is_one_batch(tmp_path):
    path = tmp_path / "events.jsonl"
    events = [Event("AB"[i % 2], 4, {"entity": i % 3, "value": i}, i) for i in range(20)]
    events.append(Event("A", 5, {"entity": 0, "value": 0}, 20))
    write_event_log(events, path, fsync_every=3)
    assert len(body_lines(path)) == 8  # six frames of 3, a frame of 2, a record
    batches = list(EventLogReader(path).batches_from(0))
    assert [(t, sum(len(frame[0]) for frame in frames)) for t, frames in batches] == [(4, 20), (5, 1)]
    assert_same_batch(
        ColumnarBatch.from_rows(*batches[0], PROPERTY_LAYOUT, {}),
        ColumnarBatch.from_events(4, events[:20], PROPERTY_LAYOUT, {}),
    )
