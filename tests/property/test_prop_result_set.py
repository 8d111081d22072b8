"""Property: a ``ResultSet`` that has not built its index behaves like one that has.

A set read from a :class:`~repro.executor.results.ResultLedger` starts as bare
rows and builds its ``(query, window, group)`` dict on the first keyed call;
a set built through the constructor or ``add`` has the dict from the start.
Both must be indistinguishable from the *eager model* below — the plain dict
the class used to be — on insertion order, ``len``, duplicate-key replacement,
``get``/``value``/``in``, ``nonzero``, ``as_dict``, ``matches``/``differences``,
and on ``add`` after the index exists, whatever is called first.

The ledger itself gives one answer wherever it keeps its lines, and however
often it is summarised: a session encodes after every batch, a run without
one would encode once at the end.  It is fed *blocks* — one line template,
window, group and value list per closing window × group — and the lines it
writes from them are, byte for byte, :func:`encode_result_lines` of the rows
the blocks stand for, whatever the query names, groups and values.
"""

from __future__ import annotations

import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.events import Event, SlidingWindow, WindowInstance
from repro.executor import ChurnOp, StreamingEngine
from repro.executor.results import (
    LineTemplate,
    QueryResult,
    ResultLedger,
    ResultSet,
    decode_result_lines,
    encode_result_lines,
)
from repro.queries import AggregateSpec, Pattern, Query, Workload
from repro.replay.checkpoint import ResultsLogWriter

from ..reference import row_blocks

WINDOWS = [WindowInstance(0, 10), WindowInstance(5, 15)]
KEYS = [
    (name, window, group)
    for name in ("q1", "q2", "q3")
    for window in WINDOWS
    for group in ((), ("a",), ("a", 1))
]
values = st.sampled_from([0, 1, 2, 7, 0.0, 2.5, 1e-12, None, -3])
rows = st.lists(st.tuples(st.sampled_from(KEYS), values), max_size=30).map(
    lambda drawn: [(*key, value) for key, value in drawn]
)


def model_of(row_list) -> dict:
    """The eager reference: last value wins, first insertion keeps the position."""
    model: dict = {}
    for row in row_list:
        model[row[:3]] = QueryResult(*row)
    return model


def normalised(value):
    return 0.0 if value is None else value


def model_differences(mine: dict, theirs: dict, tolerance: float = 1e-9) -> list:
    found = []
    for key in sorted(set(mine) | set(theirs), key=repr):
        a = mine[key].value if key in mine else None
        b = theirs[key].value if key in theirs else None
        x, y = normalised(a), normalised(b)
        if abs(float(x) - float(y)) > tolerance:
            found.append((key, a, b))
    return found


def assert_same(results: ResultSet, model: dict, other: ResultSet, other_model: dict, keyed_first):
    def check_iteration():
        listed = list(results)
        assert listed == list(model.values())
        assert all(type(result) is QueryResult for result in listed)
        assert list(results.nonzero()) == [
            r for r in model.values() if r.value not in (0, 0.0, None)
        ]
        assert results.query_names() == tuple(sorted({r.query_name for r in model.values()}))

    def check_keyed():
        assert len(results) == len(model)
        for key in KEYS:
            assert (key in results) == (key in model)
            assert results.get(*key) == model.get(key)
            expected = model[key].value if key in model else "absent"
            assert results.value(*key, default="absent") == expected
        assert results.as_dict() == {key: r.value for key, r in model.items()}
        expected_differences = model_differences(model, other_model)
        assert results.differences(other) == expected_differences
        assert results.matches(other) == (not expected_differences)
        assert other.matches(results) == (not expected_differences)

    for check in (check_keyed, check_iteration) if keyed_first else (check_iteration, check_keyed):
        check()
    check_iteration()  # and once more, now that the index exists


@settings(max_examples=150, deadline=None)
@given(
    emitted=rows,
    added=rows,
    other_rows=rows,
    read_before_adding=st.booleans(),
    keyed_first=st.booleans(),
)
def test_lazy_result_set_equals_the_eager_model(
    emitted, added, other_rows, read_before_adding, keyed_first
):
    # A ledger only ever holds distinct keys (a scope finalizes once).
    emitted = [tuple(result) for result in model_of(emitted).values()]
    ledger = ResultLedger()
    ledger.pending.extend(row_blocks(emitted))
    lazy = ledger.results
    assert lazy._index is None  # bare rows: nothing was indexed to get here
    model = model_of(emitted)
    other, other_model = ResultSet(map(QueryResult._make, other_rows)), model_of(other_rows)

    if read_before_adding:
        assert_same(lazy, model, other, other_model, keyed_first)
    for row in added:  # duplicate keys replace in place, new keys append
        lazy.add(QueryResult(*row))
        model[row[:3]] = QueryResult(*row)
    assert_same(lazy, model, other, other_model, keyed_first)

    # The public constructor takes duplicates the same way.
    assert_same(
        ResultSet(emitted + added), model_of(emitted + added), other, other_model, keyed_first
    )


@settings(max_examples=50, deadline=None)
@given(emitted=rows, cut=st.integers(min_value=0, max_value=30))
def test_results_are_the_same_rows_wherever_the_ledger_keeps_them(emitted, cut):
    """In memory, restored as bytes, or in an attached log: one answer."""
    emitted = [tuple(result) for result in model_of(emitted).values()]
    head, tail = emitted[:cut], emitted[cut:]

    in_memory = ResultLedger()
    in_memory.pending.extend(row_blocks(head))
    recorded = in_memory.summary()
    in_memory.pending.extend(row_blocks(tail))

    restored = ResultLedger()
    restored.restore(recorded, encode_result_lines(head))
    restored.pending.extend(row_blocks(tail))

    class Log:
        lines = b""

        def append(self, lines):
            self.lines += lines

        def body(self):
            return self.lines

    logged = ResultLedger()
    logged.attach_log(Log())
    logged.pending.extend(row_blocks(head))
    logged.summary()
    logged.pending.extend(row_blocks(tail))

    expected = [QueryResult(*row) for row in emitted]
    for ledger in (in_memory, restored, logged):
        assert list(ledger.results) == expected
        # Decoded lines give back the value types too (0 vs 0.0, None).
        assert [type(r.value) for r in ledger.results] == [type(r.value) for r in expected]
    assert in_memory.summary() == restored.summary() == logged.summary()


@settings(max_examples=100, deadline=None)
@given(
    emitted=rows,
    cuts=st.lists(st.integers(min_value=0, max_value=30), max_size=8),
    with_log=st.booleans(),
)
def test_summary_cadence_changes_nothing(emitted, cuts, with_log):
    """Summarising at any split points equals one summary at the end.

    Same ``{"count", "digest"}``, same ``results`` rows and, with a
    :class:`ResultsLogWriter` attached, the same ``results.jsonl`` bytes.
    """
    emitted = [tuple(result) for result in model_of(emitted).values()]
    bounds = sorted({0, len(emitted), *(cut for cut in cuts if cut <= len(emitted))})
    with tempfile.TemporaryDirectory() as directory:
        ledgers = []
        for name, splits in (("once", [0, len(emitted)]), ("split", bounds)):
            ledger = ResultLedger()
            if with_log:
                ledger.attach_log(ResultsLogWriter(Path(directory) / f"{name}.jsonl"))
            for start, end in zip(splits, splits[1:]):
                ledger.pending.extend(row_blocks(emitted[start:end]))
                ledger.summary()
            if with_log:
                ledger.log.close()
            ledgers.append(ledger)
        once, split = ledgers
        assert split.summary() == once.summary()
        assert list(split.results) == list(once.results) == [QueryResult(*r) for r in emitted]
        if with_log:
            logs = [(Path(directory) / f"{name}.jsonl").read_bytes() for name in ("once", "split")]
            assert logs[0] == logs[1] and logs[0].endswith(encode_result_lines(emitted))


#: Query names a template must encode: JSON escapes, ``str.format`` and
#: ``%`` specials, non-ASCII, and the empty name.
query_names = st.one_of(
    st.text(st.sampled_from('{}%"\\\n é€😀q1'), max_size=5), st.text(max_size=3)
)
group_values = st.one_of(
    st.text(max_size=3),
    st.integers(),
    st.floats(allow_nan=False, allow_infinity=False),
    st.booleans(),
    st.none(),
)
#: Groups that are equal as keys but are written differently.
equal_groups = st.sampled_from([(1,), (True,), (1.0,), (0,), (False,), (0.0,), (-0.0,)])
result_values = st.one_of(
    st.integers(),
    st.integers(min_value=2**63),
    st.integers(max_value=-(2**63) - 1),
    st.sampled_from([-0.0, 0.0, 1e300, 0.1, 0.1 + 0.2]),
    st.floats(allow_nan=False, allow_infinity=False),
    st.none(),
    st.booleans(),
)


@st.composite
def emission_blocks(draw):
    """Blocks as the strategies emit them, with the rows they stand for.

    A fan-out reads ``slots`` values; several queries may read one slot
    (queries sharing a matrix), a slot may go unread (a query the churn
    gate silenced), and a fan-out may be empty (every query silenced).
    """
    templates = []
    for _ in range(draw(st.integers(min_value=1, max_value=3))):
        slots = draw(st.integers(min_value=1, max_value=3))
        slot = st.integers(min_value=0, max_value=slots - 1)
        fan_out = draw(st.lists(st.tuples(query_names, slot), max_size=5))
        templates.append((LineTemplate(fan_out), slots))
    blocks, rows = [], []
    for _ in range(draw(st.integers(min_value=0, max_value=6))):
        template, slots = draw(st.sampled_from(templates))
        start = draw(st.integers(min_value=0, max_value=2**40))
        window = WindowInstance(start, start + draw(st.integers(min_value=1, max_value=50)))
        group = draw(st.one_of(st.lists(group_values, max_size=3).map(tuple), equal_groups))
        values = draw(st.lists(result_values, min_size=slots, max_size=slots))
        blocks.append((template, window, group, values))
        rows += [(name, window, group, values[slot]) for name, slot in template.fan_out]
    return blocks, rows


@settings(max_examples=200, deadline=None)
@given(drawn=emission_blocks(), with_log=st.booleans(), cut=st.integers(min_value=0, max_value=6))
def test_blocks_write_the_canonical_lines_of_their_rows(drawn, with_log, cut):
    """Block encoding is :func:`encode_result_lines` of the equivalent rows, byte for byte."""
    blocks, rows = drawn
    expected = encode_result_lines(rows)
    ledger = ResultLedger()
    written = []
    if with_log:

        class Log:
            def append(self, lines):
                written.append(lines)

            def body(self):
                return b"".join(written)

        ledger.attach_log(Log())
    ledger.pending.extend(blocks[:cut])
    ledger.flush()
    ledger.pending.extend(blocks[cut:])
    assert ledger.pending_rows == sum(template.rows for template, *_ in blocks[cut:])
    # Read before and after the last flush: the same lines, decoded.
    assert list(ledger.results) == decode_result_lines(expected)
    assert ledger.summary()["count"] == len(rows) == expected.count(b"\n")
    assert (b"".join(written) if with_log else ledger.log.body()) == expected
    assert list(ledger.results) == decode_result_lines(expected)


@settings(max_examples=100, deadline=None)
@given(drawn=emission_blocks(), data=st.data())
def test_a_non_finite_value_is_refused_only_where_a_line_reads_it(drawn, data):
    """NaN or infinity in a slot a line reads stops the flush naming that line's
    query; in a slot no line reads (a silenced query's value) it is never written."""
    blocks, _rows = drawn
    if not blocks:
        return
    at = data.draw(st.integers(min_value=0, max_value=len(blocks) - 1))
    template, window, group, values = blocks[at]
    slot = data.draw(st.integers(min_value=0, max_value=len(values) - 1))
    values = list(values)
    values[slot] = data.draw(st.sampled_from([float("nan"), float("inf"), -float("inf")]))
    blocks[at] = (template, window, group, values)
    readers = [name for name, read in template.fan_out if read == slot]
    ledger = ResultLedger()
    ledger.pending.extend(blocks)
    if readers:
        with pytest.raises(ValueError, match="non-finite result") as refused:
            ledger.flush()
        assert f"query {readers[0]!r} " in str(refused.value)
        assert f"window {window!r}, group {group!r}" in str(refused.value)
    else:
        ledger.flush()
        rows = [(name, w, g, v[read]) for t, w, g, v in blocks for name, read in t.fan_out]
        assert ledger.log.body() == encode_result_lines(rows)


def test_a_window_whose_queries_are_all_silenced_writes_nothing_and_still_counts(monkeypatch):
    """Attach ``late`` at 12 (its results start at window 15) and detach ``early`` at 13:
    window [10, 20) closes with an empty fan-out, under both strategies."""
    window = SlidingWindow(size=10, slide=5)

    def query(name):
        return Query(Pattern(["A", "B"]), window, AggregateSpec.count_star(), name=name)

    events = [Event("AB"[t % 2], t, {}, t) for t in range(40)]
    ops = [ChurnOp("attach", 12, query=query("late")), ChurnOp("detach", 13, query_name="early")]
    for panes in (True, False):
        engine = StreamingEngine(Workload([query("early")]), panes=panes)
        strategy = type(engine.new_session().strategy)
        expire, closed = strategy.expire, []

        def recording_expire(self, windows, churn):
            for block in expire(self, windows, churn):
                closed.append(block)
                yield block

        monkeypatch.setattr(strategy, "expire", recording_expire)
        report = engine.run(events, churn=ops)
        monkeypatch.undo()
        silent = [window for template, window, _group, _values in closed if template.rows == 0]
        assert WindowInstance(10, 20) in silent
        metrics = report.metrics
        assert metrics.windows_finalized == len(closed)
        assert metrics.results_emitted == len(report.results)
        # Only the detach partial: the close wrote nothing.
        assert [r.query_name for r in report.results if r.window == WindowInstance(10, 20)] == [
            "early"
        ]
