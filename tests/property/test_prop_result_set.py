"""Property: a ``ResultSet`` that has not built its index behaves like one that has.

A set read from a :class:`~repro.executor.results.ResultLedger` starts as bare
rows and builds its ``(query, window, group)`` dict on the first keyed call;
a set built through the constructor or ``add`` has the dict from the start.
Both must be indistinguishable from the *eager model* below — the plain dict
the class used to be — on insertion order, ``len``, duplicate-key replacement,
``get``/``value``/``in``, ``nonzero``, ``as_dict``, ``matches``/``differences``,
and on ``add`` after the index exists, whatever is called first.

The ledger itself gives one answer wherever it keeps its rows, and however
often it is summarised: a session encodes after every batch, a run without
one would encode once at the end.
"""

from __future__ import annotations

import tempfile
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.events import WindowInstance
from repro.executor.results import (
    QueryResult,
    ResultLedger,
    ResultSet,
    encode_result_lines,
)
from repro.replay.checkpoint import ResultsLogWriter

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
    ledger.pending.extend(emitted)
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
    in_memory.pending.extend(head)
    recorded = in_memory.summary()
    in_memory.pending.extend(tail)

    restored = ResultLedger()
    restored.restore(recorded, encode_result_lines(head))
    restored.pending.extend(tail)

    class Log:
        lines = b""

        def append(self, lines):
            self.lines += lines

        def body(self):
            return self.lines

    logged = ResultLedger()
    logged.attach_log(Log())
    logged.pending.extend(head)
    logged.summary()
    logged.pending.extend(tail)

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
                ledger.pending.extend(emitted[start:end])
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
