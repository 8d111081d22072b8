"""The numpy kernel backend: seam resolution, parity, and overflow promotion.

Three concerns, mirroring the design contract of
:mod:`repro.executor.kernels`:

1. **The seam.**  ``resolve_backend`` must accept exactly the documented
   names, fall back cleanly under ``"auto"``, and fail fast (at engine
   construction) with an actionable message when ``"numpy"`` is requested
   without the optional dependency.  These tests run with and without numpy
   (the no-numpy behaviour is pinned by hiding numpy in ``sys.modules``, so
   both CI legs cover both sides), and a python-backend process never loads
   numpy at all.
2. **Differential parity.**  Randomised operation sequences — appends,
   batch commits (scale, COUNT, and attribute summaries), cohort merges,
   export/restore — drive the numpy columns and the pure-Python reference
   columns side by side and require *equality of every observable*: deltas,
   touched counts, boxed states, and the canonical exports whose bytes feed
   the checkpoint hash.
3. **Exact arithmetic.**  Commits that push counts past ``2**63 - 1`` must
   promote to the big-int representation *before* any value wraps, keep
   producing exact results, and export/restore across backends without loss.
"""

from __future__ import annotations

import os
import random
import subprocess
import sys

import pytest

from repro.events import Event
from repro.executor.kernels import (
    BACKENDS,
    I64_MAX,
    NumpyCountColumns,
    NumpyStateColumns,
    make_summariser,
    numpy_available,
    resolve_backend,
    summarise_values,
)
from repro.executor.prefix_agg import _CountColumns, _StateColumns
from repro.queries import AggregateSpec
from repro.queries.aggregates import AggregateState

requires_numpy = pytest.mark.skipif(
    not numpy_available(), reason="the optional numpy dependency is not installed"
)


# -- the seam ---------------------------------------------------------------------


def test_backends_tuple_is_the_documented_contract():
    assert BACKENDS == ("python", "numpy", "auto")
    assert I64_MAX == 2**63 - 1


def test_resolve_backend_python_is_always_available():
    assert resolve_backend("python") == "python"


def test_resolve_backend_rejects_unknown_names():
    with pytest.raises(ValueError, match="unknown backend"):
        resolve_backend("cupy")


def test_resolve_backend_is_idempotent():
    """Resolved names resolve to themselves (the engine double-resolves)."""
    assert resolve_backend(resolve_backend("auto")) == resolve_backend("auto")


@requires_numpy
def test_resolve_backend_auto_prefers_numpy():
    assert resolve_backend("auto") == "numpy"
    assert resolve_backend("numpy") == "numpy"


def test_resolve_backend_without_numpy(monkeypatch):
    """Pinned no-numpy behaviour: auto falls back, numpy fails actionably."""
    monkeypatch.setitem(sys.modules, "numpy", None)  # what find_spec reports as absent
    assert not numpy_available()
    assert resolve_backend("auto") == "python"
    with pytest.raises(RuntimeError, match=r"repro\[numpy\]"):
        resolve_backend("numpy")


def test_python_backend_runs_never_import_numpy():
    """The bench worker's imports (and a python-backend engine) leave numpy unloaded."""
    code = (
        "import sys\n"
        "from repro.cli import load_workload\n"
        "from repro.replay import ReplayRunner\n"
        "from repro.executor.kernels import resolve_backend\n"
        "assert resolve_backend('python') == 'python'\n"
        "loaded = [m for m in ('numpy', 'multiprocessing', 'repro.experiments', 'repro.datasets')"
        " if m in sys.modules]\n"
        "assert not loaded, loaded\n"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr


def test_make_summariser_python_is_the_scalar_reference():
    spec = AggregateSpec.sum("A", "value")
    events = [Event("A", 0, {"value": float(i)}, i) for i in range(20)]
    assert make_summariser("python")(spec, events) == spec.summarise_batch(events)


# -- batch summarisation parity ---------------------------------------------------


def _random_events(rng: random.Random, n: int, with_none: bool = True) -> list[Event]:
    events = []
    for i in range(n):
        attrs = {}
        if not with_none or rng.random() > 0.2:
            attrs["value"] = rng.choice(
                [0.0, -0.0, 1.5, -7.25, 1e16, -1e16, 0.1, rng.uniform(-1e6, 1e6)]
            )
        events.append(Event("A", 0, attrs, i))
    return events


@requires_numpy
@pytest.mark.parametrize("kind", ["sum", "min", "max", "avg"])
def test_numpy_summariser_matches_scalar_reference(kind):
    """The vectorised summary equals summarise_batch bit for bit.

    Exercises both the tiny-batch delegation (below the vector threshold)
    and the vectorised path, with ``None`` holes and signed zeros in the
    value column.
    """
    spec = getattr(AggregateSpec, kind)("A", "value")
    summarise = make_summariser("numpy")
    rng = random.Random(7)
    for n in (1, 2, 15, 16, 17, 64, 257):
        events = _random_events(rng, n)
        expected = spec.summarise_batch(events)
        got = summarise(spec, events)
        assert got == expected
        # Equality of floats is not enough for the checkpoint hash: require
        # identical signs on zero totals too.
        assert repr(got) == repr(expected)


@requires_numpy
def test_numpy_summariser_count_paths_delegate():
    """COUNT(*) and COUNT(E) never build arrays (nothing to reduce)."""
    events = [Event("A", 0, {"value": 1.0}, i) for i in range(32)]
    for spec in (AggregateSpec.count_star(), AggregateSpec.count("A")):
        assert make_summariser("numpy")(spec, events) == spec.summarise_batch(events)


@requires_numpy
def test_summarise_values_matches_python_twin():
    spec = AggregateSpec.sum("A", "value")
    rng = random.Random(11)
    for n in (1, 3, 40):
        values = [None if rng.random() < 0.3 else rng.uniform(-100, 100) for _ in range(n)]
        assert summarise_values(spec, n, values) == spec.summarise_values(n, values)
    assert summarise_values(spec, 5, [None] * 5) == spec.summarise_values(5, [None] * 5)


# -- differential parity: count columns -------------------------------------------


def _random_summary(rng: random.Random):
    """A random ``(k, targeted, total, min, max)`` batch summary."""
    k = rng.randint(1, 5)
    shape = rng.random()
    if shape < 0.3:  # scale path: batch carries no targeted events
        return (k, 0, 0.0, None, None)
    if shape < 0.5:  # COUNT path: targeted but no tracked attribute
        return (k, k, 0.0, None, None)
    values = [rng.uniform(-50, 50) for _ in range(k)]
    total = 0.0
    for value in values:
        total += value
    return (k, k, total, min(values), max(values))


def _assert_count_columns_equal(vectorised: NumpyCountColumns, reference: _CountColumns):
    assert vectorised.export_columns() == reference.export_columns()
    for position in range(len(reference.columns)):
        assert [s.as_tuple() for s in vectorised.column_states(position)] == [
            s.as_tuple() for s in reference.column_states(position)
        ]


@requires_numpy
def test_count_columns_parity_fuzz():
    """200 random ops: every observable of the two backends stays equal."""
    rng = random.Random(42)
    length = 4
    vectorised, reference = NumpyCountColumns(length), _CountColumns(length)
    for step in range(200):
        op = rng.random()
        if op < 0.35:
            initial = AggregateState(count=rng.randint(1, 9))
            vectorised.append_cohort(initial)
            reference.append_cohort(initial)
        elif op < 0.85 and reference.columns[0]:
            position = rng.randint(1, length - 1)
            summary = (rng.randint(1, 5), 0, 0.0, None, None)
            collect = rng.random() < 0.4
            got = vectorised.extend_commit(position, summary, collect)
            expected = reference.extend_commit(position, summary, collect)
            assert got[1] == expected[1]
            if collect:
                assert [(c, s.as_tuple()) for c, s in got[0]] == [
                    (c, s.as_tuple()) for c, s in expected[0]
                ]
            else:
                assert got[0] is None and expected[0] is None
        elif reference.columns[0]:
            cohort = rng.randrange(len(reference.columns[0]))
            addition = AggregateState(count=rng.randint(1, 9))
            vectorised.add_to_cohort(cohort, addition)
            reference.add_to_cohort(cohort, addition)
        _assert_count_columns_equal(vectorised, reference)
    vectorised.clear()
    reference.clear()
    _assert_count_columns_equal(vectorised, reference)


@requires_numpy
def test_count_columns_promote_past_int64():
    """Multiplicative blow-up past 2**63 stays exact on both backends."""
    length = 3
    vectorised, reference = NumpyCountColumns(length), _CountColumns(length)
    for columns in (vectorised, reference):
        columns.append_cohort(AggregateState(count=2**40))
        columns.append_cohort(AggregateState(count=3))
    summary = (1000, 0, 0.0, None, None)
    for _ in range(5):  # 2**40 * 1000**2 > 2**63 well before the last round
        vectorised.extend_commit(1, summary, False)
        reference.extend_commit(1, summary, False)
        vectorised.extend_commit(2, summary, True)
        reference.extend_commit(2, summary, True)
    exported = vectorised.export_columns()
    assert exported == reference.export_columns()
    assert max(exported[2]) > I64_MAX, "the scenario never forced a promotion"


@requires_numpy
def test_count_columns_add_to_cohort_promotes_past_int64():
    """Coalesced START counts crossing 2**63-1 stay exact on both backends."""
    vectorised, reference = NumpyCountColumns(2), _CountColumns(2)
    for columns in (vectorised, reference):
        columns.append_cohort(AggregateState(count=I64_MAX - 1))
        columns.append_cohort(AggregateState(count=7))
        columns.add_to_cohort(0, AggregateState(count=1))  # lands exactly on the bound
        assert not isinstance(columns.columns[0], list), "promoted too early"
        assert columns.state_at(0, 0).count == I64_MAX
        columns.add_to_cohort(0, AggregateState(count=5))  # crosses it
        assert isinstance(columns.columns[0], list), "the column never promoted"
        assert columns.state_at(0, 0).count == I64_MAX + 5
        columns.add_to_cohort(1, AggregateState(count=2**64))  # promoted column keeps adding
        assert columns.state_at(0, 1).count == 2**64 + 7
        # Extensions read the coalesced big-int cell exactly.
        columns.extend_commit(1, (3, 0, 0.0, None, None), False)
        assert columns.state_at(1, 0).count == 3 * (I64_MAX + 5)
    assert vectorised.export_columns() == reference.export_columns()


@requires_numpy
def test_count_columns_restore_roundtrips_promoted_state():
    """Exports with big-int cells restore into either backend exactly."""
    huge = [[2**70, 1], [0, 2**64], [5, 6]]
    vectorised, reference = NumpyCountColumns(3), _CountColumns(3)
    vectorised.append_cohort(AggregateState(count=1))
    vectorised.append_cohort(AggregateState(count=1))
    reference.append_cohort(AggregateState(count=1))
    reference.append_cohort(AggregateState(count=1))
    vectorised.restore_columns(huge)
    reference.restore_columns(huge)
    assert vectorised.export_columns() == huge == reference.export_columns()
    summary = (2, 0, 0.0, None, None)
    got_deltas, got_touched = vectorised.extend_commit(1, summary, True)
    expected_deltas, expected_touched = reference.extend_commit(1, summary, True)
    assert got_touched == expected_touched
    assert [(c, s.as_tuple()) for c, s in got_deltas] == [
        (c, s.as_tuple()) for c, s in expected_deltas
    ]
    assert vectorised.export_columns() == reference.export_columns()


# -- differential parity: state columns -------------------------------------------


def _assert_state_columns_equal(vectorised: NumpyStateColumns, reference: _StateColumns):
    got = vectorised.export_columns()
    expected = reference.export_columns()
    assert repr(got) == repr(expected)  # bitwise: -0.0 != repr of 0.0
    for position in range(len(reference.columns)):
        assert [s.as_tuple() for s in vectorised.column_states(position)] == [
            s.as_tuple() for s in reference.column_states(position)
        ]


@requires_numpy
def test_state_columns_parity_fuzz():
    """300 random ops over attribute-tracking states stay bit-identical."""
    rng = random.Random(1729)
    length = 4
    vectorised, reference = NumpyStateColumns(length), _StateColumns(length)
    for step in range(300):
        op = rng.random()
        if op < 0.3:
            k, targeted, total, minimum, maximum = _random_summary(rng)
            initial = AggregateState.unit().extend_many(k, targeted, total, minimum, maximum)
            vectorised.append_cohort(initial)
            reference.append_cohort(initial)
        elif op < 0.85 and reference.columns[0]:
            position = rng.randint(1, length - 1)
            summary = _random_summary(rng)
            collect = rng.random() < 0.4
            got = vectorised.extend_commit(position, summary, collect)
            expected = reference.extend_commit(position, summary, collect)
            assert got[1] == expected[1]
            if collect:
                assert repr([(c, s.as_tuple()) for c, s in got[0]]) == repr(
                    [(c, s.as_tuple()) for c, s in expected[0]]
                )
        elif reference.columns[0]:
            cohort = rng.randrange(len(reference.columns[0]))
            addition = AggregateState.unit().extend_many(*_random_summary(rng))
            vectorised.add_to_cohort(cohort, addition)
            reference.add_to_cohort(cohort, addition)
        _assert_state_columns_equal(vectorised, reference)


@requires_numpy
def test_state_columns_promote_counts_past_int64():
    """Sequence counts past 2**63 promote; totals stay float-exact."""
    length = 3
    vectorised, reference = NumpyStateColumns(length), _StateColumns(length)
    initial = AggregateState(count=2**41, target_count=1, total=2.5, minimum=2.5, maximum=2.5)
    for columns in (vectorised, reference):
        columns.append_cohort(initial)
    summary = (1 << 12, 1 << 12, 4096.0, 1.0, 1.0)
    for _ in range(3):
        vectorised.extend_commit(1, summary, False)
        reference.extend_commit(1, summary, False)
        vectorised.extend_commit(2, summary, True)
        reference.extend_commit(2, summary, True)
    got = vectorised.export_columns()
    assert repr(got) == repr(reference.export_columns())
    assert any(cell[0] > I64_MAX for cell in got[2]), "no promotion was forced"


@requires_numpy
@pytest.mark.parametrize("kind", ["sum", "min", "max"])
def test_state_columns_add_to_cohort_promotes_past_int64(kind):
    """Coalescing SUM/MIN/MAX cells past 2**63-1 promotes without losing a bit."""
    spec = getattr(AggregateSpec, kind)("A", "value")
    vectorised, reference = NumpyStateColumns(2), _StateColumns(2)
    near = AggregateState(
        count=I64_MAX - 2, target_count=I64_MAX - 2, total=1.5, minimum=-4.0, maximum=8.0
    )
    small = AggregateState.unit().extend_many(2, 2, 0.75, -9.5, 0.25)
    for columns in (vectorised, reference):
        columns.append_cohort(near)
        columns.append_cohort(small)
        columns.add_to_cohort(0, small)  # count == I64_MAX: still fits
        columns.add_to_cohort(0, small)  # count == I64_MAX + 2: promotes
        columns.add_to_cohort(1, near)  # the other cell promotes with it
        merged = columns.state_at(0, 0)
        assert merged.as_tuple() == (I64_MAX + 2, I64_MAX + 2, 3.0, -9.5, 8.0)
        assert spec.finalize(merged) == {"sum": 3.0, "min": -9.5, "max": 8.0}[kind]
        assert columns.state_at(0, 1).count == I64_MAX
        columns.extend_commit(1, (2, 2, 1.0, 0.5, 0.5), True)
        assert columns.state_at(1, 0).count == 2 * (I64_MAX + 2)
    assert 0 in vectorised._big, "the numpy position never promoted"
    assert repr(vectorised.export_columns()) == repr(reference.export_columns())


@requires_numpy
def test_state_columns_restore_roundtrips_across_backends():
    """A python-side export restores into the numpy columns and back."""
    rng = random.Random(5)
    reference = _StateColumns(3)
    for _ in range(4):
        reference.append_cohort(AggregateState.unit().extend_many(*_random_summary(rng)))
    for _ in range(6):
        reference.extend_commit(rng.randint(1, 2), _random_summary(rng), False)
    snapshot = reference.export_columns()
    vectorised = NumpyStateColumns(3)
    vectorised.restore_columns(snapshot)
    assert repr(vectorised.export_columns()) == repr(snapshot)
    back = _StateColumns(3)
    back.restore_columns(vectorised.export_columns())
    assert repr(back.export_columns()) == repr(snapshot)


