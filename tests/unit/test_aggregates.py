"""Unit tests for aggregation specs and incremental aggregate states."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.events import Event
from repro.queries import AggregateSpec, AggregateState


class TestAggregateSpecConstruction:
    def test_count_star(self):
        spec = AggregateSpec.count_star()
        assert repr(spec) == "COUNT(*)"
        assert not spec.tracks_attribute

    def test_count_event_type_requires_type(self):
        assert AggregateSpec.count("B").event_type == "B"
        with pytest.raises(ValueError):
            AggregateSpec("COUNT")

    def test_attribute_aggregates_require_type_and_attribute(self):
        spec = AggregateSpec.sum("B", "price")
        assert spec.tracks_attribute
        with pytest.raises(ValueError):
            AggregateSpec("SUM", "B")
        with pytest.raises(ValueError):
            AggregateSpec("MIN")

    def test_count_star_rejects_arguments(self):
        with pytest.raises(ValueError):
            AggregateSpec("COUNT(*)", "B")

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            AggregateSpec("MEDIAN", "B", "x")


class TestAggregateStateMonoid:
    def test_zero_and_unit(self):
        assert AggregateState.zero().count == 0
        assert AggregateState.unit().count == 1
        assert AggregateState.zero().is_zero

    def test_merge_adds_counts(self):
        merged = AggregateState(count=2, target_count=1, total=5.0).merge(
            AggregateState(count=3, target_count=2, total=7.0, minimum=1.0, maximum=9.0)
        )
        assert merged.count == 5
        assert merged.target_count == 3
        assert merged.total == 12.0
        assert merged.minimum == 1.0
        assert merged.maximum == 9.0

    def test_merge_is_commutative_and_associative_on_counts(self):
        a = AggregateState(count=1, total=2.0, target_count=1, minimum=2.0, maximum=2.0)
        b = AggregateState(count=4, total=8.0, target_count=4, minimum=1.0, maximum=3.0)
        c = AggregateState(count=2, total=1.0, target_count=2, minimum=0.5, maximum=0.5)
        assert a.merge(b) == b.merge(a)
        assert a.merge(b).merge(c) == a.merge(b.merge(c))

    def test_merge_with_zero_is_identity(self):
        state = AggregateState(count=3, target_count=2, total=4.0, minimum=1.0, maximum=3.0)
        assert state.merge(AggregateState.zero()) == state


class TestAggregateStateExtend:
    def test_extend_count_star_keeps_count(self):
        spec = AggregateSpec.count_star()
        state = AggregateState(count=3).extend(Event("B", 1), spec)
        assert state.count == 3

    def test_extend_tracks_targeted_attribute(self):
        spec = AggregateSpec.sum("B", "price")
        state = AggregateState(count=2).extend(Event("B", 1, {"price": 10.0}), spec)
        assert state.count == 2
        assert state.target_count == 2
        assert state.total == 20.0  # 10 for each of the 2 represented sequences
        assert state.minimum == 10.0 and state.maximum == 10.0

    def test_extend_ignores_untargeted_event(self):
        spec = AggregateSpec.sum("B", "price")
        state = AggregateState(count=2).extend(Event("C", 1, {"price": 10.0}), spec)
        assert state.total == 0.0

    def test_extend_zero_state_is_noop(self):
        spec = AggregateSpec.sum("B", "price")
        assert AggregateState.zero().extend(Event("B", 1, {"price": 3.0}), spec).is_zero


class TestAggregateStateCombine:
    def test_combine_multiplies_counts(self):
        left = AggregateState(count=3)
        right = AggregateState(count=4)
        assert left.combine(right).count == 12

    def test_combine_distributes_totals(self):
        left = AggregateState(count=2, target_count=2, total=6.0, minimum=2.0, maximum=4.0)
        right = AggregateState(count=3, target_count=3, total=9.0, minimum=3.0, maximum=3.0)
        combined = left.combine(right)
        assert combined.count == 6
        # Each left sequence pairs with 3 right sequences and vice versa.
        assert combined.total == 6.0 * 3 + 9.0 * 2
        assert combined.target_count == 2 * 3 + 3 * 2
        assert combined.minimum == 2.0
        assert combined.maximum == 4.0

    def test_combine_with_zero_is_zero(self):
        assert AggregateState(count=5).combine(AggregateState.zero()).is_zero

    def test_scale(self):
        state = AggregateState(count=2, target_count=2, total=4.0)
        scaled = state.scale(3)
        assert scaled.count == 6
        assert scaled.total == 12.0
        assert state.scale(0).is_zero
        with pytest.raises(ValueError):
            state.scale(-1)


#: Attribute cells of one batch bucket: absent (``None``), ints, and floats that
#: are multiples of 0.25 in [-8, 8] (zeros of both signs), so every sum below is
#: exact in any order.
_CELLS = st.one_of(
    st.none(),
    st.integers(min_value=-32, max_value=32),
    st.integers(min_value=-32, max_value=32).map(lambda v: v / 4),
    st.sampled_from([0.0, -0.0]),
)


class TestSummarise:
    """``extend_many(*spec.summarise(type, k, values))`` is the per-event ``extend`` fold."""

    @settings(max_examples=200, deadline=None)
    @given(
        spec=st.sampled_from(
            [
                AggregateSpec.count_star(),
                AggregateSpec.count("A"),
                AggregateSpec.sum("A", "value"),
                AggregateSpec.min("A", "value"),
                AggregateSpec.max("A", "value"),
                AggregateSpec.avg("A", "value"),
            ]
        ),
        # "C": a bucket of a type the spec does not target (the scale path).
        event_type=st.sampled_from(["A", "C"]),
        cells=st.lists(_CELLS, min_size=1, max_size=40),
    )
    def test_fused_summary_equals_the_per_event_extend_fold(self, spec, event_type, cells):
        base = AggregateState(count=3, target_count=2, total=1.5, minimum=-1.0, maximum=2.0)
        # An absent cell is an event without the attribute.
        events = [
            Event(event_type, 0, {} if value is None else {"value": value}, index)
            for index, value in enumerate(cells)
        ]
        merged = AggregateState.zero()
        for event in events:
            merged = merged.merge(base.extend(event, spec))
        fused = base.extend_many(*spec.summarise(event_type, len(cells), iter(cells)))
        assert fused == merged
        assert spec.finalize(fused) == spec.finalize(merged)

    def test_values_are_read_only_for_a_tracked_attribute_of_the_targeted_type(self):
        def unread():
            raise AssertionError("values were read")
            yield  # pragma: no cover - makes this a generator

        count_star, count_a, sum_a = (
            AggregateSpec.count_star(),
            AggregateSpec.count("A"),
            AggregateSpec.sum("A", "value"),
        )
        assert count_star.summarise("A", 2, unread()) == (2, 0, 0.0, None, None)
        assert count_a.summarise("A", 2, unread()) == (2, 2, 0.0, None, None)
        assert sum_a.summarise("C", 2, unread()) == (2, 0, 0.0, None, None)
        assert sum_a.summarise("A", 3, [None, 2, 0.5]) == (3, 3, 2.5, 0.5, 2.0)


class TestFinalize:
    def _state(self):
        return AggregateState(count=4, target_count=3, total=30.0, minimum=5.0, maximum=20.0)

    def test_finalize_each_kind(self):
        state = self._state()
        assert AggregateSpec.count_star().finalize(state) == 4
        assert AggregateSpec.count("B").finalize(state) == 3
        assert AggregateSpec.sum("B", "x").finalize(state) == 30.0
        assert AggregateSpec.min("B", "x").finalize(state) == 5.0
        assert AggregateSpec.max("B", "x").finalize(state) == 20.0
        assert AggregateSpec.avg("B", "x").finalize(state) == pytest.approx(10.0)

    def test_avg_of_empty_is_none(self):
        assert AggregateSpec.avg("B", "x").finalize(AggregateState.zero()) is None


class TestEvaluateSequences:
    def test_count_star_over_sequences(self):
        spec = AggregateSpec.count_star()
        sequences = [
            (Event("A", 1), Event("B", 2)),
            (Event("A", 1), Event("B", 4)),
        ]
        assert spec.evaluate_sequences(sequences) == 2

    def test_sum_over_sequences(self):
        spec = AggregateSpec.sum("B", "price")
        sequences = [
            (Event("A", 1), Event("B", 2, {"price": 10.0})),
            (Event("A", 1), Event("B", 4, {"price": 5.0})),
        ]
        assert spec.evaluate_sequences(sequences) == 15.0

    def test_min_max_over_sequences(self):
        sequences = [
            (Event("A", 1, {"x": 3.0}), Event("B", 2, {"x": 10.0})),
            (Event("A", 1, {"x": 3.0}), Event("B", 4, {"x": 5.0})),
        ]
        assert AggregateSpec.min("B", "x").evaluate_sequences(sequences) == 5.0
        assert AggregateSpec.max("B", "x").evaluate_sequences(sequences) == 10.0

    def test_empty_sequence_set(self):
        assert AggregateSpec.count_star().evaluate_sequences([]) == 0
        assert AggregateSpec.sum("B", "x").evaluate_sequences([]) == 0.0
