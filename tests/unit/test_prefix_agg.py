"""Unit tests for the online prefix-aggregation building blocks."""

from __future__ import annotations

import pytest

from repro.executor import PrivateSegmentState, SharedSegmentState
from repro.queries import AggregateSpec, AggregateState, Pattern

from ..conftest import kernel_batches, make_events

COUNT = AggregateSpec.count_star()


def feed(state, rows, carry=AggregateState.unit):
    """Feed events batched by timestamp into a private segment state."""
    for batch, by_type in kernel_batches(make_events(rows)):
        state.stage_batch(batch, by_type, carry)
        state.commit()


def feed_shared(state, rows, runner=None, carry=AggregateState.unit):
    """Feed timestamp batches into a shared state (and one registered runner)."""
    for batch, by_type in kernel_batches(make_events(rows)):
        state.stage_batch(batch, by_type)
        if runner is not None:
            runner.stage_batch(batch, by_type, carry)
        state.commit()


def completed(state, spec, cohort):
    """The aggregate over complete matches of ``state``'s pattern in cohort (column) ``cohort``."""
    family = state._families[state.specs.index(spec)]
    return family.state_at(len(state.pattern) - 1, cohort)


def feed_anchored(state, spec, rows):
    """Feed ``rows`` with a runner whose carry grows, so every START batch keeps a cohort."""
    from repro.executor import SharedSegmentRunner

    upstream = iter(range(1, len(rows) + 1))
    runner = SharedSegmentRunner(state, spec)
    feed_shared(state, rows, runner, lambda: AggregateState(count=next(upstream)))
    return runner


class TestPrivateSegmentState:
    def test_figure_6a_prefix_counting(self):
        """Figure 6(a): count(A, B) over a1 b2 a3 b4 b5 is 1, 3, 5."""
        state = PrivateSegmentState(Pattern(["A", "B"]), COUNT)
        feed(state, [("A", 1)])
        assert state.chain_value().count == 0
        feed(state, [("B", 2)])
        assert state.chain_value().count == 1
        feed(state, [("A", 3)])
        assert state.chain_value().count == 1
        feed(state, [("B", 4)])
        assert state.chain_value().count == 3
        feed(state, [("B", 5)])
        assert state.chain_value().count == 5

    def test_irrelevant_events_ignored(self):
        state = PrivateSegmentState(Pattern(["A", "B"]), COUNT)
        feed(state, [("A", 1), ("X", 2), ("B", 3), ("Y", 4)])
        assert state.chain_value().count == 1

    def test_same_timestamp_events_do_not_chain(self):
        state = PrivateSegmentState(Pattern(["A", "B"]), COUNT)
        feed(state, [("A", 1), ("B", 1)])
        assert state.chain_value().count == 0
        feed(state, [("B", 2)])
        assert state.chain_value().count == 1

    def test_carry_scales_new_start_events(self):
        # The carry represents 3 upstream matches completed so far.
        state = PrivateSegmentState(Pattern(["A", "B"]), COUNT)
        carry = lambda: AggregateState(count=3)
        feed(state, [("A", 1), ("B", 2)], carry=carry)
        assert state.chain_value().count == 3

    def test_length_one_segment(self):
        state = PrivateSegmentState(Pattern(["A"]), COUNT)
        feed(state, [("A", 1), ("A", 2), ("B", 3)])
        assert state.chain_value().count == 2

    def test_repeated_type_in_segment(self):
        state = PrivateSegmentState(Pattern(["A", "A"]), COUNT)
        feed(state, [("A", 1), ("A", 2), ("A", 3)])
        # Matches: (a1,a2), (a1,a3), (a2,a3).
        assert state.chain_value().count == 3

    def test_sum_aggregate_tracked(self):
        spec = AggregateSpec.sum("B", "price")
        state = PrivateSegmentState(Pattern(["A", "B"]), spec)
        feed(
            state,
            [("A", 1), ("B", 2, {"price": 10.0}), ("B", 3, {"price": 5.0})],
        )
        # Sequences (a1,b2) and (a1,b3): total price 15.
        value = state.chain_value()
        assert value.count == 2
        assert value.total == 15.0

    def test_updates_counter_increments(self):
        state = PrivateSegmentState(Pattern(["A", "B"]), COUNT)
        feed(state, [("A", 1), ("B", 2), ("B", 3)])
        assert state.updates == 3

    def test_commit_without_stage_is_noop(self):
        state = PrivateSegmentState(Pattern(["A", "B"]), COUNT)
        state.commit()
        assert state.chain_value().count == 0


class TestSharedSegmentState:
    def test_anchor_per_start_event(self):
        """Figure 7: counts are maintained per START event of the shared pattern."""
        state = SharedSegmentState(Pattern(["C", "D"]), [COUNT])
        feed_anchored(state, COUNT, [("C", 3), ("D", 4), ("C", 7), ("D", 8)])
        assert state.cohort_count == 2
        assert completed(state, COUNT, 0).count == 2  # (c3,d4), (c3,d8)
        assert completed(state, COUNT, 1).count == 1  # (c7,d8)
        assert state.total_completed(COUNT).count == 3

    def test_requires_at_least_one_spec(self):
        with pytest.raises(ValueError):
            SharedSegmentState(Pattern(["A", "B"]), [])

    def test_rows_of_other_types_stage_nothing(self):
        state = SharedSegmentState(Pattern(["A", "B"]), [COUNT])
        feed_shared(state, [("X", 1), ("Y", 2)])
        assert state.cohort_count == 0 and state.cohorts_created == 0 and state.updates == 0

    def test_multiple_specs_tracked_independently(self):
        total = AggregateSpec.sum("D", "price")
        state = SharedSegmentState(Pattern(["C", "D"]), [COUNT, total])
        feed_shared(state, [("C", 1), ("D", 2, {"price": 4.0}), ("D", 3, {"price": 6.0})])
        assert state.total_completed(COUNT).count == 2
        assert state.total_completed(total).total == 10.0

    def test_same_timestamp_anchor_not_extended_by_batch(self):
        state = SharedSegmentState(Pattern(["C", "D"]), [COUNT])
        feed_shared(state, [("C", 5), ("D", 5)])
        assert state.total_completed(COUNT).count == 0

    def test_duplicate_specs_deduplicated(self):
        state = SharedSegmentState(Pattern(["C", "D"]), [COUNT, COUNT])
        assert state.specs == (COUNT,)

    def test_attribute_spec_columns_match_per_event_semantics(self):
        """The fused (vectorised) column update equals per-event extend/merge."""
        total = AggregateSpec.sum("D", "price")
        state = SharedSegmentState(Pattern(["C", "D"]), [total])
        feed_anchored(
            state,
            total,
            [
                ("C", 1),
                ("D", 2, {"price": 4.0}),
                ("D", 2, {"price": 6.0}),  # same-timestamp batch of two D events
                ("C", 3),
                ("D", 4, {"price": 1.0}),
            ],
        )
        # Matches per anchor: c1 -> (c1,d2a), (c1,d2b), (c1,d4); c3 -> (c3,d4).
        first, second = completed(state, total, 0), completed(state, total, 1)
        assert first.count == 3
        assert first.total == 11.0
        assert first.minimum == 1.0
        assert first.maximum == 6.0
        assert second.total == 1.0
        assert state.total_completed(total).total == 12.0


@pytest.mark.parametrize(
    "spec",
    [
        COUNT,
        AggregateSpec.count("B"),
        AggregateSpec.sum("B", "value"),
        AggregateSpec.min("B", "value"),
        AggregateSpec.max("B", "value"),
        AggregateSpec.avg("B", "value"),
    ],
    ids=["count_star", "count", "sum", "min", "max", "avg"],
)
def test_private_and_shared_segments_agree_with_brute_force(spec):
    """Both segment states summarise each batch once and equal enumerated matches.

    Same-timestamp batches of several targeted events, targeted events
    without the attribute, and signed zeros go through one batch summary
    per position; every value is a multiple of 0.25, so sums are exact in
    any order.
    """
    from itertools import combinations

    pattern = Pattern(["A", "B", "C"])
    rows = [
        ("A", 1),
        ("B", 2, {"value": 1.5}),
        ("B", 2, {"value": -0.0}),
        ("B", 2),
        ("A", 3),
        ("C", 3),
        ("B", 4, {"value": -2.25}),
        ("C", 5),
        ("A", 5),
        ("B", 6, {"value": 0.0}),
        ("B", 6, {"value": 4.0}),
        ("C", 7),
        ("C", 7),
    ]
    private = PrivateSegmentState(pattern, spec)
    feed(private, rows)
    shared = SharedSegmentState(pattern, [spec])
    feed_shared(shared, rows)
    matches = [
        triple
        for triple in combinations(make_events(rows), 3)
        if [event.event_type for event in triple] == ["A", "B", "C"]
        and triple[0].timestamp < triple[1].timestamp < triple[2].timestamp
    ]
    assert len(matches) > 10
    expected = spec.evaluate_sequences(matches)
    assert spec.finalize(private.chain_value()) == expected
    assert spec.finalize(shared.total_completed(spec)) == expected
    assert private.chain_value() == shared.total_completed(spec)


class TestCohortCoalescing:
    """Eager coalescing: live cohorts = distinct carry tuples after every commit."""

    def make_runner(self, state):
        from repro.executor import SharedSegmentRunner

        return SharedSegmentRunner(state, COUNT)

    def test_equal_carry_start_batches_join_the_newest_cohort(self):
        state = SharedSegmentState(Pattern(["C", "D"]), [COUNT])
        runner = self.make_runner(state)
        feed_shared(state, [("C", 1), ("C", 3), ("D", 4), ("C", 5), ("D", 6)], runner)
        assert state.cohort_count == 1
        assert runner.carries == [AggregateState.unit()]
        assert (state.cohorts_created, state.cohorts_merged) == (3, 2)
        # (c1,d4) (c3,d4) (c1,d6) (c3,d6) (c5,d6)
        assert state.total_completed(COUNT).count == 5
        assert runner.chain_value().count == 5

    def test_coalesced_state_equals_the_per_anchor_sum(self):
        """Every read of a coalescing state equals the sum over its START events.

        Coalescing is lossless by distributivity: ``c ⊗ (d1 ⊕ d2) = c ⊗ d1 ⊕
        c ⊗ d2``.  The reference enumerates every (C, D) match and weighs it
        with the carry its C event's batch staged.
        """
        rows = [("C", 1), ("C", 2), ("C", 3), ("D", 4), ("D", 5), ("C", 6), ("D", 7)]
        carry_at = {1: 1, 2: 1, 3: 2, 6: 2}  # one per START batch, non-decreasing
        state = SharedSegmentState(Pattern(["C", "D"]), [COUNT])
        runner = self.make_runner(state)
        upstream = iter(carry_at.values())
        feed_shared(state, rows, runner, lambda: AggregateState(count=next(upstream)))
        matches = [
            (c_at, d_at)
            for c, c_at in rows
            if c == "C"
            for d, d_at in rows
            if d == "D" and c_at < d_at
        ]
        assert state.total_completed(COUNT).count == len(matches) == 10
        weighted = sum(carry_at[c_at] for c_at, _d_at in matches)
        assert runner.chain_value().count == weighted == 14
        assert [carry.count for carry in runner.carries] == [1, 2]
        assert state.cohort_count == 2
        assert (state.cohorts_created, state.cohorts_merged) == (4, 2)

    def test_distinct_carries_keep_their_cohorts(self):
        state = SharedSegmentState(Pattern(["C", "D"]), [COUNT])
        runner = self.make_runner(state)
        carries = iter([AggregateState(count=1), AggregateState(count=2)])
        feed_shared(state, [("C", 1), ("C", 3)], runner, lambda: next(carries))
        assert state.cohort_count == 2
        assert state.cohorts_merged == 0

    def test_every_registered_runner_must_agree(self):
        """One runner whose carry moved is enough to open a new cohort."""
        state = SharedSegmentState(Pattern(["C", "D"]), [COUNT])
        steady, moving = self.make_runner(state), self.make_runner(state)
        moving_carries = iter([1, 1, 2])
        for batch, by_type in kernel_batches(make_events([("C", t) for t in (1, 2, 3)])):
            state.stage_batch(batch, by_type)
            steady.stage_batch(batch, by_type, AggregateState.unit)
            moving.stage_batch(batch, by_type, lambda: AggregateState(count=next(moving_carries)))
            state.commit()
        assert state.cohort_count == 2
        assert [carry.count for carry in steady.carries] == [1, 1]
        assert [carry.count for carry in moving.carries] == [1, 2]

    def test_without_runners_everything_coalesces(self):
        """No carry-bearing runner (all sharing queries prefix-free): one cohort."""
        state = SharedSegmentState(Pattern(["C", "D"]), [COUNT])
        feed_shared(state, [("C", 1), ("C", 2), ("C", 3), ("D", 4)])
        assert state.cohort_count == 1
        assert state.total_completed(COUNT).count == 3
        assert (state.cohorts_created, state.cohorts_merged) == (3, 2)

    def test_reset_clears_cohort_counters(self):
        state = SharedSegmentState(Pattern(["C", "D"]), [COUNT])
        runner = self.make_runner(state)
        feed_shared(state, [("C", t) for t in range(1, 10)], runner)
        assert state.cohorts_merged == 8
        state.reset()
        runner.reset()
        assert state.cohort_count == 0
        assert state.cohorts_created == 0
        assert state.cohorts_merged == 0
        assert runner.carries == []
        assert runner.chain_value().count == 0

    def test_restore_ignores_lazy_compaction_fields(self):
        """Snapshots from the lazy-scan era carry two extra keys; both are dropped."""
        state = SharedSegmentState(Pattern(["C", "D"]), [COUNT])
        feed_shared(state, [("C", 1), ("D", 2)])
        snapshot = state.export_state()
        assert "compact_threshold" not in snapshot and "compactions" not in snapshot
        legacy = dict(snapshot, compact_threshold=16, compactions=3)
        restored = SharedSegmentState(Pattern(["C", "D"]), [COUNT])
        restored.restore_state(legacy)
        assert restored.export_state() == snapshot


class TestCountColumnOverflow:
    """Count columns stay exact past 2^63: prefix counts compound multiplicatively."""

    def _columns(self, length=2):
        from repro.executor.prefix_agg import _CountColumns

        return _CountColumns(length)

    def test_extend_commit_promotes_past_int64(self):
        columns = self._columns()
        columns.append_cohort(AggregateState(count=2**40))
        summary = (2**30, 0, 0.0, None, None)  # k = 2^30 batch events
        deltas, applied = columns.extend_commit(1, summary, True)
        # 2^40 * 2^30 = 2^70 > 2^63 - 1: the column must hold the exact value.
        assert columns.state_at(1, 0).count == 2**70
        assert isinstance(columns.columns[1], list)
        assert deltas == [(0, AggregateState(count=2**70))]
        # Another commit keeps compounding exactly on the promoted column.
        columns.extend_commit(1, summary, False)
        assert columns.state_at(1, 0).count == 2**70 + 2**70

    def test_append_cohort_promotes_oversized_initial(self):
        columns = self._columns()
        columns.append_cohort(AggregateState(count=2**70))
        assert isinstance(columns.columns[0], list)
        assert columns.state_at(0, 0).count == 2**70

    def test_add_to_cohort_promotes_oversized_sum(self):
        columns = self._columns()
        big = 2**62
        columns.append_cohort(AggregateState(count=big))
        columns.add_to_cohort(0, AggregateState(count=big - 1))
        assert columns.state_at(0, 0).count == 2**63 - 1  # the largest signed 64-bit value
        columns.add_to_cohort(0, AggregateState(count=big))
        assert columns.state_at(0, 0).count == 3 * big - 1  # > 2^63 - 1
        assert isinstance(columns.columns[0], list)
        # Extensions of the coalesced cohort read the exact big-int cell.
        columns.extend_commit(1, (2, 0, 0.0, None, None), False)
        assert columns.state_at(1, 0).count == 2 * (3 * big - 1)

    @pytest.mark.parametrize("kind", ["sum", "min", "max"])
    def test_state_columns_add_to_cohort_is_exact_past_int64(self, kind):
        """Boxed SUM/MIN/MAX cells coalesce in unbounded ints and exact floats."""
        from repro.executor.prefix_agg import _StateColumns

        spec = getattr(AggregateSpec, kind)("A", "value")
        columns = _StateColumns(2)
        near = AggregateState(2**63 - 3, 2**63 - 3, 1.5, -4.0, 8.0)
        columns.append_cohort(near)
        for _ in range(2):
            columns.add_to_cohort(0, AggregateState.unit().extend_many(2, 2, 0.75, -9.5, 0.25))
        merged = columns.state_at(0, 0)
        assert merged.as_tuple() == (2**63 + 1, 2**63 + 1, 3.0, -9.5, 8.0)
        assert spec.finalize(merged) == {"sum": 3.0, "min": -9.5, "max": 8.0}[kind]

    def test_clear_empties_every_column(self):
        columns = self._columns()
        columns.append_cohort(AggregateState(count=2**70))
        columns.clear()
        assert all(len(column) == 0 for column in columns.columns)

    def test_promoted_and_array_columns_agree_with_reference(self):
        """Values across the int64 boundary match plain-int arithmetic."""
        columns = self._columns(3)
        reference = [[], [], []]
        columns.append_cohort(AggregateState(count=2**31))
        reference[0].append(2**31)
        reference[1].append(0)
        reference[2].append(0)
        summary = (2**20, 0, 0.0, None, None)
        for position in (1, 2, 1, 2, 2):
            columns.extend_commit(position, summary, False)
            for cohort, base in enumerate(reference[position - 1]):
                if base:
                    reference[position][cohort] += 2**20 * base
        for position in range(3):
            assert [columns.state_at(position, 0).count] == reference[position]


class TestColumnLayoutsAgree:
    """The COUNT(*) fast path and the boxed state columns hold the same counts.

    ``_CountColumns`` stores bare sequence counts (exact Python ints);
    ``_StateColumns`` stores whole
    ``AggregateState`` cells.  On COUNT(*) summaries — ``extend`` is the
    identity, so every batch only scales — the two must agree on every
    observable: deltas, update counts, cell states and exported counts.
    """

    @staticmethod
    def _assert_layouts_equal(counts, states):
        exported = counts.export_columns()
        assert exported == [[cell[0] for cell in column] for column in states.export_columns()]
        for position, column in enumerate(states.columns):
            for cohort in range(len(column)):
                assert counts.state_at(position, cohort).as_tuple() == column[cohort].as_tuple()

    def test_layout_is_chosen_by_aggregate_kind(self):
        """COUNT(*) gets the count columns; every other kind the state columns."""
        from repro.executor.prefix_agg import _CountColumns, _make_columns, _StateColumns

        assert type(_make_columns(COUNT, 3)) is _CountColumns
        for spec in (
            AggregateSpec.count("A"),
            AggregateSpec.sum("A", "value"),
            AggregateSpec.min("A", "value"),
            AggregateSpec.max("A", "value"),
            AggregateSpec.avg("A", "value"),
        ):
            columns = _make_columns(spec, 3)
            assert type(columns) is _StateColumns and len(columns.columns) == 3

    def test_random_operations_agree(self):
        import random

        from repro.executor.prefix_agg import _CountColumns, _StateColumns

        rng = random.Random(42)
        length = 4
        counts, states = _CountColumns(length), _StateColumns(length)
        for _ in range(200):
            op = rng.random()
            if op < 0.35:
                # Occasionally huge, so later extensions cross 2^63 - 1.
                initial = AggregateState(count=rng.choice([rng.randint(1, 9), 2**58 + 1]))
                counts.append_cohort(initial)
                states.append_cohort(initial)
            elif op < 0.85 and states.columns[0]:
                position = rng.randint(1, length - 1)
                summary = (rng.randint(1, 5), 0, 0.0, None, None)
                collect = rng.random() < 0.4
                got = counts.extend_commit(position, summary, collect)
                expected = states.extend_commit(position, summary, collect)
                assert got[1] == expected[1]
                if collect:
                    assert [(c, s.as_tuple()) for c, s in got[0]] == [
                        (c, s.as_tuple()) for c, s in expected[0]
                    ]
                else:
                    assert got[0] is None and expected[0] is None
            elif states.columns[0]:
                cohort = rng.randrange(len(states.columns[0]))
                addition = AggregateState(count=rng.randint(1, 9))
                counts.add_to_cohort(cohort, addition)
                states.add_to_cohort(cohort, addition)
            self._assert_layouts_equal(counts, states)
        assert any(isinstance(column, list) for column in counts.columns), "never promoted"
        counts.clear()
        states.clear()
        self._assert_layouts_equal(counts, states)

    def test_compounding_past_int64_agrees(self):
        """Multiplicative blow-up past 2^63 is exact in both layouts."""
        from repro.executor.prefix_agg import _CountColumns, _StateColumns

        counts, states = _CountColumns(3), _StateColumns(3)
        for columns in (counts, states):
            columns.append_cohort(AggregateState(count=2**40))
            columns.append_cohort(AggregateState(count=3))
        summary = (1000, 0, 0.0, None, None)
        for _ in range(5):  # 2**40 * 1000**2 > 2**63 well before the last round
            for position, collect in ((1, False), (2, True)):
                got = counts.extend_commit(position, summary, collect)
                expected = states.extend_commit(position, summary, collect)
                assert got[1] == expected[1]
        self._assert_layouts_equal(counts, states)
        assert max(counts.export_columns()[2]) > 2**63 - 1, "the scenario never passed int64"

    def test_count_columns_resume_from_promoted_exports(self):
        """An export holding big ints restores and keeps extending exactly."""
        from repro.executor.prefix_agg import _CountColumns

        huge = [[2**70, 1], [0, 2**64], [5, 6]]
        columns = _CountColumns(3)
        columns.restore_columns(huge)
        assert columns.export_columns() == huge
        deltas, touched = columns.extend_commit(1, (2, 0, 0.0, None, None), True)
        assert touched == 4  # two cohorts × two batch events
        assert deltas == [(0, AggregateState(count=2**71)), (1, AggregateState(count=2))]
        assert columns.export_columns() == [[2**70, 1], [2**71, 2**64 + 2], [5, 6]]

    def test_state_columns_restore_continues_bit_for_bit(self):
        """A restored export is a faithful continuation point, floats included."""
        import random

        from repro.executor.prefix_agg import _StateColumns

        rng = random.Random(1729)

        def summary():
            k = rng.randint(1, 5)
            if rng.random() < 0.3:  # scale path: no targeted events
                return (k, 0, 0.0, None, None)
            palette = [0.0, -0.0, 0.1, 1e16, -7.25]
            values = [rng.choice(palette + [rng.uniform(-50, 50)]) for _ in range(k)]
            total = 0.0
            for value in values:
                total += value
            return (k, k, total, min(values), max(values))

        live = _StateColumns(3)
        for _ in range(4):
            live.append_cohort(AggregateState.unit().extend_many(*summary()))
        for _ in range(6):
            live.extend_commit(rng.randint(1, 2), summary(), False)
        restored = _StateColumns(3)
        restored.restore_columns(live.export_columns())
        assert repr(restored.export_columns()) == repr(live.export_columns())
        for _ in range(6):
            step = summary()
            position = rng.randint(1, 2)
            got = restored.extend_commit(position, step, True)
            expected = live.extend_commit(position, step, True)
            assert repr([(c, s.as_tuple()) for c, s in got[0]]) == repr(
                [(c, s.as_tuple()) for c, s in expected[0]]
            )
        assert repr(restored.export_columns()) == repr(live.export_columns())
