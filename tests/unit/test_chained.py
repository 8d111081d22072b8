"""Unit tests for the chained per-query aggregation (shared method, Section 3.3)."""

from __future__ import annotations

import pytest

from repro.core import SharingCandidate, SharingPlan
from repro.events import SlidingWindow
from repro.executor import (
    PrefixFreeRunner,
    QueryChainState,
    SharedSegmentRunner,
    SharedSegmentState,
)
from repro.executor.chained import stage_event_types
from repro.queries import AggregateSpec, Pattern, Query, Workload

from ..conftest import kernel_batches, make_events

COUNT = AggregateSpec.count_star()


def run_chain(chain_or_chains, rows, shared_states=()):
    """Feed timestamp batches through shared states and query chains."""
    chains = chain_or_chains if isinstance(chain_or_chains, list) else [chain_or_chains]
    for batch, by_type in kernel_batches(make_events(rows)):
        for shared in shared_states:
            shared.stage_batch(batch, by_type)
        for chain in chains:
            chain.stage_batch(batch, by_type)
        for shared in shared_states:
            shared.commit()
        for chain in chains:
            chain.commit()


def build_chain(query_types, shared_types, rows, query_name="q1", other_query="q2"):
    """A query chain sharing ``shared_types`` with another query."""
    window = SlidingWindow(size=100, slide=100)
    query = Query(pattern=Pattern(query_types), window=window, name=query_name)
    other = Query(pattern=Pattern(shared_types), window=window, name=other_query)
    workload = Workload([query, other])
    candidate = SharingCandidate(Pattern(shared_types), (query_name, other_query), 1.0)
    plan = SharingPlan([candidate])
    decomposition = plan.decompose(workload)[query_name]
    shared_state = SharedSegmentState(Pattern(shared_types), [COUNT])
    chain = QueryChainState(query, decomposition, {Pattern(shared_types): shared_state})
    run_chain(chain, rows, shared_states=[shared_state])
    return chain


class TestExample3Combination:
    def test_figure_7_count_combination(self):
        """Example 3's mechanism: count(A,B,C,D) is assembled by multiplying the
        snapshot of count(A,B) at each C anchor with the anchor's count(C,D).

        For the stream a1 b2 c3 d4 a5 b6 c7 d8:
        anchor c3 contributes count(A,B)@c3 * count(c3,D) = 1 * 2 = 2,
        anchor c7 contributes count(A,B)@c7 * count(c7,D) = 3 * 1 = 3,
        so count(A,B,C,D) = 5 (verified by exhaustive enumeration below).
        """
        rows = [
            ("A", 1),
            ("B", 2),
            ("C", 3),
            ("D", 4),
            ("A", 5),
            ("B", 6),
            ("C", 7),
            ("D", 8),
        ]
        chain = build_chain(("A", "B", "C", "D"), ("C", "D"), rows)
        assert chain.final_value() == 5

        from repro.executor import enumerate_pattern_matches
        from ..conftest import make_events

        brute_force = len(
            enumerate_pattern_matches(Pattern(["A", "B", "C", "D"]), make_events(rows))
        )
        assert chain.final_value() == brute_force

    def test_shared_segment_at_start_of_query(self):
        # Query (C, D, E) sharing (C, D): carries are the unit state.
        rows = [("C", 1), ("D", 2), ("C", 3), ("D", 4), ("E", 5)]
        chain = build_chain(("C", "D", "E"), ("C", "D"), rows)
        # Matches: (c1,d2,e5), (c1,d4,e5), (c3,d4,e5).
        assert chain.final_value() == 3

    def test_shared_segment_at_end_of_query(self):
        rows = [("A", 1), ("C", 2), ("D", 3), ("C", 4), ("D", 5)]
        chain = build_chain(("A", "C", "D"), ("C", "D"), rows)
        # Matches: (a1,c2,d3), (a1,c2,d5), (a1,c4,d5).
        assert chain.final_value() == 3

    def test_whole_query_shared(self):
        rows = [("C", 1), ("D", 2), ("D", 3)]
        chain = build_chain(("C", "D"), ("C", "D"), rows)
        assert chain.final_value() == 2


class TestSharedSegmentRunner:
    def test_runner_requires_matching_spec(self):
        shared = SharedSegmentState(Pattern(["A", "B"]), [COUNT])
        with pytest.raises(ValueError, match="does not track"):
            SharedSegmentRunner(shared, AggregateSpec.sum("B", "x"))

    def test_carries_align_with_anchors(self):
        window = SlidingWindow(size=100, slide=100)
        q1 = Query(pattern=Pattern(["A", "C", "D"]), window=window, name="q1")
        q2 = Query(pattern=Pattern(["B", "C", "D"]), window=window, name="q2")
        workload = Workload([q1, q2])
        candidate = SharingCandidate(Pattern(["C", "D"]), ("q1", "q2"), 1.0)
        decompositions = SharingPlan([candidate]).decompose(workload)
        shared_state = SharedSegmentState(Pattern(["C", "D"]), [COUNT])
        shared_states = {Pattern(["C", "D"]): shared_state}
        chain1 = QueryChainState(q1, decompositions["q1"], shared_states)
        chain2 = QueryChainState(q2, decompositions["q2"], shared_states)

        rows = [
            ("A", 1), ("B", 2), ("B", 3), ("C", 4), ("D", 5), ("A", 5), ("C", 6), ("D", 7)
        ]
        run_chain([chain1, chain2], rows, shared_states=[shared_state])

        # q1's carry moves between the anchors (one A, then two), so each
        # anchor keeps its own cohort although q2's carry (two Bs) does not.
        assert shared_state.cohort_count == 2
        runner1 = chain1.runners[-1]
        runner2 = chain2.runners[-1]
        assert [carry.count for carry in runner1.carries] == [1, 2]
        assert [carry.count for carry in runner2.carries] == [2, 2]
        # Matches of (C,D): (c4,d5), (c4,d7), (c6,d7).
        assert chain1.final_value() == 1 * 2 + 2 * 1
        assert chain2.final_value() == 6

    def test_shared_state_processed_once_for_both_queries(self):
        """The shared pattern's updates are independent of the number of queries."""
        window = SlidingWindow(size=100, slide=100)
        rows = [("A", 1), ("C", 2), ("D", 3), ("C", 4), ("D", 5)]

        def updates_for(num_queries):
            queries = [
                Query(pattern=Pattern([f"X{i}", "C", "D"]), window=window, name=f"q{i}")
                for i in range(num_queries)
            ]
            workload = Workload(queries)
            candidate = SharingCandidate(
                Pattern(["C", "D"]), tuple(q.name for q in queries), 1.0
            )
            decompositions = SharingPlan([candidate]).decompose(workload)
            shared_state = SharedSegmentState(Pattern(["C", "D"]), [COUNT])
            chains = [
                QueryChainState(q, decompositions[q.name], {Pattern(["C", "D"]): shared_state})
                for q in queries
            ]
            run_chain(chains, rows, shared_states=[shared_state])
            return shared_state.updates

        assert updates_for(2) == updates_for(6)


class TestPrefixFreeRunner:
    """A query that starts with the shared pattern has nothing to combine."""

    def _decomposition(self, query_types, shared_types):
        window = SlidingWindow(size=100, slide=100)
        query = Query(pattern=Pattern(query_types), window=window, name="q1")
        other = Query(pattern=Pattern(shared_types), window=window, name="q2")
        plan = SharingPlan([SharingCandidate(Pattern(shared_types), ("q1", "q2"), 1.0)])
        return query, plan.decompose(Workload([query, other]))["q1"]

    def test_stage_types_skip_a_leading_shared_segment(self):
        _, head = self._decomposition(("C", "D", "E"), ("C", "D"))
        assert stage_event_types(head) == {"E"}
        _, whole = self._decomposition(("C", "D"), ("C", "D"))
        assert stage_event_types(whole) == frozenset()
        _, tail = self._decomposition(("A", "C", "D"), ("C", "D"))
        assert stage_event_types(tail) == {"A", "C"}

    def test_leading_shared_segment_reads_the_shared_total(self):
        rows = [("C", 1), ("D", 2), ("C", 3), ("D", 4), ("E", 5)]
        chain = build_chain(("C", "D", "E"), ("C", "D"), rows)
        head = chain.runners[0]
        assert isinstance(head, PrefixFreeRunner)
        assert head.shared._runners == []  # never registered for delta fan-out
        assert head.chain_value() is head.shared.total_completed(COUNT)
        assert head.chain_value().count == 3

    def test_non_leading_shared_segment_keeps_its_carries(self):
        rows = [("A", 1), ("C", 2), ("D", 3), ("A", 3), ("C", 4), ("D", 5)]
        chain = build_chain(("A", "C", "D"), ("C", "D"), rows)
        tail = chain.runners[-1]
        assert isinstance(tail, SharedSegmentRunner)
        assert tail.shared._runners == [tail]
        assert [carry.count for carry in tail.carries] == [1, 2]

    def test_requires_matching_spec(self):
        shared = SharedSegmentState(Pattern(["A", "B"]), [COUNT])
        with pytest.raises(ValueError, match="does not track"):
            PrefixFreeRunner(shared, AggregateSpec.sum("B", "x"))

    def test_restore_ignores_carries_stored_by_older_snapshots(self):
        rows = [("C", 1), ("D", 2), ("E", 3)]
        chain = build_chain(("C", "D", "E"), ("C", "D"), rows)
        exported = chain.export_state()
        assert exported[0] == {}
        legacy = [{"carries": [[1, 0, 0.0, None, None]], "total": [1, 0, 0.0, None, None],
                   "combinations": 1}] + exported[1:]
        chain.restore_state(legacy)
        assert chain.export_state() == exported
        assert chain.final_value() == 1


class TestQueryChainStructure:
    def test_private_only_chain_matches_aseq(self, ab_query):
        workload = Workload([ab_query])
        decomposition = SharingPlan().decompose(workload)[ab_query.name]
        chain = QueryChainState(ab_query, decomposition, {})
        run_chain(chain, [("A", 1), ("B", 2), ("A", 3), ("B", 4)])
        assert chain.final_value() == 3
        assert chain.update_count > 0


@pytest.mark.parametrize(
    "spec",
    [
        COUNT,
        AggregateSpec.count("D"),
        AggregateSpec.sum("D", "value"),
        AggregateSpec.min("A", "value"),
        AggregateSpec.max("C", "value"),
        AggregateSpec.avg("D", "value"),
    ],
    ids=["count_star", "count", "sum", "min", "max", "avg"],
)
def test_coalesced_suffix_sharing_matches_brute_force(spec):
    """Cohorts coalesced under equal carries lose nothing, for every aggregate kind.

    Two queries share the suffix (C, D).  The C batches at 6 and 7 see the
    same A and B counts upstream, so they share one cohort; between 2 and 3
    only q2's B count moved, which must keep them apart although q1, the
    first registered runner, saw no change.  Both chains must equal the
    enumerated matches.
    """
    from repro.executor import enumerate_pattern_matches

    window = SlidingWindow(size=100, slide=100)
    workload = Workload(
        [
            Query(Pattern(["A", "C", "D"]), window, aggregate=spec, name="q1"),
            Query(Pattern(["B", "C", "D"]), window, aggregate=spec, name="q2"),
        ]
    )
    plan = SharingPlan([SharingCandidate(Pattern(["C", "D"]), ("q1", "q2"), 1.0)])
    decompositions = plan.decompose(workload)
    shared = SharedSegmentState(Pattern(["C", "D"]), [spec])
    chains = [
        QueryChainState(query, decompositions[query.name], {Pattern(["C", "D"]): shared})
        for query in workload
    ]
    rows = [
        ("A", 1, {"value": 2.0}),
        ("C", 2, {"value": 1.0}),
        ("B", 2, {"value": 0.5}),
        ("C", 3, {"value": 5.0}),
        ("D", 4, {"value": 3.0}),
        ("A", 5, {"value": -1.5}),
        ("C", 6, {"value": 0.5}),
        ("C", 7, {"value": 2.5}),
        ("D", 8, {"value": 4.0}),
        ("D", 8, {"value": -2.0}),
    ]
    run_chain(chains, rows, shared_states=[shared])
    assert (shared.cohorts_created, shared.cohorts_merged) == (4, 1)
    events = make_events(rows)
    for query, chain in zip(workload, chains):
        expected = spec.evaluate_sequences(enumerate_pattern_matches(query.pattern, events))
        assert chain.final_value() == expected, query.name
