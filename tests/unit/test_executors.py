"""Unit tests for the executor front-ends (A-Seq, Sharon, Flink-like, SPASS-like)."""

from __future__ import annotations

import pytest

from repro.core import SharingCandidate, SharingPlan, SharonOptimizer
from repro.events import EventStream, SlidingWindow, WindowInstance
from repro.executor import (
    ASeqExecutor,
    FlinkLikeExecutor,
    SharonExecutor,
    SpassLikeExecutor,
    TwoStepBudgetExceeded,
    run_workload,
)
from repro.executor.oracle import OracleExecutor
from repro.queries import Pattern, PredicateSet, Query, Workload
from repro.utils import RateCatalog

from ..conftest import make_events


def small_workload():
    window = SlidingWindow(size=20, slide=10)
    predicates = PredicateSet()
    return Workload(
        [
            Query(pattern=Pattern(["A", "B", "C"]), window=window, predicates=predicates, name="w1"),
            Query(pattern=Pattern(["B", "C", "D"]), window=window, predicates=predicates, name="w2"),
            Query(pattern=Pattern(["A", "B"]), window=window, predicates=predicates, name="w3"),
        ]
    )


ROWS = [
    ("A", 1),
    ("B", 2),
    ("C", 4),
    ("D", 5),
    ("A", 6),
    ("B", 8),
    ("C", 9),
    ("B", 12),
    ("C", 13),
    ("D", 15),
    ("A", 21),
    ("B", 23),
    ("C", 25),
]


@pytest.fixture
def stream():
    return EventStream(make_events(ROWS))


class TestASeqExecutor:
    def test_counts_match_hand_computation(self, stream):
        workload = small_workload()
        report = ASeqExecutor(workload, panes=False).run(stream)
        window = WindowInstance(0, 20)
        # Events in [0,20): A1 B2 C4 D5 A6 B8 C9 B12 C13 D15.
        # Matches of (A,B,C): A1 pairs with (B2,B8,B12) x later Cs = 3+2+1,
        # A6 with (B8,B12) x later Cs = 2+1, total 9.
        assert report.results.value("w1", window) == 9
        # Matches of (B,C,D): B2 -> 4, B8 -> 2, B12 -> 1, total 7.
        assert report.results.value("w2", window) == 7
        # Matches of (A,B): A1 -> 3, A6 -> 2, total 5.
        assert report.results.value("w3", window) == 5

    def test_metrics_populated(self, stream):
        report = ASeqExecutor(small_workload(), memory_sample_interval=1, panes=False).run(stream)
        assert report.metrics.executor_name == "A-Seq"
        assert report.metrics.total_events == len(ROWS)
        assert report.metrics.peak_memory_bytes > 0
        assert report.metrics.windows_finalized > 0


class TestSharonExecutor:
    def test_requires_plan_or_rates(self):
        with pytest.raises(ValueError, match="plan or a rate catalog"):
            SharonExecutor(small_workload())

    def test_with_explicit_plan_matches_aseq(self, stream):
        workload = small_workload()
        plan = SharingPlan([SharingCandidate(Pattern(["B", "C"]), ("w1", "w2"), 1.0)])
        shared = SharonExecutor(workload, plan=plan, panes=False).run(stream)
        non_shared = ASeqExecutor(workload, panes=False).run(stream)
        assert shared.results.matches(non_shared.results)

    def test_optimizes_on_the_fly_with_rates(self, stream):
        workload = small_workload()
        rates = RateCatalog.from_stream(stream, per="time-unit")
        report = SharonExecutor(workload, rates=rates, panes=False).run(stream)
        assert report.plan is not None
        assert report.results.matches(ASeqExecutor(workload, panes=False).run(stream).results)

    @pytest.mark.parametrize("kind", ["stream", "list", "iterator"])
    def test_run_workload_convenience(self, stream, kind):
        """Rates are sampled from the same events that run, a one-shot iterator's too."""
        workload = small_workload()
        source = {"stream": stream, "list": list(stream), "iterator": iter(list(stream))}[kind]
        report = run_workload(workload, source)
        assert report.metrics.total_events == len(ROWS)
        assert report.results.matches(ASeqExecutor(workload, panes=False).run(stream).results)

    def test_run_workload_rates_a_type_the_stream_lacks_at_zero(self, stream):
        """``(A, Z)`` is shareable by ``z1`` and ``z2``; no ``Z`` or ``X`` ever arrives."""
        window = SlidingWindow(size=20, slide=10)
        patterns = {"z1": ["A", "Z", "B"], "z2": ["A", "Z", "C"], "z3": ["X", "A", "Z"]}
        workload = Workload(
            [Query(pattern=Pattern(types), window=window, name=n) for n, types in patterns.items()]
        )
        report = run_workload(workload, stream)
        assert report.results.matches(OracleExecutor(workload).run(stream).results)


class TestTwoStepExecutors:
    def test_flink_like_matches_online(self, stream):
        workload = small_workload()
        flink = FlinkLikeExecutor(workload).run(stream)
        aseq = ASeqExecutor(workload, panes=False).run(stream)
        assert flink.results.matches(aseq.results)
        assert flink.metrics.executor_name == "Flink-like"
        # Two-step execution stores events and sequences: memory must be non-zero.
        assert flink.metrics.peak_memory_bytes > 0

    def test_spass_like_matches_online_with_default_plan(self, stream):
        workload = small_workload()
        spass = SpassLikeExecutor(workload).run(stream)
        aseq = ASeqExecutor(workload, panes=False).run(stream)
        assert spass.results.matches(aseq.results)
        assert spass.plan is not None and len(spass.plan) >= 1

    def test_spass_like_with_explicit_plan(self, stream):
        workload = small_workload()
        plan = SharingPlan([SharingCandidate(Pattern(["B", "C"]), ("w1", "w2"), 1.0)])
        spass = SpassLikeExecutor(workload, plan=plan).run(stream)
        assert spass.results.matches(ASeqExecutor(workload, panes=False).run(stream).results)

    def test_budget_exceeded_raises(self):
        # A dense window of alternating events explodes the sequence count.
        rows = []
        for index in range(40):
            rows.append(("A", 2 * index))
            rows.append(("B", 2 * index + 1))
        workload = Workload(
            [
                Query(
                    pattern=Pattern(["A", "B"]),
                    window=SlidingWindow(size=100, slide=100),
                    name="dense",
                )
            ]
        )
        executor = FlinkLikeExecutor(workload, max_sequences_per_scope=50)
        with pytest.raises(TwoStepBudgetExceeded, match="does not terminate"):
            executor.run(EventStream(make_events(rows)))

    def test_sharon_beats_two_step_on_state_updates(self, stream):
        """Online execution performs far fewer 'operations' than sequence construction."""
        workload = small_workload()
        online = ASeqExecutor(workload, panes=False).run(stream)
        twostep = FlinkLikeExecutor(workload).run(stream)
        assert online.metrics.state_updates <= twostep.metrics.state_updates * 2
