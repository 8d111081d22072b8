"""Integration test reproducing the paper's running example end to end.

The traffic workload of Figure 1 / Table 1 is threaded through the entire
optimizer pipeline with the vertex weights of Figure 4, checking every
concrete number the paper reports along the way:

* Table 1 — the seven sharing candidates and their query sets;
* Figure 4 — vertex weights and conflict degrees;
* Example 7 — the GWMIN guarantee (~38.57) and the pruning of p3;
* Example 8 — p7 is conflict-free;
* Example 9 — the search space shrinks by 75.59 %;
* Example 10 — 10 valid non-empty plans remain, the optimal one is
  {p2, p4, p6, p7};
* Example 12 — greedy score 43 vs. optimal score 50 (>16 % improvement).

Finally the optimal plan drives the Sharon executor on a synthetic taxi
stream and must produce exactly the same results as A-Seq and the two-step
oracle.
"""

from __future__ import annotations

import pytest

from repro.core import (
    GreedyOptimizer,
    SharonOptimizer,
    detect_sharable_patterns,
    reduce_sharon_graph,
    reduction_search_space_savings,
)
from repro.datasets import TaxiConfig, generate_taxi_stream, traffic_workload
from repro.events import SlidingWindow
from repro.executor import ASeqExecutor, FlinkLikeExecutor, SharonExecutor
from repro.queries import Pattern
from repro.utils import RateCatalog

from ..conftest import PAPER_BENEFITS, paper_benefit
from ..reference import enumerate_valid_plans


class TestOptimizerPipelineOnRunningExample:
    def test_table_1_candidates(self, traffic):
        sharable = detect_sharable_patterns(traffic)
        assert len(sharable) == 7
        assert sharable[Pattern(["OakSt", "MainSt"])] == ("q1", "q2", "q3", "q4")
        assert sharable[Pattern(["ParkAve", "OakSt"])] == ("q3", "q4")
        assert sharable[Pattern(["ParkAve", "OakSt", "MainSt"])] == ("q3", "q4")
        assert sharable[Pattern(["MainSt", "WestSt"])] == ("q2", "q4")
        assert sharable[Pattern(["OakSt", "MainSt", "WestSt"])] == ("q2", "q4")
        assert sharable[Pattern(["MainSt", "StateSt"])] == ("q1", "q5")
        assert sharable[Pattern(["ElmSt", "ParkAve"])] == ("q6", "q7")

    def test_figure_4_graph(self, paper_graph):
        assert len(paper_graph) == 7
        assert paper_graph.edge_count == 10
        assert sum(v.benefit for v in paper_graph) == sum(PAPER_BENEFITS.values())

    def test_examples_7_to_10(self, paper_graph):
        guaranteed = paper_graph.gwmin_guaranteed_weight()
        assert guaranteed == pytest.approx(38.57, abs=0.01)

        reduction = reduce_sharon_graph(paper_graph)
        assert {v.pattern.event_types for v in reduction.conflict_ridden} == {
            ("ParkAve", "OakSt", "MainSt")
        }
        assert {v.pattern.event_types for v in reduction.conflict_free} == {
            ("ElmSt", "ParkAve")
        }
        assert len(reduction.reduced_graph) == 5
        assert reduction_search_space_savings(7, 5) == pytest.approx(0.7559, abs=1e-3)

        valid_plans = [p for p in enumerate_valid_plans(reduction.reduced_graph) if len(p)]
        assert len(valid_plans) == 10

    def test_example_12_greedy_vs_optimal(self, traffic):
        rates = RateCatalog(default_rate=1.0)
        greedy = GreedyOptimizer(rates, benefit_override=paper_benefit).optimize(traffic)
        sharon = SharonOptimizer(rates, benefit_override=paper_benefit).optimize(traffic)

        assert greedy.plan.score == pytest.approx(43.0)
        assert sharon.plan.score == pytest.approx(50.0)
        improvement = (sharon.plan.score - greedy.plan.score) / greedy.plan.score
        assert improvement > 0.16

        optimal_patterns = {c.pattern.event_types for c in sharon.plan}
        assert optimal_patterns == {
            ("ParkAve", "OakSt"),
            ("MainSt", "WestSt"),
            ("MainSt", "StateSt"),
            ("ElmSt", "ParkAve"),
        }


class TestExecutorOnRunningExample:
    @pytest.fixture
    def scaled_traffic(self):
        # Same queries, smaller window so the test stream stays small.
        return traffic_workload(window=SlidingWindow(size=60, slide=20))

    @pytest.fixture
    def stream(self):
        return generate_taxi_stream(
            TaxiConfig(duration_seconds=150, reports_per_second=8, num_vehicles=6, seed=11)
        )

    def test_optimal_plan_executes_correctly(self, scaled_traffic, stream):
        rates = RateCatalog(default_rate=1.0)
        plan = SharonOptimizer(rates, benefit_override=paper_benefit).optimize(
            scaled_traffic
        ).plan
        assert len(plan) == 4

        sharon = SharonExecutor(scaled_traffic, plan=plan, panes=False).run(stream)
        aseq = ASeqExecutor(scaled_traffic, panes=False).run(stream)
        oracle = FlinkLikeExecutor(scaled_traffic).run(stream)

        assert sharon.results.matches(aseq.results), sharon.results.differences(aseq.results)
        assert sharon.results.matches(oracle.results), sharon.results.differences(
            oracle.results
        )
        assert any(result.value for result in sharon.results), (
            "the synthetic taxi stream should produce at least one matched trip"
        )

    def test_greedy_plan_also_correct_but_not_better(self, scaled_traffic, stream):
        rates = RateCatalog(default_rate=1.0)
        greedy_plan = GreedyOptimizer(rates, benefit_override=paper_benefit).optimize(
            scaled_traffic
        ).plan
        sharon_plan = SharonOptimizer(rates, benefit_override=paper_benefit).optimize(
            scaled_traffic
        ).plan

        greedy_report = SharonExecutor(scaled_traffic, plan=greedy_plan, panes=False).run(stream)
        optimal_report = SharonExecutor(scaled_traffic, plan=sharon_plan, panes=False).run(stream)
        assert greedy_report.results.matches(optimal_report.results)
        assert sharon_plan.score >= greedy_plan.score
