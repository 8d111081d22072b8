"""Unit tests for the sharing benefit model (Equations 1-8)."""

from __future__ import annotations

import pytest

from repro.core import BenefitModel, SharingCandidate, build_candidates
from repro.events import SlidingWindow
from repro.queries import Pattern, Query, Workload
from repro.utils import RateCatalog


def make_query(types, name):
    return Query(pattern=Pattern(types), window=SlidingWindow(size=10, slide=5), name=name)


@pytest.fixture
def model():
    # Distinct rates so every equation's terms are distinguishable.
    return BenefitModel(RateCatalog({"A": 2.0, "B": 3.0, "C": 5.0, "D": 7.0, "E": 11.0}))


class TestNonSharedCost:
    def test_equation_2_single_query(self, model):
        # NonShared(p, qi) = Rate(E1) * Rate(Pi).
        query = make_query(["A", "B", "C"], "q1")
        assert model.non_shared_query_cost(Pattern(["A", "B"]), query) == 2.0 * (2 + 3 + 5)

    def test_equation_3_sums_over_queries(self, model):
        q1 = make_query(["A", "B", "C"], "q1")
        q2 = make_query(["B", "C", "D"], "q2")
        shared = Pattern(["B", "C"])
        expected = 2.0 * 10 + 3.0 * 15
        assert model.non_shared_cost(shared, [q1, q2]) == expected

    def test_pattern_rate_equation_1(self, model):
        assert model.pattern_rate(Pattern(["A", "C"])) == 7.0
        assert model.pattern_rate(Pattern.empty()) == 0.0


class TestSharedCost:
    def test_equation_4_prefix_and_suffix(self, model):
        # Query (A, B, C, D) sharing (B, C): prefix (A), suffix (D).
        query = make_query(["A", "B", "C", "D"], "q1")
        shared = Pattern(["B", "C"])
        expected = 2.0 * 2.0 + 7.0 * 7.0
        assert model.computation_cost(shared, query) == expected

    def test_equation_4_missing_prefix(self, model):
        query = make_query(["B", "C", "D"], "q1")
        assert model.computation_cost(Pattern(["B", "C"]), query) == 7.0 * 7.0

    def test_equation_5_combination_product(self, model):
        query = make_query(["A", "B", "C", "D"], "q1")
        assert model.combination_cost(Pattern(["B", "C"]), query) == 2.0 * 3.0 * 7.0

    def test_equation_5_degenerates_with_missing_segments(self, model):
        no_suffix = make_query(["A", "B", "C"], "q1")
        assert model.combination_cost(Pattern(["B", "C"]), no_suffix) == 2.0 * 3.0
        whole = make_query(["B", "C"], "q2")
        assert model.combination_cost(Pattern(["B", "C"]), whole) == 0.0

    def test_equation_6_and_7(self, model):
        q1 = make_query(["A", "B", "C"], "q1")
        q2 = make_query(["B", "C", "D"], "q2")
        shared = Pattern(["B", "C"])
        shared_q1 = model.computation_cost(shared, q1) + model.combination_cost(shared, q1)
        assert model.shared_query_cost(shared, q1) == shared_q1
        total = model.shared_cost(shared, [q1, q2])
        expected = 3.0 * 8.0 + model.shared_query_cost(shared, q1) + model.shared_query_cost(
            shared, q2
        )
        assert total == expected


class TestBenefit:
    def test_equation_8_is_difference(self, model):
        q1 = make_query(["A", "B", "C"], "q1")
        q2 = make_query(["B", "C", "D"], "q2")
        shared = Pattern(["B", "C"])
        breakdown = model.breakdown(shared, [q1, q2])
        assert breakdown.benefit == breakdown.non_shared - breakdown.shared
        assert model.benefit(shared, [q1, q2]) == breakdown.benefit

    def test_more_queries_increase_benefit_when_sharing_pays_per_query(self):
        # With unit rates the per-query shared cost (prefix/suffix maintenance
        # plus combination) is below the per-query non-shared cost, so every
        # additional sharing query strictly increases the benefit.
        uniform = BenefitModel(RateCatalog.uniform(["A", "B", "C", "D"], 1.0))
        shared = Pattern(["B", "C"])
        queries = [make_query(["A", "B", "C", "D"], f"q{i}") for i in range(5)]
        benefits = [uniform.benefit(shared, queries[: k + 1]) for k in range(5)]
        assert benefits == sorted(benefits)
        assert benefits[-1] > benefits[0]

    def test_benefit_changes_linearly_in_identical_queries(self, model):
        # Adding one more identical query changes the benefit by a constant
        # (NonShared(p, qi) - Shared(p, qi)), per Equations 3 and 7.
        shared = Pattern(["B", "C"])
        queries = [make_query(["A", "B", "C", "D"], f"q{i}") for i in range(4)]
        benefits = [model.benefit(shared, queries[: k + 1]) for k in range(4)]
        deltas = [round(b - a, 6) for a, b in zip(benefits, benefits[1:])]
        assert len(set(deltas)) == 1

    def test_evaluate_candidates_prunes_non_beneficial(self):
        # With high per-type rates the combination overhead (Eq. 5, cubic in
        # the rate) dominates for short patterns, so sharing is not beneficial.
        workload = Workload(
            [make_query(["A", "B", "C"], "q1"), make_query(["Z", "A", "B"], "q2")]
        )
        high_rate_model = BenefitModel(RateCatalog.uniform(["A", "B", "C", "Z"], 100.0))
        candidates = build_candidates(workload)
        assert high_rate_model.evaluate_candidates(workload, candidates) == []

        low_rate_model = BenefitModel(RateCatalog.uniform(["A", "B", "C", "Z"], 1.0))
        surviving = low_rate_model.evaluate_candidates(workload, candidates)
        assert all(c.benefit > 0 for c in surviving)

    def test_candidate_benefit_uses_workload_lookup(self, model):
        workload = Workload([make_query(["A", "B", "C"], "q1"), make_query(["B", "C", "D"], "q2")])
        candidate = SharingCandidate(Pattern(["B", "C"]), ("q1", "q2"))
        assert model.candidate_benefit(workload, candidate) == model.benefit(
            Pattern(["B", "C"]), list(workload)
        )

class TestOccurrenceFactor:
    def test_repeated_type_multiplies_cost(self, model):
        shared = Pattern(["A", "B"])
        plain = make_query(["A", "B", "C"], "q1")
        repeated = make_query(["A", "B", "A"], "q2")
        assert model.occurrence_factor(shared, plain) == 1.0
        assert model.occurrence_factor(shared, repeated) == 2.0
        assert model.non_shared_query_cost(shared, repeated) == 2.0 * model.rates.start_rate(
            repeated.pattern
        ) * model.pattern_rate(repeated.pattern)
