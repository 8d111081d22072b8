"""The sharing benefit model (Section 3, Equations 1–8).

The model compares, for a sharing candidate ``(p, Qp)``, the estimated cost of
evaluating every query in ``Qp`` independently with the Non-Shared method
(A-Seq style prefix counting) against the cost of computing ``p`` once and
combining its aggregates with each query's prefix and suffix aggregates
(the Shared method).  The difference is the candidate's *benefit value*;
non-beneficial candidates (benefit <= 0) are pruned before graph
construction.

All costs are expressed in "count updates per window" and derive solely from
per-event-type rates (:class:`~repro.utils.rates.RateCatalog`):

* ``Rate(P) = Σ_j Rate(Ej)``                                      (Eq. 1)
* ``NonShared(p, qi) = Rate(E1^i) * Rate(P^i)``                   (Eq. 2)
* ``NonShared(p, Qp) = Σ_i NonShared(p, qi)``                     (Eq. 3)
* ``Comp(p, qi) = Rate(start(prefix_i)) * Rate(prefix_i)
                 + Rate(start(suffix_i)) * Rate(suffix_i)``        (Eq. 4)
* ``Comb(p, qi) = Rate(start(prefix_i)) * Rate(start(p))
                 * Rate(start(suffix_i))``                          (Eq. 5)
* ``Shared(p, qi) = Comp(p, qi) + Comb(p, qi)``                    (Eq. 6)
* ``Shared(p, Qp) = Rate(start(p)) * Rate(p) + Σ_i Shared(p, qi)`` (Eq. 7)
* ``BValue(p, Qp) = NonShared(p, Qp) - Shared(p, Qp)``             (Eq. 8)

Empty prefixes or suffixes contribute nothing to Eq. 4, and the combination
cost (Eq. 5) degenerates to the product of the start rates of the segments
that actually exist (no combination is needed when the query *is* the shared
pattern).  Section 7.3's extension (an event type occurring ``k`` times in a
pattern multiplies both methods by ``k``) is exposed through the
``occurrence_factor`` hook.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from ..queries.pattern import Pattern
from ..queries.query import Query
from ..queries.workload import Workload
from ..utils.rates import RateCatalog
from .candidates import SharingCandidate

__all__ = ["BenefitModel", "BenefitBreakdown"]


@dataclass(frozen=True)
class BenefitBreakdown:
    """Per-candidate cost decomposition, handy for reports and tests."""

    non_shared: float
    shared: float

    @property
    def benefit(self) -> float:
        return self.non_shared - self.shared


class BenefitModel:
    """Cost-based estimator of sharing benefits.

    Parameters
    ----------
    rates:
        Per-event-type rate catalog.
    """

    def __init__(self, rates: RateCatalog) -> None:
        self.rates = rates

    # -- building blocks -------------------------------------------------------
    def pattern_rate(self, pattern: Pattern) -> float:
        """``Rate(P)`` (Equation 1); 0 for the empty pattern."""
        return self.rates.pattern_rate(pattern)

    def occurrence_factor(self, pattern: Pattern, query: Query) -> float:
        """Multiplicative factor ``k`` for repeated event types (Section 7.3).

        With the core assumption (each type occurs at most once per pattern)
        this is 1.  When a query pattern repeats a type, every arriving event
        of that type updates the counts of ``k`` prefixes, so the processing
        cost of that query grows by the maximal repetition count.
        """
        counts: dict[str, int] = {}
        for event_type in query.pattern.event_types:
            counts[event_type] = counts.get(event_type, 0) + 1
        return float(max(counts.values(), default=1))

    # -- Non-Shared method (Section 3.2) ----------------------------------------
    def non_shared_query_cost(self, pattern: Pattern, query: Query) -> float:
        """``NonShared(p, qi)`` (Equation 2).

        Every matched event updates one count per non-expired START event of
        the query's full pattern, hence the product of the START-type rate and
        the total matched-event rate.
        """
        factor = self.occurrence_factor(pattern, query)
        return factor * self.rates.start_rate(query.pattern) * self.pattern_rate(query.pattern)

    def non_shared_cost(self, pattern: Pattern, queries: Iterable[Query]) -> float:
        """``NonShared(p, Qp)`` (Equation 3)."""
        return float(sum(self.non_shared_query_cost(pattern, q) for q in queries))

    # -- Shared method (Section 3.3) ---------------------------------------------
    def computation_cost(self, pattern: Pattern, query: Query) -> float:
        """``Comp(p, qi)`` (Equation 4): per-query prefix and suffix maintenance."""
        split = query.pattern.split_around(pattern)
        cost = 0.0
        if len(split.prefix) > 0:
            cost += self.rates.start_rate(split.prefix) * self.pattern_rate(split.prefix)
        if len(split.suffix) > 0:
            cost += self.rates.start_rate(split.suffix) * self.pattern_rate(split.suffix)
        return self.occurrence_factor(pattern, query) * cost

    def combination_cost(self, pattern: Pattern, query: Query) -> float:
        """``Comb(p, qi)`` (Equation 5): combining the shared aggregates.

        The cost is the product of the numbers of per-START-event counts of
        the segments that must be combined.  With both a prefix and a suffix
        this is exactly Equation 5; with a single missing segment it
        degenerates to the product of the two remaining start rates; when the
        query pattern *is* the shared pattern there is nothing to combine.
        """
        split = query.pattern.split_around(pattern)
        start_rates = [self.rates.start_rate(segment) for segment in split.segments]
        if len(start_rates) <= 1:
            return 0.0
        product = 1.0
        for rate in start_rates:
            product *= rate
        return product

    def shared_query_cost(self, pattern: Pattern, query: Query) -> float:
        """``Shared(p, qi)`` (Equation 6)."""
        return self.computation_cost(pattern, query) + self.combination_cost(pattern, query)

    def shared_cost(self, pattern: Pattern, queries: Iterable[Query]) -> float:
        """``Shared(p, Qp)`` (Equation 7): the pattern is computed once for all."""
        queries = list(queries)
        shared_pattern_cost = self.rates.start_rate(pattern) * self.pattern_rate(pattern)
        return shared_pattern_cost + float(
            sum(self.shared_query_cost(pattern, q) for q in queries)
        )

    # -- benefit -------------------------------------------------------------------
    def breakdown(self, pattern: Pattern, queries: Iterable[Query]) -> BenefitBreakdown:
        """Both sides of Equation 8 for inspection."""
        queries = list(queries)
        return BenefitBreakdown(
            non_shared=self.non_shared_cost(pattern, queries),
            shared=self.shared_cost(pattern, queries),
        )

    def benefit(self, pattern: Pattern, queries: Iterable[Query]) -> float:
        """``BValue(p, Qp)`` (Equation 8)."""
        return self.breakdown(pattern, queries).benefit

    def candidate_benefit(self, workload: Workload, candidate: SharingCandidate) -> float:
        """Benefit of a candidate expressed over query names."""
        queries = [workload[name] for name in candidate.query_names]
        return self.benefit(candidate.pattern, queries)

    def evaluate_candidates(
        self, workload: Workload, candidates: Iterable[SharingCandidate]
    ) -> list[SharingCandidate]:
        """Attach benefits to candidates and drop the non-beneficial ones.

        This is the *non-beneficial candidate pruning* principle of
        Section 3.4: only candidates with a strictly positive benefit survive.
        """
        evaluated = []
        for candidate in candidates:
            value = self.candidate_benefit(workload, candidate)
            if value > 0:
                evaluated.append(candidate.with_benefit(value))
        return evaluated

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"BenefitModel({self.rates!r})"
