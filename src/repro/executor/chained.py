"""Chained per-query aggregation over a sharing plan (Section 3.3).

Under a sharing plan each query's pattern is decomposed into segments
(:class:`~repro.core.plan.QueryDecomposition`).  At runtime the query becomes
a *chain* of segment runners evaluated in stream order:

* a private segment runs its own flat prefix aggregation
  (:class:`~repro.executor.prefix_agg.PrivateSegmentState`), seeding its first
  position from the chain value of the upstream segments;
* a shared segment is backed by a scope-wide
  :class:`~repro.executor.prefix_agg.SharedSegmentState` computed once for all
  sharing queries.  When it is the query's *first* segment there is nothing
  upstream to combine with, and a :class:`PrefixFreeRunner` simply reads the
  shared running total (Eq. 5: no combination when the query starts with the
  shared pattern).  Otherwise the per-query :class:`SharedSegmentRunner`
  records, for every anchor cohort, the upstream chain value at the cohort's
  arrival time and folds the cohort's completion deltas into a running
  combined total — the count-combination step of the Shared method
  (Figure 7, Example 3), performed incrementally so every read is O(1).

The chain value after the last segment is the query's aggregate for the
scope.
"""

from __future__ import annotations

from typing import Sequence

from ..core.plan import QueryDecomposition
from ..events.columnar import ColumnarBatch
from ..queries.aggregates import AggregateSpec, AggregateState
from ..queries.query import Query
from .prefix_agg import CarryProvider, PrivateSegmentState, SharedSegmentState, TypeRows

__all__ = ["SharedSegmentRunner", "PrefixFreeRunner", "QueryChainState", "stage_event_types"]

_ZERO = AggregateState.zero()


def stage_event_types(decomposition: QueryDecomposition) -> frozenset[str]:
    """Event types whose arrival requires staging the query's chain.

    A private segment must observe all of its pattern's types.  A shared
    segment with something upstream acts only when an anchor cohort may
    appear, i.e. when the shared pattern's START type arrives and its runner
    must snapshot the upstream carry (completions of later positions reach
    it through the delta subscription).  A shared segment that *starts* the
    query contributes no type at all: its carry is the constant unit, so its
    :class:`PrefixFreeRunner` is never staged.  This is the single source of
    truth for the engine's type-indexed chain dispatch, and
    :class:`QueryChainState` stages exactly the runners counted here.
    """
    types: set[str] = set()
    for index, segment in enumerate(decomposition.segments):
        if not segment.is_shared:
            types.update(segment.pattern.event_types)
        elif index > 0:
            types.add(segment.pattern.event_types[0])
    return frozenset(types)


def _require_spec(shared: SharedSegmentState, spec: AggregateSpec) -> None:
    if spec not in shared.specs:
        raise ValueError(f"shared segment {shared.pattern!r} does not track {spec!r}")


class PrefixFreeRunner:
    """Chain head of a query that starts with a shared pattern.

    With no upstream segment every cohort's carry would be the unit state
    and ``unit ⊗ delta = delta``, so the combined total *is* the shared
    state's running total: the runner keeps no carries, is not registered
    for delta fan-out, is never staged, and performs no combinations —
    matching :meth:`~repro.core.benefit.BenefitModel.combination_cost`.
    """

    __slots__ = ("shared", "spec")

    def __init__(self, shared: SharedSegmentState, spec: AggregateSpec) -> None:
        _require_spec(shared, spec)
        self.shared = shared
        self.spec = spec

    def chain_value(self) -> AggregateState:
        """Aggregate over completed matches of the shared pattern so far."""
        return self.shared.total_completed(self.spec)

    # -- checkpointing -----------------------------------------------------------
    def export_state(self) -> dict:
        """Nothing of its own to snapshot: the shared state holds the total."""
        return {}

    def restore_state(self, state: dict) -> None:
        """Accept (and ignore) any snapshot.

        Snapshots written before prefix-free runners existed hold one unit
        carry per cohort and a total equal to the shared state's.
        """

    def reset(self) -> None:
        """Stateless: nothing to clear between scopes."""

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"PrefixFreeRunner({self.shared.pattern!r})"


class SharedSegmentRunner:
    """Per-query combination of a shared segment's anchored aggregates.

    The runner subscribes to its :class:`SharedSegmentState`: whenever a
    cohort's completed aggregate grows by some delta, the shared state calls
    :meth:`absorb_completed` and the runner merges ``carry ⊗ delta`` into its
    running total.  Carries are frozen at anchor creation (the paper's
    semantics), so the total is exact and :meth:`chain_value` never rescans
    the cohorts.  The shared state extends :attr:`carries` itself when it
    opens a cohort (and leaves it alone when it coalesces a START batch into
    the newest one), so the list is always parallel to the cohort arrays.
    """

    __slots__ = ("shared", "spec", "carries", "staged_carry", "_total")

    def __init__(self, shared: SharedSegmentState, spec: AggregateSpec) -> None:
        _require_spec(shared, spec)
        self.shared = shared
        self.spec = spec
        #: Upstream chain value snapshot per anchor cohort, parallel to the
        #: shared state's cohort arrays.
        self.carries: list[AggregateState] = []
        #: Upstream snapshot for this batch's START events, read by the
        #: shared state's commit.
        self.staged_carry: AggregateState = _ZERO
        #: Running Σ carry_i ⊗ completed_i over all cohorts.
        self._total: AggregateState = _ZERO
        shared.register(self)

    def stage_batch(self, batch: ColumnarBatch, rows: TypeRows, carry: CarryProvider) -> None:
        """Snapshot the upstream value for the START rows of this batch.

        The shared state must have been staged for the same batch already;
        all START rows of a batch share one carry (the upstream value as
        of the beginning of the batch).
        """
        if self.shared.staged_start is not None:
            self.staged_carry = carry()

    def absorb_completed(self, cohort: int, delta: AggregateState) -> None:
        """Fold one cohort's completion delta into the running total."""
        carry = self.carries[cohort]
        if carry.count == 0:
            return
        self._total = self._total.merge(carry.combine(delta))

    def chain_value(self) -> AggregateState:
        """Aggregate over completed matches of the chain up to this segment."""
        return self._total

    # -- checkpointing -----------------------------------------------------------
    def export_state(self) -> dict:
        """Snapshot carries and running total (JSON-safe)."""
        return {
            "carries": [carry.as_tuple() for carry in self.carries],
            "total": self._total.as_tuple(),
        }

    def restore_state(self, state: dict) -> None:
        """Restore a snapshot produced by :meth:`export_state`."""
        self.carries[:] = [AggregateState.from_tuple(carry) for carry in state["carries"]]
        self._total = AggregateState.from_tuple(state["total"])

    def reset(self) -> None:
        """Clear per-scope state so the runner can serve a new scope."""
        self.carries.clear()
        self._total = _ZERO

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"SharedSegmentRunner({self.shared.pattern!r}, cohorts={len(self.carries)})"


class QueryChainState:
    """The full evaluation chain of one query inside one scope."""

    __slots__ = ("query", "runners", "_staged", "_private")

    def __init__(
        self, query: Query, decomposition: QueryDecomposition, shared_states: dict
    ) -> None:
        self.query = query
        #: Segment runners in chain order.
        self.runners: list = []
        #: ``(runner, carry provider)`` of every runner that observes batches
        #: — all but a leading :class:`PrefixFreeRunner`.
        self._staged: list = []
        #: The private segments, the only runners with a commit phase of
        #: their own (shared states commit their runners' carries).
        self._private: list[PrivateSegmentState] = []
        carry: CarryProvider = AggregateState.unit
        for index, segment in enumerate(decomposition.segments):
            if not segment.is_shared:
                runner = PrivateSegmentState(segment.pattern, query.aggregate)
                self._private.append(runner)
            elif index == 0:
                runner = PrefixFreeRunner(shared_states[segment.pattern], query.aggregate)
            else:
                runner = SharedSegmentRunner(shared_states[segment.pattern], query.aggregate)
            if index > 0 or not segment.is_shared:
                self._staged.append((runner, carry))
            self.runners.append(runner)
            carry = runner.chain_value

    def stage_batch(self, batch: ColumnarBatch, rows: TypeRows) -> None:
        """Stage one same-timestamp batch (``rows`` by type) through every observing runner.

        All carry reads observe committed (pre-batch) upstream values, so the
        chain never links events sharing a timestamp.
        """
        for runner, carry in self._staged:
            runner.stage_batch(batch, rows, carry)

    def commit(self) -> None:
        """Commit the private segments' staged additions."""
        for state in self._private:
            state.commit()

    def final_state(self) -> AggregateState:
        """The aggregate state over complete matches of the whole query pattern."""
        return self.runners[-1].chain_value()

    def final_value(self):
        """The query's result value for this scope (RETURN clause applied)."""
        return self.query.aggregate.finalize(self.final_state())

    # -- checkpointing -----------------------------------------------------------
    def export_state(self) -> list:
        """Snapshot every segment runner, in chain order (JSON-safe)."""
        return [runner.export_state() for runner in self.runners]

    def restore_state(self, states: Sequence) -> None:
        """Restore a snapshot produced by :meth:`export_state`."""
        if len(states) != len(self.runners):
            raise ValueError(
                f"snapshot has {len(states)} segments, chain has {len(self.runners)}"
            )
        for runner, state in zip(self.runners, states):
            runner.restore_state(state)

    def reset(self) -> None:
        """Clear every runner so the chain can serve a new scope."""
        for runner in self.runners:
            runner.reset()

    @property
    def update_count(self) -> int:
        """Total number of private-segment aggregate updates (cost accounting)."""
        return sum(state.updates for state in self._private)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        kinds = [
            "private" if isinstance(r, PrivateSegmentState) else "shared" for r in self.runners
        ]
        return f"QueryChainState({self.query.name}: {' -> '.join(kinds)})"
