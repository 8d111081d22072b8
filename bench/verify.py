"""Correctness check: seed-sampled result cells recomputed by the brute-force oracle.

A *cell* is one ``(query, window start, entity)`` result.  Each sampled cell is
recomputed with ``OracleExecutor`` on just that window's slice of that
entity's events (canonical order, churn gating applied), so the reference
shares nothing with the engine's prefix aggregation, sharing or reordering.
Zero and absent results are interchangeable, as in ``ResultSet.matches``, so
at least half of the sampled cells are ones the oracle expects a match in.
"""

from __future__ import annotations

import random
from bisect import bisect_left

from inputs import Inputs, query_text

#: Cells recomputed per workload.
SAMPLED_CELLS = 200
#: At most this many of them may have a zero reference value: a cell the
#: oracle expects nothing in is also matched by an engine that emits nothing.
ZERO_CELLS = 100
#: Draws after which sampling stops short (a log with almost no match).
DRAW_LIMIT = 100 * SAMPLED_CELLS


def reference_cells(inputs: Inputs) -> tuple:
    """``(cells, values)``: seed-drawn ``[query name, window start, entity]``
    cells and the oracle's value for each (0 when it emits no result).

    Cells are drawn uniformly; zero-valued ones are kept only up to
    ``ZERO_CELLS``, so at least half of a full sample has something to match.
    """
    from repro.events.event import Event
    from repro.executor.oracle import OracleExecutor
    from repro.queries.parser import parse_query
    from repro.queries.workload import Workload

    spec = inputs.spec
    rng = random.Random(f"cells:{spec.name}:{inputs.seed}")
    last_start = (inputs.units - 1) // spec.slide * spec.slide
    # name -> (pattern, first window start, end of window starts, detach time)
    queries = {name: (pattern, 0, last_start + 1, None) for name, pattern in inputs.queries}
    for query in inputs.churned:
        # A churned query emits the windows starting in [attach, detach) and
        # saw the stream truncated at its detach timestamp.
        first = -(-query.attach // spec.slide) * spec.slide
        stop = last_start + 1 if query.detach is None else query.detach
        queries[query.name] = (query.pattern, first, stop, query.detach)
    names = list(queries)
    oracles = {
        name: OracleExecutor(Workload([parse_query(query_text(spec, pattern), name=name)]))
        for name, (pattern, _first, _stop, _detach) in queries.items()
    }
    passes = -1 if spec.value_filter is None else spec.value_filter

    def oracle_value(name: str, start: int, entity: int) -> int:
        pattern, _first, _stop, detach = queries[name]
        end = start + spec.within
        if detach is not None:
            end = min(end, detach)
        events = inputs.relevant[entity]
        window = events[bisect_left(events, (start,)):bisect_left(events, (end,))]
        present = {type_index for _t, _id, type_index, value in window if value > passes}
        if not present.issuperset(pattern):
            return 0  # some pattern type has no admissible event: no match
        window_events = [
            Event(f"T{type_index}", t, {"entity": entity, "value": value}, event_id)
            for t, event_id, type_index, value in window
        ]
        for result in oracles[name].run(window_events).results:
            if result.window.start == start:
                return result.value or 0
        return 0

    cells, values, seen, zeros = [], [], set(), 0
    for _ in range(DRAW_LIMIT):
        if len(cells) == SAMPLED_CELLS:
            break
        name = rng.choice(names)
        _pattern, first, stop, _detach = queries[name]
        starts = range(first, stop, spec.slide)
        cell = (name, rng.choice(starts) if starts else first, rng.randrange(spec.entities))
        if cell in seen:
            continue
        seen.add(cell)
        value = oracle_value(*cell)
        if not value:
            if zeros == ZERO_CELLS:
                continue
            zeros += 1
        cells.append(list(cell))
        values.append(value)
    return cells, values


def mismatched_cells(expected: list, observed: list) -> int:
    """Cells whose engine value (``None`` = not emitted) differs from the oracle's."""
    return sum(1 for want, got in zip(expected, observed) if want != (got or 0))
