PYTHON ?= python
export PYTHONPATH := src$(if $(PYTHONPATH),:$(PYTHONPATH),)

## Differential-grid sizes (override to shrink/grow the randomized grids;
## documented in docs/benchmarks.md):
##   ORACLE_DIFF_SCENARIOS   - scenarios replayed through every executor
##                             (columnar and scalar ingestion, panes on/off)
##   PANE_DIFF_SCENARIOS     - pane-stressed scenarios replayed with panes on/off
##   SHARDED_DIFF_SCENARIOS  - scenarios replayed through the group-sharded engine
##   REPLAY_DIFF_SCENARIOS   - recorded-log scenarios replayed, checkpointed,
##                             resumed, and compared to the oracle
##   DISORDER_DIFF_SCENARIOS - scenarios delivered in bounded-disorder arrival
##                             orders through the reorder buffer
##   CHURN_DIFF_SCENARIOS    - seeded random attach/detach schedules replayed
##                             through the churn-capable executor cube
ORACLE_DIFF_SCENARIOS ?= 240
PANE_DIFF_SCENARIOS ?= 120
SHARDED_DIFF_SCENARIOS ?= 40
REPLAY_DIFF_SCENARIOS ?= 60
DISORDER_DIFF_SCENARIOS ?= 60
CHURN_DIFF_SCENARIOS ?= 60
export ORACLE_DIFF_SCENARIOS
export PANE_DIFF_SCENARIOS
export SHARDED_DIFF_SCENARIOS
export REPLAY_DIFF_SCENARIOS
export DISORDER_DIFF_SCENARIOS
export CHURN_DIFF_SCENARIOS

## Best-of-N sample count of the columnar_routing benchmark section
## (BENCH_engine.json and the benchmarks/test_engine_throughput.py gate).
COLUMNAR_BENCH_REPEATS ?= 5
export COLUMNAR_BENCH_REPEATS

.PHONY: test test-fast bench bench-e2e bench-compare figures lint docs-check

test:
	$(PYTHON) -m pytest -x -q

## Tier-1 minus the benchmark suites (unit + property + integration).
test-fast:
	$(PYTHON) -m pytest -x -q tests

## Documentation checks: relative links/anchors in docs/ + README resolve,
## the doc map is complete, and every documented env knob actually exists.
docs-check:
	$(PYTHON) -m pytest -x -q tests/docs

## Benchmark sections to run (empty = all).  Space-separated subset of:
## engine compaction pane_sharing columnar_routing sharded_groups replay
## disorder.  Example: make bench BENCH_SECTIONS="replay"
BENCH_SECTIONS ?=

## Headless engine throughput benchmark; writes BENCH_engine.json.
bench:
	$(PYTHON) -m repro bench $(addprefix --section ,$(BENCH_SECTIONS))

## End-to-end benchmark declared in BENCHMARK.json (log bytes to results, four
## workloads, tracing off); see bench/README.md.  `make bench-compare
## OLD=old.json NEW=new.json` prints per workload x metric verdicts for two
## `bench/run.py --out` reports and exits 1 on a regression.
bench-e2e:
	python3 bench/run.py --trace 0

bench-compare:
	python3 bench/run.py compare $(OLD) $(NEW)

figures:
	$(PYTHON) -m repro figures
