PYTHON ?= python
export PYTHONPATH := src$(if $(PYTHONPATH),:$(PYTHONPATH),)

.PHONY: test test-fast soak bench-e2e bench-compare figures lint docs-check

test:
	$(PYTHON) -m pytest -x -q

## Tier-1 minus the benchmark suites (unit + property + integration).  The
## figure-shape gates, the ablations and the stream-scaling gate run with
## `$(PYTHON) -m pytest -x -q benchmarks/` (part of `make test`).
test-fast:
	$(PYTHON) -m pytest -x -q tests

## Soak tests under a fixed and a random hash seed (each within its 5 s
## budget): while a batch is handled the ledger holds only that step's
## blocks (one per closed window x group, never one per result), the lines
## leave the process with or without a results log (a run without one
## writes them to an anonymous spill file), no moment encodes the whole
## output at once, and `repro replay`'s peak does not grow with its log (it
## samples rates in one pass, never loading the log).  An unclosed spill
## file fails the run: its ResourceWarning is raised in a finalizer, which
## pytest reports as an unraisable-exception warning, so both are errors
## here.
SOAK_WARNINGS = -W error::ResourceWarning -W error::pytest.PytestUnraisableExceptionWarning
soak:
	PYTHONHASHSEED=0 $(PYTHON) -m pytest -x -q $(SOAK_WARNINGS) tests/integration/test_soak.py
	PYTHONHASHSEED=random $(PYTHON) -m pytest -x -q $(SOAK_WARNINGS) tests/integration/test_soak.py

## Documentation checks: relative links/anchors in docs/ + README resolve,
## the doc map is complete, and no document names a retired grid-size knob.
docs-check:
	$(PYTHON) -m pytest -x -q tests/docs

## End-to-end benchmark declared in BENCHMARK.json (log bytes to results, four
## workloads, tracing off); see bench/README.md and docs/benchmarks.md.  The
## tracked trajectory is BENCH_e2e.json, written by
## `python3 bench/run.py --trace 0 --out BENCH_e2e.json`.  `make bench-compare
## OLD=old.json NEW=new.json` prints per workload x metric verdicts for two
## `bench/run.py --out` reports and exits 1 on a regression.
bench-e2e:
	python3 bench/run.py --trace 0

bench-compare:
	python3 bench/run.py compare $(OLD) $(NEW)

figures:
	$(PYTHON) -m repro figures
