# Developer entry points.  PYTHONPATH is injected so no install is needed.
PYTHON ?= python
PYTHONPATH_SRC := PYTHONPATH=src$(if $(PYTHONPATH),:$(PYTHONPATH),)

# Files already migrated to `ruff format`; extend as modules are touched.
FORMAT_PATHS := src/repro/experiments/runner.py tests/experiments/test_runner.py

# Extra flags for the perf-smoke gate.  CI runs on different hardware
# than the committed baseline, so its workflow passes
#   PERF_SMOKE_FLAGS="--allow-machine-mismatch --tolerance 5.0"
# (see .github/workflows/ci.yml and docs/PERFORMANCE.md).
PERF_SMOKE_FLAGS ?=

# Generated run outputs (perf payloads, artifact stores, experiment
# JSON) land here instead of the repo root; the directory is gitignored.
OUT_DIR := benchmarks/out

.PHONY: test bench perf perf-smoke perfbench-smoke faults-smoke dynamic-smoke artifacts-smoke hashseed-smoke invariants lint typecheck experiments fabric fabric-merge ci

test:  ## tier-1 test suite
	$(PYTHONPATH_SRC) $(PYTHON) -m pytest -x -q

bench:  ## full benchmark/experiment suite (pytest-benchmark)
	$(PYTHONPATH_SRC) $(PYTHON) -m pytest benchmarks/ --benchmark-only -s

perf:  ## rewrite the benchmarks/BENCH_views.json perf baseline
	$(PYTHON) benchmarks/run_perf_suite.py

perf-smoke:  ## quick perf gate: fail if view construction regresses >2x vs baseline
	$(PYTHON) benchmarks/run_perf_suite.py --quick --check $(PERF_SMOKE_FLAGS)

perfbench-smoke:  ## the benchmark's own tests, incl. pinned small-size digests (see perfbench/WORKLOADS.md)
	$(PYTHON) -m pytest perfbench/tests -q

faults-smoke:  ## zero-fault differential gate (see docs/FAULTS.md)
	$(PYTHONPATH_SRC) $(PYTHON) -m repro.faults.gate

dynamic-smoke:  ## zero-churn differential gate (see docs/DYNAMIC.md)
	$(PYTHONPATH_SRC) $(PYTHON) -m repro.dynamic.gate

artifacts-smoke:  ## cold/warm artifact-serving differential gate (see docs/ARTIFACTS.md)
	@mkdir -p $(OUT_DIR)
	$(PYTHONPATH_SRC) $(PYTHON) -m repro.artifacts gate \
		--store $(OUT_DIR)/ARTIFACTS_store.jsonl --out $(OUT_DIR)

hashseed-smoke:  ## hash-seed independence gate: canonical bytes under two PYTHONHASHSEEDs
	$(PYTHONPATH_SRC) $(PYTHON) -m repro.experiments.hashseed_gate

invariants:  ## syntactic + interprocedural flow lint (see docs/LINT.md)
	@mkdir -p $(OUT_DIR)
	$(PYTHONPATH_SRC) $(PYTHON) -m repro.lint --baseline LINT_BASELINE.json \
		--json $(OUT_DIR)/LINT_report.json --call-graph $(OUT_DIR)/CALL_GRAPH.json
	$(PYTHONPATH_SRC) $(PYTHON) -m repro.lint tests --warn-only

lint:  ## ruff: lint everything, format-check the migrated files
	@if $(PYTHON) -m ruff --version >/dev/null 2>&1; then \
		$(PYTHON) -m ruff check src tests benchmarks examples && \
		$(PYTHON) -m ruff format --check $(FORMAT_PATHS); \
	else \
		echo "SKIPPED lint: ruff not installed (pip install -e .[dev])"; \
	fi

typecheck:  ## mypy over the typed file set (see [tool.mypy] files in pyproject.toml)
	@if $(PYTHON) -m mypy --version >/dev/null 2>&1; then \
		$(PYTHONPATH_SRC) $(PYTHON) -m mypy; \
	else \
		echo "SKIPPED typecheck: mypy not installed (pip install -e .[dev])"; \
	fi

experiments:  ## run every experiment in parallel, writing the JSON artifact
	@mkdir -p $(OUT_DIR)
	$(PYTHONPATH_SRC) $(PYTHON) -m repro.experiments --all --jobs 4 \
		--json $(OUT_DIR)/RESULTS_experiments.json

fabric:  ## resumable fabric sweep: registry + all grids into the JSONL store
	@mkdir -p $(OUT_DIR)
	$(PYTHONPATH_SRC) $(PYTHON) -m repro.experiments fabric run \
		--all --grids --jobs 4 --store $(OUT_DIR)/FABRIC_results.jsonl

fabric-merge:  ## fold the fabric store into the canonical merged artifact
	@mkdir -p $(OUT_DIR)
	$(PYTHONPATH_SRC) $(PYTHON) -m repro.experiments fabric merge \
		$(OUT_DIR)/FABRIC_results.jsonl --out $(OUT_DIR)/RESULTS_experiments.json

ci: lint typecheck invariants test perfbench-smoke faults-smoke dynamic-smoke artifacts-smoke hashseed-smoke perf-smoke  ## exactly what .github/workflows/ci.yml runs
