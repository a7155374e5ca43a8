# Developer entry points.  `make check` is the pre-PR gate: lint + typecheck
# (when ruff/mypy are available), the tier-1 test suite, the static analyzer
# sweep — the happens-before engine plus three structural rules — over every
# registered algorithm and baseline across all O/F/H x update-mode schedule
# variants, the symbolic
# plan-space sweep (`make plans`), which verifies every enumerated plan
# point without constructing a transport or executing a step, and the
# transport-protocol gate (`make protocol`): exhaustive interleaving
# exploration of the shm flag-word protocol model, the seeded-bug mutation
# suite, and a sanitized live conformance run (see docs/backends.md).
# `make typecheck-strict` is the CI variant that *fails* when mypy is
# missing instead of skipping.
# `make perf` prints three report-only microbenches (shm pool reduce, wire
# codec, symbolic lowering); it gates nothing (see docs/performance.md).
# `make e2e-smoke` runs the end-to-end benchmark's own tests and its 12-op
# smoke pass over all five workloads (benchmarks/e2e/README.md): a src/
# change that breaks the surface the benchmark drives fails here.
# `make ab PARENT=<rev> [OUT=BENCH_PRnn.json]` is the A/B procedure a
# perf PR reports (benchmarks/ab_pairs.py): ten alternating 30-s pairs of
# the gated workloads, <rev> against the working tree, ~45 min on a quiet box.
# `make loc` prints the source line total and the per-package subtotals
# (comm, backends, primitives + engine, the planner — optimizer_framework,
# schedule, bucket, profiler — analysis, simulation, algorithms, baselines,
# the autograd package tensor)
# a [simplicity] PR quotes for parent and change (CI appends it to the job
# summary).
# `make imports` is report-only too: the number of repro modules a training
# job's imports load, then the slowest `python -X importtime` rows (cumulative
# microseconds) for the same imports (CI appends it to the job summary next
# to `make loc`; see docs/performance.md "Start-up").
# `make timing` is report-only as well: the wall seconds of each timing-mode
# table regeneration (`python -m repro run <exp>`: table1, table3-5, fig7)
# (CI appends it to the job summary; see docs/performance.md "Timing mode").

PYTHON ?= python
export PYTHONPATH := src

.PHONY: check lint typecheck typecheck-strict test analyze plans protocol perf e2e-smoke ab loc imports \
	timing

check: lint typecheck test analyze plans protocol

lint:
	@if command -v ruff >/dev/null 2>&1; then \
		ruff check src tests benchmarks; \
	else \
		echo "ruff not installed; skipping lint"; \
	fi

# The mypy scope lives in pyproject.toml ([tool.mypy] files = ...): the
# analysis subsystem, the cluster layer, the comm kernels, the perf harness
# and the auto-tuner.
typecheck:
	@if command -v mypy >/dev/null 2>&1; then \
		mypy; \
	else \
		echo "mypy not installed; skipping typecheck"; \
	fi

typecheck-strict:
	mypy

test:
	$(PYTHON) -m pytest -x -q

analyze:
	$(PYTHON) -m repro analyze --all

plans:
	$(PYTHON) -m repro analyze --plans

protocol:
	$(PYTHON) -m repro analyze --protocol

perf:
	$(PYTHON) -m repro perf

e2e-smoke:
	$(PYTHON) -m pytest benchmarks/e2e/tests -q
	$(PYTHON) benchmarks/e2e/run.py --smoke --seed 0

PARENT ?= HEAD~1
OUT ?= BENCH_AB.json
ab:
	$(PYTHON) benchmarks/ab_pairs.py --parent $(PARENT) --out $(OUT)

loc:
	@find src -name '*.py' | xargs wc -l | tail -n 1 | sed 's/total/src/'
	@for part in src/repro/comm "src/repro/cluster/*.py" src/repro/cluster/backends \
		"src/repro/core/primitives.py src/repro/core/engine.py" \
		"src/repro/core/optimizer_framework.py src/repro/core/schedule.py src/repro/core/bucket.py src/repro/core/profiler.py" \
		src/repro/analysis src/repro/analysis/protocol src/repro/simulation \
		src/repro/algorithms src/repro/baselines src/repro/tensor; do \
		find $$part -name '*.py' | xargs cat | wc -l | tr '\n' ' '; echo "$$part"; \
	done

# what a functional-mode training job imports (tests/test_lazy_imports.py)
TRAINING_IMPORTS := repro.training.trainer repro.training.tasks repro.algorithms \
	repro.models repro.cluster.topology repro.core.optimizer_framework repro.tensor \
	repro.simulation
IMPORT_SCRIPT := import importlib, sys; [importlib.import_module(m) for m in sys.argv[1:]]
imports:
	@$(PYTHON) -c "$(IMPORT_SCRIPT); \
		print(sum(m.startswith('repro') for m in sys.modules), 'repro modules')" $(TRAINING_IMPORTS)
	@$(PYTHON) -X importtime -c "$(IMPORT_SCRIPT)" $(TRAINING_IMPORTS) 2>&1 >/dev/null \
		| sort -t '|' -k 2 -n -r | head -n 15

TIMING_EXPERIMENTS := table1 table3 table4 table5 fig7
TIMING_SCRIPT := import subprocess, sys, time; start = time.perf_counter(); \
	subprocess.run([sys.executable, '-m', 'repro', 'run', sys.argv[1]], check=True, \
	stdout=subprocess.DEVNULL); print(f'{time.perf_counter() - start:7.2f} s  run {sys.argv[1]}')
timing:
	@for exp in $(TIMING_EXPERIMENTS); do $(PYTHON) -c "$(TIMING_SCRIPT)" $$exp || exit 1; done
