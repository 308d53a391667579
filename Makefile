# Developer entry points. All targets run from the repo root.
PYTHON ?= python
export PYTHONPATH := src

.PHONY: test lint chaos daemon durability pm-trace fleet lp-engines bench bench-gate bench-baseline coverage

test:
	$(PYTHON) -m pytest -x -q -W error::RuntimeWarning

# Fault-injection suite under a real worker pool (CI's 'chaos' job);
# test_experiment_common.py runs the shared trial loop's prefetch there.
chaos:
	REPRO_WORKERS=4 $(PYTHON) -m pytest -x -q tests/test_chaos.py tests/test_journal.py tests/test_storage.py tests/test_experiment_common.py

# Daemon suite: protocol/isolation/acceptance + chaos, plus the tenant
# stack shared with ext-faults (CI's 'daemon' job runs this plus the
# service benchmark under a hard timeout).
daemon:
	$(PYTHON) -m pytest -x -q -W error::RuntimeWarning tests/test_daemon.py tests/test_daemon_chaos.py tests/test_faults.py

# Crash-recovery suite: storage corruption suite, op-log/snapshot
# units, bitwise replay, reconnecting clients, then the real
# SIGKILL-restart chaos run and the traced daemon_durable e2e run
# (span map + pinned digest; CI's 'daemon-durability' job adds the
# recovery-time floor).
durability:
	$(PYTHON) -m pytest -x -q -W error::RuntimeWarning tests/test_storage.py tests/test_daemon_durability.py
	$(PYTHON) -m pytest -x -q -m slow -W error::RuntimeWarning tests/test_daemon_durability.py
	$(PYTHON) -m pytest -x -q -m slow "benchmarks/e2e/test_e2e.py::test_traced_run_matches_the_layer_map[daemon_durable]"

# Traced fig11_sann e2e run: pins the Fig 11 digest and the span map
# through the simulation stepper, the four managers and the kernel
# (CI's 'pm-trace' job; the daemon's traced run is in 'durability').
pm-trace:
	$(PYTHON) -m pytest -x -q -m slow "benchmarks/e2e/test_e2e.py::test_traced_run_matches_the_layer_map[fig11_sann]"

# Fleet subsystem suite plus the kernel tests that pin the fleet entry
# point's bitwise contract (per-row workloads, the columnar result,
# the reductions its row totals rest on), the die-batched binning
# kernel every fleet chunk runs through, the nightly kill/resume
# bitwise check at smoke scale (the scheduled CI job runs it at 10^4
# dies) and the traced fleet_cold e2e run (span map + pinned digest;
# CI's 'fleet' job).
fleet:
	$(PYTHON) -m pytest -x -q -W error::RuntimeWarning tests/test_fleet.py tests/test_characterize_batch.py tests/test_kernel.py::TestPerRowWorkloads tests/test_kernel.py::TestReductionAssumptions
	$(PYTHON) benchmarks/fleet_nightly.py --dies 600 --out /tmp/repro-fleet-nightly
	$(PYTHON) -m pytest -x -q -m slow "benchmarks/e2e/test_e2e.py::test_traced_run_matches_the_layer_map[fleet_cold]"

# LP engine cross-checks against scipy's HiGHS plus the lp_engines
# cases (CI's 'lp-backends' job).
lp-engines:
	$(PYTHON) -m pytest -x -q tests/test_linprog_backends.py tests/test_simplex.py
	$(PYTHON) -m pytest -x -q -m lp_engines -W error::RuntimeWarning tests/test_linopt_internals.py

lint:
	$(PYTHON) -m ruff check src tests benchmarks

# Quick benchmark suite: regenerates benchmarks/results/*.txt and the
# machine-readable BENCH_*.json records. REPRO_FULL=1 for paper sizes.
bench:
	$(PYTHON) -m pytest benchmarks/ --benchmark-only -s

# Compare the BENCH_*.json records against the committed baseline.
bench-gate:
	$(PYTHON) benchmarks/perf_gate.py check

# Refresh benchmarks/baseline.json from a fresh quick run; commit the
# result whenever figure metrics legitimately change.
bench-baseline: bench
	$(PYTHON) benchmarks/perf_gate.py update

coverage:
	$(PYTHON) -m pytest -q -W error::RuntimeWarning --cov=repro --cov-report=term --cov-report=html
