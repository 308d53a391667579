"""Benchmark: batched evaluation kernel vs the serial evaluation loop.

Times the exact batch shapes the rewired power managers hand to
:class:`repro.runtime.kernel.EvalKernel` — the 64-combination slab of
ExhaustiveSearch, one SAnn quench neighbourhood (all ±1 moves plus
pairwise trades) and SAnn's Fig 11 shape (20 threads on the 20-core
die, ~3 candidate columns per call, and one candidate per call) —
against the serial ``evaluate_levels`` loop over the same candidates,
and asserts the batched path is at least 3x faster on the first two
and above the declared ``speedup_sann20`` / ``speedup_sann20_b1``
floors on the last two. Serial and batched rounds are interleaved so
load spikes hit both modes, and the minimum wall per mode is compared
(the robust statistic on a noisy runner).

Also records the kernel observability counters of a full SAnn run
and of two fixed sequences of daemon-shape LinOpt decisions (4 threads
on a 4-core die, three passes, each decision warm-started from the
last one) into ``BENCH_kernel.json``: one with new phase multipliers
at every decision, and one holding them across runs of decisions, as
10 ms re-invocations inside ~50 ms application phases do. They are
deterministic, so the perf gate catches semantic drift in how the
policies batch, how many kernel rows and kernel calls LinOpt's state
memo saves and how many kernels its carry builds.
"""

import time

import numpy as np
from conftest import emit

from repro.chip import characterize_dies
from repro.config import (COST_PERFORMANCE, DEFAULT_ARCH, DEFAULT_TECH,
                          ArchConfig, PowerEnvironment)
from repro.experiments.common import format_rows
from repro.pm import LinOpt, LinOptConfig, SAnnManager
from repro.runtime.evaluation import Assignment, evaluate_levels
from repro.runtime.kernel import EvalKernel
from repro.variation import DieBatch
from repro.workloads import make_workload

# Interleaved measurement rounds per configuration.
N_ROUNDS = 5

SMALL_ARCH = ArchConfig(n_cores=8, die_area_mm2=140.0, grid_resolution=32)
# A daemon tenant's die (35 mm^2 per core, as the daemon builds it).
DAEMON_ARCH = ArchConfig(n_cores=4, die_area_mm2=140.0, grid_resolution=8)
# The daemon benchmark's budget, under which its decisions stay at the
# top operating points, and one that binds on the 4-core die (20-25 W
# at top V/f), under which they quantise, correct and refill.
LINOPT_ENVS = (COST_PERFORMANCE,
               PowerEnvironment("Tight", 15.0, p_core_max=5.0))
LINOPT_DECISIONS = 8
# Decisions per application phase in the same-phase sequence.
LINOPT_PHASE_RUNS = (1, 5, 3, 4, 2)

# (die, threads, candidate rows, seed) per configuration: the
# exhaustive slab matches ExhaustiveSearch._BATCH_COMBOS; the SAnn
# neighbourhood is 2n single moves + n*(n-1) pairwise trades at n=6;
# sann20 is the Fig 11 SAnn call — every core of the 20-core die busy,
# the ~2.5 candidate columns per call its probes and quench issue —
# and sann20_b1 the same die with one candidate per call, the shape of
# an annealing step (most of Fig 11's kernel calls).
CONFIGS = {
    "exhaustive": (SMALL_ARCH, 3, 64, 101),
    "sann": (SMALL_ARCH, 6, 42, 102),
    "sann20": (DEFAULT_ARCH, 20, 3, 104),
    "sann20_b1": (DEFAULT_ARCH, 20, 1, 105),
}

MIN_SPEEDUP = 3.0
# Hard floors on the Fig 11-shape speedups (about half the measured
# ~7x at three candidates and ~5x at one on a 2-CPU x86-64 runner),
# enforced here and by the perf gate.
FLOORS = {"speedup_sann20": 3.5, "speedup_sann20_b1": 2.5}


def _case(chip, n_threads, n_rows, seed):
    rng = np.random.default_rng(seed)
    workload = make_workload(n_threads, rng)
    cores = rng.choice(chip.n_cores, size=n_threads, replace=False)
    assignment = Assignment(core_of=tuple(int(c) for c in cores))
    max_lv = min(chip.cores[c].vf_table.n_levels
                 for c in assignment.core_of)
    matrix = rng.integers(0, max_lv, size=(n_rows, n_threads))
    return workload, assignment, matrix


def _linopt_counters(chip):
    """Evaluation counters summed over a fixed sequence of daemon-shape
    LinOpt decisions, with new phase multipliers at every decision."""
    totals = {"evaluations": 0.0, "kernel_evaluations": 0.0,
              "kernel_batches": 0.0, "state_memo_hits": 0.0}
    for env in LINOPT_ENVS:
        rng = np.random.default_rng(106)
        workload = make_workload(4, rng)
        assignment = Assignment(core_of=(0, 1, 2, 3))
        manager = LinOpt(LinOptConfig(n_iterations=3))
        warm = {}
        for _ in range(LINOPT_DECISIONS):
            result = manager.set_levels(
                chip, workload, assignment, env,
                ipc_multipliers=rng.uniform(0.7, 1.3, 4),
                ceff_multipliers=rng.uniform(0.8, 1.2, 4), **warm)
            warm = dict(initial_levels=result.levels,
                        initial_state=result.state)
            totals["evaluations"] += result.evaluations
            totals["kernel_evaluations"] += (
                result.stats["kernel_evaluations"])
            totals["kernel_batches"] += result.stats["kernel_batches"]
            totals["state_memo_hits"] += result.stats["state_memo_hits"]
    return totals


def _linopt_phase_counters(chip, monkeypatch):
    """Evaluation counters and kernel builds summed over daemon-shape
    LinOpt decisions whose phase multipliers hold for
    ``LINOPT_PHASE_RUNS`` decisions at a time."""
    totals = {"evaluations": 0.0, "kernel_evaluations": 0.0,
              "kernel_batches": 0.0, "state_memo_hits": 0.0,
              "kernel_builds": 0.0}
    init = EvalKernel.__init__

    def counting_init(self, *args, **kwargs):
        totals["kernel_builds"] += 1
        init(self, *args, **kwargs)

    with monkeypatch.context() as patch:
        patch.setattr(EvalKernel, "__init__", counting_init)
        for env in LINOPT_ENVS:
            rng = np.random.default_rng(107)
            workload = make_workload(4, rng)
            assignment = Assignment(core_of=(0, 1, 2, 3))
            manager = LinOpt(LinOptConfig(n_iterations=3))
            warm = {}
            for run in LINOPT_PHASE_RUNS:
                phase = dict(ipc_multipliers=rng.uniform(0.7, 1.3, 4),
                             ceff_multipliers=rng.uniform(0.8, 1.2, 4))
                for _ in range(run):
                    result = manager.set_levels(
                        chip, workload, assignment, env, **phase, **warm)
                    warm = dict(initial_levels=result.levels,
                                initial_state=result.state)
                    totals["evaluations"] += result.evaluations
                    totals["kernel_evaluations"] += (
                        result.stats["kernel_evaluations"])
                    totals["kernel_batches"] += (
                        result.stats["kernel_batches"])
                    totals["state_memo_hits"] += (
                        result.stats["state_memo_hits"])
    return totals


def test_kernel_batch_speedup(benchmark, results_dir, monkeypatch):
    tech = DEFAULT_TECH
    chips = {arch: characterize_dies(
        DieBatch(tech, arch, n_dies=1, seed=7)[:1], tech, arch)[0]
        for arch in (SMALL_ARCH, DEFAULT_ARCH, DAEMON_ARCH)}

    cases = {}
    for name, (arch, n_threads, n_rows, seed) in CONFIGS.items():
        chip = chips[arch]
        workload, assignment, matrix = _case(chip, n_threads, n_rows,
                                             seed)
        kernel = EvalKernel(chip, workload, assignment)
        # Sanity-check identity once before timing anything — a fast
        # kernel that disagrees with the serial loop benchmarks
        # nothing.
        states = kernel.evaluate_levels_batch(matrix)
        ref = evaluate_levels(chip, workload, assignment,
                              list(matrix[0]))
        assert states[0].total_power == ref.total_power
        np.testing.assert_array_equal(states[0].block_temps,
                                      ref.block_temps)
        cases[name] = (chip, workload, assignment, matrix, kernel)

    def measure():
        walls = {}
        for name, (chip, workload, assignment, matrix,
                   kernel) in cases.items():
            rows = [list(r) for r in matrix]
            serial_walls, batch_walls = [], []
            for _ in range(N_ROUNDS):
                t0 = time.perf_counter()
                for levels in rows:
                    evaluate_levels(chip, workload, assignment, levels)
                serial_walls.append(time.perf_counter() - t0)
                t0 = time.perf_counter()
                kernel.evaluate_levels_batch(matrix)
                batch_walls.append(time.perf_counter() - t0)
            walls[name] = (min(serial_walls), min(batch_walls))
        return walls

    walls = benchmark.pedantic(measure, rounds=1, iterations=1)

    # Kernel observability of a real policy run: deterministic batch
    # counters the perf gate can hold to the baseline.
    chip = chips[SMALL_ARCH]
    workload, assignment, _ = _case(chip, 6, 1, 103)
    sann = SAnnManager(n_evaluations=100).set_levels(
        chip, workload, assignment, COST_PERFORMANCE,
        rng=np.random.default_rng(3))

    metrics = {
        "sann_kernel_evaluations": sann.stats["kernel_evaluations"],
        "sann_kernel_batches": sann.stats["kernel_batches"],
        "sann_kernel_batch_max": sann.stats["kernel_batch_max"],
        "sann_evaluations": float(sann.evaluations),
        "sann_cache_hits": sann.stats["sa_cache_hits"],
        **{f"linopt_{key}": value for key, value
           in _linopt_counters(chips[DAEMON_ARCH]).items()},
        **{f"linopt_phase_{key}": value for key, value
           in _linopt_phase_counters(chips[DAEMON_ARCH],
                                     monkeypatch).items()},
    }
    rows = []
    for name, (_, n_threads, n_rows, _) in CONFIGS.items():
        serial_wall, batch_wall = walls[name]
        speedup = serial_wall / batch_wall
        metrics[f"speedup_{name}"] = speedup
        metrics[f"serial_per_eval_{name}_s"] = serial_wall / n_rows
        metrics[f"batch_per_eval_{name}_s"] = batch_wall / n_rows
        rows.append([name, n_threads, n_rows,
                     1e3 * serial_wall, 1e3 * batch_wall, speedup])

    table = format_rows(
        ["config", "threads", "candidates", "serial ms", "batched ms",
         "speedup"],
        rows,
        "Batched evaluation kernel vs serial loop "
        f"(min over {N_ROUNDS} interleaved rounds)")
    emit(results_dir, "kernel", table, benchmark=benchmark,
         metrics=metrics, extra={"floors": FLOORS})

    for name in CONFIGS:
        floor = FLOORS.get(f"speedup_{name}", MIN_SPEEDUP)
        assert metrics[f"speedup_{name}"] >= floor, (
            f"batched evaluation only {metrics[f'speedup_{name}']:.2f}x "
            f"faster than serial on the {name} config")
