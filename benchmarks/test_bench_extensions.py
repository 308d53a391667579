"""Benchmarks: Section 8 extension studies and the exact reference."""

import numpy as np
from conftest import emit

from repro.config import LOW_POWER
from repro.experiments import ext_abb, ext_aging, ext_parallel
from repro.experiments.common import format_rows
from repro.pm import FoxtonStar, LinOpt, OptimalFrozen
from repro.sched import VarFAppIPC
from repro.workloads import make_workload


def test_ext_parallel_applications(benchmark, factory, results_dir):
    result = benchmark.pedantic(
        lambda: ext_parallel.run(n_dies=4, factory=factory),
        rounds=1, iterations=1)
    emit(results_dir, "ext_parallel", result.format_table(),
         benchmark=benchmark,
         metrics={"varf_throughput_cv": result.varf_throughput_cv,
                  "barrier_slack": result.barrier_slack,
                  "barrier_power_saving": result.barrier_power_saving,
                  "budget_speedup": result.budget_speedup})

    # Performance instability shrinks with VarF mapping.
    assert result.varf_throughput_cv < result.random_throughput_cv
    # Barrier-aware DVFS removes most barrier waiting...
    assert result.barrier_slack < 0.5 * result.maxlevel_slack + 0.01
    # ...saves real power at equal pace, and wins under a budget.
    assert result.barrier_power_saving > 0.05
    assert result.budget_speedup > 1.0


def test_ext_aging_wearout(benchmark, factory, results_dir):
    result = benchmark.pedantic(
        lambda: ext_aging.run(n_epochs=6, factory=factory),
        rounds=1, iterations=1)
    rand = result.trajectories["Random"]
    varf = result.trajectories["VarF&AppIPC"]
    emit(results_dir, "ext_aging", result.format_table(),
         benchmark=benchmark,
         metrics={"varf_final_freq_ratio": varf.freq_ratio[-1],
                  "random_final_freq_ratio": rand.freq_ratio[-1],
                  "varf_final_fmax_ghz": varf.mean_fmax_ghz[-1]})
    # Everyone slows down with age.
    assert varf.mean_fmax_ghz[-1] < varf.mean_fmax_ghz[0]
    # Concentrating load on the fast cores self-levels the spread.
    assert varf.freq_ratio[-1] < varf.freq_ratio[0]
    assert varf.freq_ratio[-1] < rand.freq_ratio[-1]


def test_ext_abb_mitigation(benchmark, factory, results_dir):
    result = benchmark.pedantic(
        lambda: ext_abb.run(n_dies=3, factory=factory),
        rounds=1, iterations=1)
    emit(results_dir, "ext_abb", result.format_table(),
         benchmark=benchmark,
         metrics={"freq_ratio_before": result.freq_ratio_before,
                  "freq_ratio_after": result.freq_ratio_after,
                  "unifreq_speedup": result.unifreq_speedup,
                  "varf_gain_after": result.varf_gain_after})

    # Humenay et al.: frequency spread shrinks, power spread grows.
    assert result.freq_ratio_after < result.freq_ratio_before - 0.05
    assert result.power_ratio_after > result.power_ratio_before
    # UniFreq gains outright; the VarF scheduling gain shrinks.
    assert result.unifreq_speedup > 1.02
    assert result.varf_gain_after < result.varf_gain_before


def test_optimal_frozen_reference(benchmark, factory, results_dir):
    """LinOpt vs the exact frozen-temperature optimum (MCKP B&B)."""
    def run():
        rows = []
        for trial in range(2):
            chip = factory.chip(trial)
            rng = np.random.default_rng(trial)
            wl = make_workload(16, rng)
            asg = VarFAppIPC().assign_with_profiling(chip, wl, rng)
            fox = FoxtonStar().set_levels(chip, wl, asg, LOW_POWER)
            lin = LinOpt().set_levels(chip, wl, asg, LOW_POWER)
            opt = OptimalFrozen(n_iterations=2).set_levels(
                chip, wl, asg, LOW_POWER)
            base = fox.state.throughput_mips
            rows.append([trial,
                         lin.state.throughput_mips / base,
                         opt.state.throughput_mips / base,
                         opt.stats["mckp_nodes"]])
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    table = format_rows(
        ["trial", "LinOpt vs Foxton*", "exact MCKP vs Foxton*",
         "B&B nodes"],
        rows,
        "Reference: LinOpt vs the exact frozen-temperature optimum")
    emit(results_dir, "optimal_frozen", table,
         benchmark=benchmark,
         metrics={"linopt_vs_foxton_trial0": rows[0][1],
                  "exact_vs_foxton_trial0": rows[0][2]})

    for _, lin, opt, _ in rows:
        # The LP heuristic lands within ~1.5% of the exact optimum.
        assert lin > opt - 0.015
