"""Ablation studies for the design choices DESIGN.md calls out.

* ``run_fit_ablation`` — LinOpt with 3-point vs 2-point power
  profiling (Table 3 allows "3 (or 2)" voltages) and floor vs nearest
  rounding of the continuous LP solution.
* ``run_slp_ablation`` — single-pass LinOpt (the paper's literal
  global linearisation) vs the successive-LP refinement, showing where
  the linear approximation of the convex p(V) curve costs throughput.
* ``run_thermal_ablation`` — VarP&AppP's power-evening rationale:
  its power saving with normal lateral thermal coupling vs with
  coupling weakened 5x (poor heat spreading, hot spots amplified).
  Fully disabling coupling triggers leakage-temperature runaway on
  loaded dies — itself a demonstration of why the coupling matters.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

import numpy as np

from ..config import COST_PERFORMANCE, LOW_POWER, PowerEnvironment
from ..pm import FoxtonStar, LinOpt, LinOptConfig
from ..runtime.evaluation import evaluate_max_levels
from ..sched import RandomPolicy, VarFAppIPC, VarPAppP
from ..thermal import ThermalNetwork
from ..workloads import make_workload
from .common import ChipFactory, format_rows


@dataclass(frozen=True)
class AblationResult:
    """Named variants -> mean metric value."""

    title: str
    metric: str
    values: Dict[str, float]

    def format_table(self) -> str:
        rows = [[name, value] for name, value in self.values.items()]
        return format_rows(["variant", self.metric], rows, self.title)


def _linopt_throughput(factory: ChipFactory, config: LinOptConfig,
                       env: PowerEnvironment, n_threads: int,
                       n_trials: int, seed: int) -> float:
    """Mean LinOpt throughput relative to Foxton* (same scheduling)."""
    factory.prefetch(n_trials)
    ratios = []
    for trial in range(n_trials):
        chip = factory.chip(trial)
        workload = make_workload(
            n_threads, np.random.default_rng([seed, trial, 51]))
        rng = np.random.default_rng([seed, trial, 53])
        assignment = VarFAppIPC().assign_with_profiling(chip, workload, rng)
        fox = FoxtonStar().set_levels(chip, workload, assignment, env)
        lin = LinOpt(config).set_levels(chip, workload, assignment, env)
        ratios.append(lin.state.throughput_mips
                      / fox.state.throughput_mips)
    return float(np.mean(ratios))


def run_fit_ablation(
    n_trials: int = 4,
    n_threads: int = 16,
    env: PowerEnvironment = LOW_POWER,
    factory: Optional[ChipFactory] = None,
    seed: int = 0,
) -> AblationResult:
    """3- vs 2-point power fit, floor vs nearest rounding."""
    factory = factory or ChipFactory()
    variants = {
        "3-point fit, floor": LinOptConfig(),
        "2-point fit, floor": LinOptConfig(n_profile_voltages=2),
        "3-point fit, nearest": LinOptConfig(rounding="nearest"),
        "3-point, no refill": LinOptConfig(refill=False),
    }
    values = {
        name: _linopt_throughput(factory, cfg, env, n_threads,
                                 n_trials, seed)
        for name, cfg in variants.items()
    }
    return AblationResult(
        title="Ablation: LinOpt power-fit and rounding variants "
              f"({env.name}, {n_threads} threads)",
        metric="TP vs Foxton*",
        values=values,
    )


def run_slp_ablation(
    n_trials: int = 4,
    n_threads: int = 16,
    env: PowerEnvironment = LOW_POWER,
    factory: Optional[ChipFactory] = None,
    seed: int = 0,
) -> AblationResult:
    """Single global LP pass vs successive local re-linearisation."""
    factory = factory or ChipFactory()
    values = {}
    for n_iter in (1, 2, 3, 6):
        cfg = LinOptConfig(n_iterations=n_iter)
        values[f"{n_iter} LP pass(es)"] = _linopt_throughput(
            factory, cfg, env, n_threads, n_trials, seed)
    return AblationResult(
        title="Ablation: successive-LP passes (global linearisation of "
              f"the convex p(V) is pass 1; {env.name})",
        metric="TP vs Foxton*",
        values=values,
    )


def run_thermal_ablation(
    n_trials: int = 6,
    n_threads: int = 8,
    factory: Optional[ChipFactory] = None,
    seed: int = 0,
) -> AblationResult:
    """VarP&AppP power saving with strong vs weak heat spreading."""
    normal = factory or ChipFactory()
    isolated = ChipFactory(tech=normal.tech, arch=normal.arch,
                           seed=normal.seed)
    isolated.thermal = ThermalNetwork(isolated.floorplan, g_lateral=0.01)
    isolated._chips = {}

    def saving(fac: ChipFactory) -> float:
        fac.prefetch(n_trials)
        ratios = []
        for trial in range(n_trials):
            chip = fac.chip(trial)
            workload = make_workload(
                n_threads, np.random.default_rng([seed, trial, 61]))
            rng = np.random.default_rng([seed, trial, 67])
            rand = RandomPolicy().assign_with_profiling(chip, workload, rng)
            vpap = VarPAppP().assign_with_profiling(chip, workload, rng)
            p_rand = evaluate_max_levels(chip, workload, rand).total_power
            p_vpap = evaluate_max_levels(chip, workload, vpap).total_power
            ratios.append(p_vpap / p_rand)
        return float(np.mean(ratios))

    return AblationResult(
        title="Ablation: VarP&AppP power vs Random, with and without "
              "lateral thermal coupling",
        metric="power vs Random",
        values={
            "lateral coupling on": saving(normal),
            "lateral coupling weak": saving(isolated),
        },
    )
