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

Each runs on :func:`~repro.experiments.common.trial_table` under its
own campaign tag (``ablation_fit``, ``ablation_slp``,
``ablation_thermal``); LinOpt variants share one Foxton* baseline.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Dict, Optional

import numpy as np

from ..config import LOW_POWER, PowerEnvironment
from ..pm import FoxtonStar, LinOpt, LinOptConfig
from ..runtime.evaluation import evaluate_max_levels
from ..sched import RandomPolicy, VarFAppIPC, VarPAppP
from ..thermal import ThermalNetwork
from .common import Arm, ChipFactory, format_rows, normalise, trial_table


@dataclass(frozen=True)
class AblationResult:
    """Named variants -> mean metric value."""

    title: str
    metric: str
    values: Dict[str, float]

    def format_table(self) -> str:
        rows = [[name, value] for name, value in self.values.items()]
        return format_rows(["variant", self.metric], rows, self.title)


def _linopt_throughput(factory: ChipFactory,
                       variants: Dict[str, LinOptConfig],
                       env: PowerEnvironment, n_threads: int,
                       n_trials: int, seed: int,
                       experiment: str) -> Dict[str, float]:
    """Mean throughput of each LinOpt variant relative to Foxton*."""
    arms = [Arm("Foxton*", None)] + [Arm(*item) for item in variants.items()]

    def measure(arm: Arm, trial: int, chip, workload, _rng):
        rng = np.random.default_rng([seed, trial, 53])
        assignment = VarFAppIPC().assign_with_profiling(chip, workload, rng)
        manager = FoxtonStar() if arm.spec is None else LinOpt(arm.spec)
        return [manager.set_levels(chip, workload, assignment,
                                   env).state.throughput_mips]

    table = trial_table(
        factory, arms, measure, n_threads=n_threads, n_trials=n_trials,
        n_dies=n_trials, seed=seed, workload_tag=51,
        experiment=experiment, name_field="variant",
        key_fields={"env": repr(sorted(asdict(env).items())),
                    "variants": repr(sorted(variants.items()))})
    means = normalise(table, [arm.name for arm in arms], "Foxton*")
    return {name: float(means[name][0]) for name in variants}


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
    values = _linopt_throughput(factory, variants, env, n_threads,
                                n_trials, seed, "ablation_fit")
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
    variants = {f"{n_iter} LP pass(es)": LinOptConfig(n_iterations=n_iter)
                for n_iter in (1, 2, 3, 6)}
    values = _linopt_throughput(factory, variants, env, n_threads,
                                n_trials, seed, "ablation_slp")
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
    weak = ChipFactory(tech=normal.tech, arch=normal.arch, seed=normal.seed,
                       workers=normal.workers, cache=normal.cache)
    weak.thermal = ThermalNetwork(weak.floorplan, g_lateral=0.01)
    policies = (RandomPolicy(), VarPAppP())

    def measure(policy, trial: int, chip, workload, _rng):
        # VarP&AppP profiles with the stream Random's draw left behind.
        rng = np.random.default_rng([seed, trial, 67])
        assignments = {p.name: p.assign_with_profiling(chip, workload, rng)
                       for p in policies}
        return [evaluate_max_levels(chip, workload,
                                    assignments[policy.name]).total_power]

    def saving(fac: ChipFactory) -> float:
        # The factories differ only here, so it keys their units apart.
        g_lateral = fac.thermal.g_lateral
        table = trial_table(
            fac, policies, measure, n_threads=n_threads,
            n_trials=n_trials, n_dies=n_trials, seed=seed,
            workload_tag=61, experiment="ablation_thermal",
            name_field="policy", key_fields={"g_lateral": g_lateral})
        ratios = normalise(table, [p.name for p in policies], "Random")
        return float(ratios["VarP&AppP"][0])

    return AblationResult(
        title="Ablation: VarP&AppP power vs Random, with and without "
              "lateral thermal coupling",
        metric="power vs Random",
        values={
            "lateral coupling on": saving(normal),
            "lateral coupling weak": saving(weak),
        },
    )
