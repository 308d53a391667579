"""Scheduling-policy comparison for the experiments of Figs. 7-10.

Each trial draws a fresh multiprogrammed workload and runs it on one
die of the batch (trials rotate through the dies); every policy sees
the identical (die, workload) pair and its own seeded rng, so
differences are purely algorithmic. Results are normalised to the
Random baseline per trial and then averaged, matching the paper's
protocol (Section 6.4).

This module only says how one (policy, die, workload) unit is
measured: the policy's assignment, evaluated by the figure's
``evaluate`` configuration. The trial loop, campaign resume
(``--resume`` / ``REPRO_RESUME=1`` with an ``experiment`` tag) and
normalisation are :func:`repro.experiments.common.trial_table` and
:func:`~repro.experiments.common.normalise`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence

import numpy as np

from ..chip import ChipProfile
from ..runtime.evaluation import SystemState
from ..sched import SchedulingPolicy
from ..workloads import Workload
from .common import (ChipFactory, normalise, require_baseline,
                     trial_table)


@dataclass(frozen=True)
class PolicyAverages:
    """Per-policy metric means, normalised to the baseline policy."""

    policy: str
    power: float
    ed2: float
    mips: float
    frequency: float


EvaluateFn = Callable[..., SystemState]


def run_policy_comparison(
    factory: ChipFactory,
    policies: Sequence[SchedulingPolicy],
    evaluate: EvaluateFn,
    n_threads: int,
    n_trials: int,
    n_dies: int,
    baseline: str = "Random",
    seed: int = 0,
    experiment: Optional[str] = None,
) -> Dict[str, PolicyAverages]:
    """Compare policies at one thread count.

    Args:
        factory: Chip cache for the die batch.
        policies: Policies to compare (distinct names, including the
            baseline).
        evaluate: ``evaluate(chip, workload, assignment) -> SystemState``
            — the configuration being studied (UniFreq / NUniFreq).
        n_threads: Threads per workload.
        n_trials: Workload draws (at least 1).
        n_dies: Dies the trials rotate through (at least 1).
        baseline: Policy the metrics are normalised against.
        seed: Base seed for workloads and policy randomness.
        experiment: Campaign tag (e.g. ``"fig7"``). With resume mode
            active, completed (trial, policy) units checkpoint to the
            campaign journal and are skipped on the next run.

    Returns:
        Mapping policy name -> :class:`PolicyAverages` (baseline-
        normalised; the baseline row is identically 1.0).
    """
    names = [policy.name for policy in policies]
    require_baseline(names, baseline)

    def measure(policy: SchedulingPolicy, trial: int, chip: ChipProfile,
                workload: Workload, rng: np.random.Generator,
                ) -> List[float]:
        assignment = policy.assign_with_profiling(chip, workload, rng)
        state = evaluate(chip, workload, assignment)
        return [state.total_power, state.ed2_relative,
                state.throughput_mips, state.mean_frequency]

    table = trial_table(
        factory, policies, measure, n_threads=n_threads,
        n_trials=n_trials, n_dies=n_dies, seed=seed,
        workload_tag=11, experiment=experiment, name_field="policy",
        key_fields={"kind": "sched"},
        complete_scope=(f"sched:{experiment}:nt{n_threads}"
                        f":trials{n_trials}:seed{seed}"))
    return {name: PolicyAverages(name, *(float(v) for v in mean))
            for name, mean in normalise(table, names, baseline).items()}
