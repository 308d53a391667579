"""Scheduling-policy sweep for the experiments of Figs. 7-10.

Each trial draws a fresh multiprogrammed workload and runs it on one
die of the batch (trials rotate through the dies); every policy sees
the identical (die, workload) pair and its own seeded rng, so
differences are purely algorithmic. Results are normalised to the
Random baseline per trial and then averaged, matching the paper's
protocol (Section 6.4).

This module only says how one (policy, die, workload) unit is
measured: the policy's assignment, evaluated by the figure's
``evaluate`` configuration, and :func:`sweep_policies` runs the
comparison at every thread count of a figure. The trial loop, campaign
resume (``--resume`` / ``REPRO_RESUME=1`` with an ``experiment`` tag)
and normalisation are :func:`repro.experiments.common.trial_table` and
:func:`~repro.experiments.common.normalise`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..chip import ChipProfile
from ..runtime.evaluation import SystemState
from ..sched import SchedulingPolicy
from ..workloads import Workload
from .common import (ChipFactory, SweepResult, default_n_dies,
                     default_n_trials, normalise, require_baseline,
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
        key_fields={"kind": "sched"})
    return {name: PolicyAverages(name, *(float(v) for v in mean))
            for name, mean in normalise(table, names, baseline).items()}


def sched_defaults(n_trials: Optional[int], n_dies: Optional[int],
                   factory: Optional[ChipFactory],
                   ) -> Tuple[int, int, ChipFactory]:
    """Figs 7-10's trials, dies and factory where the caller gave none:
    the reduced (or ``REPRO_FULL``) trial count, at most one die per
    trial, and a fresh :class:`ChipFactory`."""
    n_trials = n_trials or default_n_trials()
    return (n_trials, n_dies or min(default_n_dies(), n_trials),
            factory or ChipFactory())


def sweep_policies(
    experiment: str,
    policies: Sequence[SchedulingPolicy],
    evaluate: EvaluateFn,
    panels: Sequence[Tuple[str, str]],
    thread_counts: Sequence[int],
    n_trials: Optional[int] = None,
    n_dies: Optional[int] = None,
    factory: Optional[ChipFactory] = None,
    seed: int = 0,
) -> SweepResult:
    """One scheduling figure: :func:`run_policy_comparison` per thread
    count under the ``experiment`` campaign tag, normalised to Random.

    Rows are the thread counts in ascending order; columns follow
    ``policies``; ``panels`` are the ``(PolicyAverages field, title)``
    tables the figure prints. Defaults come from :func:`sched_defaults`.
    """
    n_trials, n_dies, factory = sched_defaults(n_trials, n_dies, factory)
    results = {nt: run_policy_comparison(
                   factory, policies, evaluate, nt, n_trials, n_dies,
                   seed=seed, experiment=experiment)
               for nt in sorted(thread_counts)}
    return SweepResult(results, "threads",
                       tuple(policy.name for policy in policies),
                       tuple(panels))
