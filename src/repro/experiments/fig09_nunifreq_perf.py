"""Figure 9 (+ Section 7.4 text): NUniFreq performance policies.

Fig. 9(a): average frequency of the active cores relative to Random
for Random / VarF / VarF&AppIPC (VarF and VarF&AppIPC select the same
cores, so their frequency bars coincide). Fig. 9(b): throughput (MIPS)
relative to Random — VarF&AppIPC delivers 5-10 % consistently, VarF
only helps at light load and degenerates to Random at 20 threads.

Also reproduces the Section 7.4 claim that NUniFreq beats UniFreq at
full occupancy by ~15 % average frequency, ~10 % more power and ~20 %
lower ED^2. Both run on :func:`~repro.experiments.common.trial_table`
under the ``fig9`` campaign tag.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from ..runtime.evaluation import (
    evaluate_max_levels,
    evaluate_uniform_frequency,
)
from ..sched import RandomPolicy, VarF, VarFAppIPC
from .common import (
    Arm,
    ChipFactory,
    default_n_dies,
    default_n_trials,
    format_rows,
    normalise,
    trial_table,
)
from .sched_runner import PolicyAverages, run_policy_comparison

THREAD_COUNTS: Tuple[int, ...] = (2, 4, 8, 16, 20)
POLICY_ORDER = ("Random", "VarF", "VarF&AppIPC")


@dataclass(frozen=True)
class NUniVsUni:
    """Section 7.4: NUniFreq / UniFreq at full occupancy."""

    frequency_ratio: float
    power_ratio: float
    ed2_ratio: float


@dataclass(frozen=True)
class Fig09Result:
    results: Dict[int, Dict[str, PolicyAverages]]
    nunifreq_vs_unifreq: NUniVsUni

    def format_table(self) -> str:
        rows_a, rows_b = [], []
        for nt in sorted(self.results):
            per = self.results[nt]
            rows_a.append([nt] + [per[p].frequency for p in POLICY_ORDER])
            rows_b.append([nt] + [per[p].mips for p in POLICY_ORDER])
        header = ["threads"] + list(POLICY_ORDER)
        cmp = self.nunifreq_vs_unifreq
        return "\n".join([
            format_rows(header, rows_a,
                        "Figure 9(a): NUniFreq average frequency relative "
                        "to Random (paper: VarF +10% at 4T, ~1.0 at 20T)"),
            "",
            format_rows(header, rows_b,
                        "Figure 9(b): NUniFreq throughput relative to "
                        "Random (paper: VarF&AppIPC +5-10%)"),
            "",
            "Section 7.4 (NUniFreq vs UniFreq, 20 threads): "
            f"frequency x{cmp.frequency_ratio:.3f} (paper ~1.15), "
            f"power x{cmp.power_ratio:.3f} (paper ~1.10), "
            f"ED^2 x{cmp.ed2_ratio:.3f} (paper ~0.80)",
        ])


def nunifreq_vs_unifreq(factory: ChipFactory, n_trials: int, n_dies: int,
                        seed: int = 0) -> NUniVsUni:
    """Section 7.4 comparison at full occupancy with Random mapping."""
    configs = (Arm("NUniFreq", evaluate_max_levels),
               Arm("UniFreq", evaluate_uniform_frequency))

    def measure(config: Arm, trial: int, chip, workload, _rng):
        rng = np.random.default_rng([seed, trial, 17])
        assignment = RandomPolicy().assign_with_profiling(chip, workload, rng)
        state = config.spec(chip, workload, assignment)
        return [state.mean_frequency, state.total_power, state.ed2_relative]

    table = trial_table(
        factory, configs, measure, n_threads=factory.arch.n_cores,
        n_trials=n_trials, n_dies=n_dies, seed=seed, workload_tag=13,
        experiment="fig9", name_field="config",
        key_fields={"kind": "nuni"},
        complete_scope=f"nuni:fig9:trials{n_trials}:seed{seed}")
    ratios = normalise(table, [c.name for c in configs], "UniFreq")
    return NUniVsUni(*(float(r) for r in ratios["NUniFreq"]))


def run(
    n_trials: Optional[int] = None,
    n_dies: Optional[int] = None,
    thread_counts: Sequence[int] = THREAD_COUNTS,
    factory: Optional[ChipFactory] = None,
    seed: int = 0,
) -> Fig09Result:
    """Reproduce Figure 9 and the Section 7.4 comparison."""
    n_trials = n_trials or default_n_trials()
    n_dies = n_dies or min(default_n_dies(), n_trials)
    factory = factory or ChipFactory()
    policies = (RandomPolicy(), VarF(), VarFAppIPC())
    results = {}
    for nt in thread_counts:
        results[nt] = run_policy_comparison(
            factory, policies, evaluate_max_levels, nt, n_trials, n_dies,
            seed=seed, experiment="fig9")
    return Fig09Result(
        results=results,
        nunifreq_vs_unifreq=nunifreq_vs_unifreq(
            factory, n_trials, n_dies, seed=seed),
    )
