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
from typing import Optional, Sequence, Tuple

import numpy as np

from ..runtime.evaluation import (
    evaluate_max_levels,
    evaluate_uniform_frequency,
)
from ..sched import RandomPolicy, VarF, VarFAppIPC
from .common import Arm, ChipFactory, SweepResult, normalise, trial_table
from .sched_runner import sched_defaults, sweep_policies

THREAD_COUNTS: Tuple[int, ...] = (2, 4, 8, 16, 20)


@dataclass(frozen=True)
class NUniVsUni:
    """Section 7.4: NUniFreq / UniFreq at full occupancy."""

    frequency_ratio: float
    power_ratio: float
    ed2_ratio: float


@dataclass(frozen=True)
class Fig09Result(SweepResult):
    """Figure 9's sweep plus the Section 7.4 ratios."""

    nunifreq_vs_unifreq: NUniVsUni

    def format_table(self) -> str:
        cmp = self.nunifreq_vs_unifreq
        return "\n\n".join([
            super().format_table(),
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
        key_fields={"kind": "nuni"})
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
    n_trials, n_dies, factory = sched_defaults(n_trials, n_dies, factory)
    sweep = sweep_policies(
        "fig9", (RandomPolicy(), VarF(), VarFAppIPC()), evaluate_max_levels,
        (("frequency", "Figure 9(a): NUniFreq average frequency relative "
                       "to Random (paper: VarF +10% at 4T, ~1.0 at 20T)"),
         ("mips", "Figure 9(b): NUniFreq throughput relative to Random "
                  "(paper: VarF&AppIPC +5-10%)")),
        thread_counts, n_trials, n_dies, factory, seed)
    return Fig09Result(**vars(sweep),
                       nunifreq_vs_unifreq=nunifreq_vs_unifreq(
                           factory, n_trials, n_dies, seed=seed))
