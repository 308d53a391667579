"""Extension experiment: ABB mitigation vs variation-aware scheduling.

Humenay et al. (Section 2) reduce the frequency spread with adaptive
body bias, "at the cost of increasing power variation", and note the
approach is complementary to this paper's scheduling. This experiment
quantifies all three claims on our substrate:

1. ABB levelling shrinks the core-to-core frequency ratio;
2. it *widens* the power (leakage) spread;
3. UniFreq (chip runs at the slowest core) gains outright — the chip
   frequency is the levelling target rather than the worst core —
   while the VarF scheduling gain in NUniFreq shrinks because there is
   less spread left to exploit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from ..mitigation import biased_chip, frequency_levelling_biases
from ..runtime.evaluation import evaluate_max_levels
from ..sched import RandomPolicy, VarF
from ..workloads import make_workload
from .common import ChipFactory, format_rows


@dataclass(frozen=True)
class ExtAbbResult:
    freq_ratio_before: float
    freq_ratio_after: float
    power_ratio_before: float
    power_ratio_after: float
    unifreq_speedup: float
    varf_gain_before: float
    varf_gain_after: float

    def format_table(self) -> str:
        rows = [
            ["frequency ratio (max/min fmax)",
             self.freq_ratio_before, self.freq_ratio_after],
            ["rated static power ratio",
             self.power_ratio_before, self.power_ratio_after],
            ["UniFreq chip frequency (norm.)", 1.0,
             self.unifreq_speedup],
            ["VarF throughput gain vs Random (8T)",
             self.varf_gain_before, self.varf_gain_after],
        ]
        return format_rows(
            ["metric", "no ABB", "with ABB"], rows,
            "Extension: adaptive body bias levelling "
            "(Humenay et al.) vs variation-aware scheduling")


def run(
    n_dies: int = 4,
    n_threads: int = 8,
    factory: Optional[ChipFactory] = None,
    seed: int = 0,
) -> ExtAbbResult:
    """Run the ABB mitigation study over a few dies."""
    factory = factory or ChipFactory()
    factory.prefetch(n_dies)
    fr_b, fr_a, pr_b, pr_a, uni, gain_b, gain_a = ([] for _ in range(7))
    for die in range(n_dies):
        chip = factory.chip(die)
        biases = frequency_levelling_biases(chip)
        levelled = biased_chip(chip, biases)

        fr_b.append(chip.fmax_array.max() / chip.fmax_array.min())
        fr_a.append(levelled.fmax_array.max()
                    / levelled.fmax_array.min())
        pr_b.append(chip.static_rated_array.max()
                    / chip.static_rated_array.min())
        pr_a.append(levelled.static_rated_array.max()
                    / levelled.static_rated_array.min())
        uni.append(levelled.min_fmax / chip.min_fmax)

        rng = np.random.default_rng([seed, die, 83])
        workload = make_workload(n_threads, rng)
        for target, acc in ((chip, gain_b), (levelled, gain_a)):
            r = np.random.default_rng([seed, die, 89])
            asg_rand = RandomPolicy().assign(target, workload, r)
            asg_varf = VarF().assign(target, workload, r)
            tp_rand = evaluate_max_levels(target, workload,
                                          asg_rand).throughput_mips
            tp_varf = evaluate_max_levels(target, workload,
                                          asg_varf).throughput_mips
            acc.append(tp_varf / tp_rand)

    return ExtAbbResult(
        freq_ratio_before=float(np.mean(fr_b)),
        freq_ratio_after=float(np.mean(fr_a)),
        power_ratio_before=float(np.mean(pr_b)),
        power_ratio_after=float(np.mean(pr_a)),
        unifreq_speedup=float(np.mean(uni)),
        varf_gain_before=float(np.mean(gain_b)),
        varf_gain_after=float(np.mean(gain_a)),
    )
