"""Extension experiment: scheduling policy vs CMP wearout (Section 8).

Simulates months of operation. Each epoch, a half-loaded
multiprogrammed workload is scheduled by the policy under test and
the resulting per-core (voltage, temperature, duty) stress feeds the
NBTI model; the chip is then re-binned with the accumulated Vth
shifts.

The question the paper poses: *how do variation-aware algorithms
affect wearout?* The answer this experiment produces: VarF-style
policies concentrate stress on the fastest (lowest-Vth) cores, aging
exactly the cores whose speed the policy exploits — the core-to-core
frequency spread self-levels over the lifetime and the policy's
advantage over Random decays, while Random spreads stress (and
therefore keeps more of the original spread).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..aging import AgingState, SECONDS_PER_MONTH, aged_chip
from ..runtime.evaluation import evaluate_max_levels
from ..sched import RandomPolicy, SchedulingPolicy, VarFAppIPC
from ..workloads import make_workload
from .common import ChipFactory, format_rows


@dataclass(frozen=True)
class AgingTrajectory:
    """Per-epoch statistics of one policy's lifetime run."""

    policy: str
    months: Tuple[float, ...]
    mean_fmax_ghz: Tuple[float, ...]
    freq_ratio: Tuple[float, ...]
    throughput_mips: Tuple[float, ...]


@dataclass(frozen=True)
class ExtAgingResult:
    trajectories: Dict[str, AgingTrajectory]

    def format_table(self) -> str:
        names = list(self.trajectories)
        first = self.trajectories[names[0]]
        rows = []
        for k, month in enumerate(first.months):
            row = [f"{month:.0f}"]
            for name in names:
                tr = self.trajectories[name]
                row.extend([tr.mean_fmax_ghz[k], tr.freq_ratio[k]])
            rows.append(row)
        header = ["month"]
        for name in names:
            header.extend([f"{name} fmax (GHz)", f"{name} f-ratio"])
        return format_rows(
            header, rows,
            "Extension: NBTI wearout under different schedulers "
            "(Section 8; variation-aware use self-levels the spread)")


def run(
    n_epochs: int = 8,
    epoch_months: float = 6.0,
    n_threads: int = 10,
    die_index: int = 0,
    factory: Optional[ChipFactory] = None,
    seed: int = 0,
) -> ExtAgingResult:
    """Age one die under each scheduling policy."""
    factory = factory or ChipFactory()
    fresh = factory.chip(die_index)
    policies: Tuple[SchedulingPolicy, ...] = (RandomPolicy(),
                                              VarFAppIPC())
    trajectories: Dict[str, AgingTrajectory] = {}
    for policy in policies:
        chip = fresh
        aging = AgingState(chip.n_cores)
        months: List[float] = [0.0]
        fmax: List[float] = [float(chip.fmax_array.mean()) / 1e9]
        ratio: List[float] = [float(chip.fmax_array.max()
                                    / chip.fmax_array.min())]
        tput: List[float] = []
        for epoch in range(n_epochs):
            rng = np.random.default_rng([seed, epoch, 71])
            workload = make_workload(n_threads, rng)
            assignment = policy.assign_with_profiling(chip, workload,
                                                      rng)
            state = evaluate_max_levels(chip, workload, assignment)
            tput.append(state.throughput_mips)

            vdd = np.zeros(chip.n_cores)
            temps = np.full(chip.n_cores,
                            chip.thermal.ambient_k)
            duty = np.zeros(chip.n_cores)
            core_temps = state.block_temps[: chip.n_cores]
            for i, core in enumerate(assignment.core_of):
                vdd[core] = state.voltages[i]
                temps[core] = core_temps[core]
                duty[core] = 1.0
            aging.apply_epoch(epoch_months * SECONDS_PER_MONTH,
                              vdd, temps, duty)
            chip = aged_chip(fresh, aging.shifts)
            months.append((epoch + 1) * epoch_months)
            fmax.append(float(chip.fmax_array.mean()) / 1e9)
            ratio.append(float(chip.fmax_array.max()
                               / chip.fmax_array.min()))
        # Final-epoch throughput on the fully aged chip.
        rng = np.random.default_rng([seed, n_epochs, 71])
        workload = make_workload(n_threads, rng)
        assignment = policy.assign_with_profiling(chip, workload, rng)
        tput.append(evaluate_max_levels(chip, workload,
                                        assignment).throughput_mips)
        trajectories[policy.name] = AgingTrajectory(
            policy=policy.name,
            months=tuple(months),
            mean_fmax_ghz=tuple(fmax),
            freq_ratio=tuple(ratio),
            throughput_mips=tuple(tput),
        )
    return ExtAgingResult(trajectories=trajectories)
