"""OptimalFrozen — exact discrete DVFS assignment at frozen temperature.

With temperatures frozen at the current thermal state, the DVFS
problem decomposes exactly: each thread contributes an independent
(power, throughput) menu over its core's levels, and the chip budget
couples them — a multiple-choice knapsack, which
:mod:`repro.opt.mckp` solves exactly.

The frozen-temperature power tables are only an approximation of the
thermally-coupled truth (changing a core's voltage changes every
core's leakage through temperature), so like LinOpt the manager
finishes with a sensor-guided correction loop and iterates the whole
profile->solve cycle so the temperature estimate converges.

This manager is a *reference*: it bounds what any frozen-temperature
heuristic (LinOpt included) can achieve, at higher but still very
manageable cost (MCKP with 20 classes x 9 levels solves in
milliseconds). It is not part of the paper; the paper's near-optimal
reference is SAnn.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

from ..chip import ChipProfile
from ..config import PowerEnvironment
from ..opt import MckpItem, solve_mckp
from ..power import PowerSensor
from ..runtime.evaluation import Assignment, SystemState
from ..runtime.kernel import EvalKernel
from ..workloads import Workload
from .base import PmResult, PowerManager, meets_constraints


class OptimalFrozen(PowerManager):
    """Exact MCKP power manager under frozen-temperature tables."""

    name = "OptimalFrozen"

    def __init__(self, n_iterations: int = 3,
                 power_sensor: Optional[PowerSensor] = None) -> None:
        if n_iterations < 1:
            raise ValueError("n_iterations must be positive")
        self.n_iterations = n_iterations
        self.power_sensor = power_sensor or PowerSensor()

    def set_levels(
        self,
        chip: ChipProfile,
        workload: Workload,
        assignment: Assignment,
        env: PowerEnvironment,
        rng: Optional[np.random.Generator] = None,
        initial_levels: Optional[Sequence[int]] = None,
        initial_state: Optional[SystemState] = None,
        ipc_multipliers: Optional[Sequence[float]] = None,
        ceff_multipliers: Optional[Sequence[float]] = None,
    ) -> PmResult:
        p_target, p_core_max = self._budget(chip, assignment, env)
        n = assignment.n_threads
        ipc_mult = (np.ones(n) if ipc_multipliers is None
                    else np.asarray(ipc_multipliers, dtype=float))
        ceff_mult = (np.ones(n) if ceff_multipliers is None
                     else np.asarray(ceff_multipliers, dtype=float))

        # The MCKP solve decides the next point from frozen tables, so
        # evaluations here are inherently sequential — the kernel still
        # pays off as a faster single-candidate path.
        kernel = EvalKernel(chip, workload, assignment,
                            ipc_multipliers=ipc_multipliers,
                            ceff_multipliers=ceff_multipliers)
        evaluate = kernel.evaluate_levels

        levels = (list(initial_levels) if initial_levels is not None
                  else self._top_levels(chip, assignment))
        if initial_state is not None and initial_levels is not None:
            current = initial_state
            evaluations = 0
        else:
            current = evaluate(levels)
            evaluations = 1

        total_nodes = 0
        best = None
        for _ in range(self.n_iterations):
            temps = current.block_temps[: chip.n_cores]
            uncore = self.power_sensor.read(current.l2_power)
            classes: List[List[MckpItem]] = []
            for i, core_id in enumerate(assignment.core_of):
                core = chip.cores[core_id]
                table = core.vf_table
                items = []
                for level in range(table.n_levels):
                    v = float(table.voltages[level])
                    f = float(table.freqs[level])
                    power = (ceff_mult[i]
                             * workload[i].dynamic_power_at(v, f)
                             + core.leakage.power(
                                 v, float(temps[core_id])))
                    if power > p_core_max:
                        continue  # per-core cap: drop the point
                    tput = (workload[i].ipc_at(f) * ipc_mult[i] * f
                            / 1e6)
                    items.append(MckpItem(index=level,
                                          weight=self.power_sensor.read(
                                              power),
                                          value=tput))
                if not items:
                    items = [MckpItem(index=0,
                                      weight=p_core_max, value=0.0)]
                classes.append(items)
            solution = solve_mckp(classes, capacity=p_target - uncore)
            total_nodes += solution.nodes
            if not solution.is_feasible:
                levels = [0] * n
            else:
                levels = list(solution.choice)
            current = evaluate(levels)
            evaluations += 1

            # Frozen tables may be slightly optimistic: correct down.
            safety = 0
            while (not meets_constraints(current, p_target, p_core_max)
                   and any(lv > 0 for lv in levels) and safety < 64):
                worst = int(np.argmax(current.core_power
                                      - p_core_max))
                if current.core_power[worst] <= p_core_max:
                    # Chip-level violation: trim the heaviest core.
                    worst = int(np.argmax(current.core_power))
                if levels[worst] == 0:
                    candidates = [i for i in range(n) if levels[i] > 0]
                    worst = candidates[0]
                levels[worst] -= 1
                current = evaluate(levels)
                evaluations += 1
                safety += 1

            feasible = meets_constraints(current, p_target, p_core_max)
            key = (feasible, current.throughput_mips)
            if best is None or key > (best[0], best[1]):
                best = (feasible, current.throughput_mips,
                        list(levels), current)
        levels, current = best[2], best[3]
        return PmResult(
            levels=tuple(levels),
            state=current,
            evaluations=evaluations,
            stats={"mckp_nodes": float(total_nodes),
                   **kernel.stats.as_result_stats()},
        )
