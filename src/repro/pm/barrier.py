"""Barrier-aware DVFS for parallel applications (Section 8 extension).

Between barriers, a worker faster than the slowest one only waits —
so any core running faster than the critical core can drop to the
lowest (V, f) that still meets the *target pace* without losing any
performance. The manager:

1. binary-searches the highest common pace ``F`` such that running
   every worker at its cheapest level with ``f >= F`` (or its top
   level, for cores that cannot reach ``F``) meets the power budget;
2. applies a sensor-guided down-correction exactly like the other
   managers.

This is the variation-aware version of Li & Martinez's chip-wide
adaptation (Section 2): each core gets its *own* voltage for the
common pace, exploiting the fact that fast cores reach the pace at a
much lower voltage.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

from ..chip import ChipProfile
from ..config import PowerEnvironment
from ..runtime.evaluation import Assignment, SystemState
from ..runtime.kernel import EvalKernel
from ..workloads import Workload
from .base import PmResult, PowerManager, meets_constraints

# Binary-search iterations on the common pace (Hz resolution ~ fmax /
# 2^ITERS, far below the V/f table's own quantisation).
PACE_SEARCH_ITERS = 24


def levels_for_pace(chip: ChipProfile, assignment: Assignment,
                    pace_hz: float) -> List[int]:
    """Cheapest per-core levels meeting a common pace.

    Cores that cannot reach the pace run at their top level (they are
    the critical workers).
    """
    levels = []
    for core_id in assignment.core_of:
        table = chip.cores[core_id].vf_table
        eligible = np.nonzero(table.freqs >= pace_hz - 1e-6)[0]
        if eligible.size == 0:
            levels.append(table.n_levels - 1)
        else:
            levels.append(int(eligible[0]))
    return levels


class BarrierAwarePm(PowerManager):
    """Common-pace DVFS manager for barrier-synchronised workloads."""

    name = "BarrierAware"

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

        # Each pace probe depends on the previous bisection outcome, so
        # the search is sequential — the kernel still pays off as a
        # faster single-candidate path.
        kernel = EvalKernel(chip, workload, assignment,
                            ipc_multipliers=ipc_multipliers,
                            ceff_multipliers=ceff_multipliers)
        evaluate = kernel.evaluate_levels

        f_low = min(chip.cores[c].vf_table.freqs[0]
                    for c in assignment.core_of)
        # Running any worker faster than the critical (slowest-capable)
        # core buys nothing at a barrier: cap the pace there.
        f_high = min(chip.cores[c].vf_table.fmax
                     for c in assignment.core_of)
        evaluations = 0

        best_levels: Optional[List[int]] = None
        best_state: Optional[SystemState] = None
        lo, hi = f_low, f_high
        for _ in range(PACE_SEARCH_ITERS):
            pace = 0.5 * (lo + hi)
            levels = levels_for_pace(chip, assignment, pace)
            state = evaluate(levels)
            evaluations += 1
            if meets_constraints(state, p_target, p_core_max):
                best_levels, best_state = levels, state
                lo = pace
            else:
                hi = pace
        if best_levels is None:
            # Even the slowest common pace is over budget: floor and
            # step down greedily.
            levels = levels_for_pace(chip, assignment, f_low)
            state = evaluate(levels)
            evaluations += 1
            while (not meets_constraints(state, p_target, p_core_max)
                   and any(lv > 0 for lv in levels)):
                worst = int(np.argmax(state.core_power))
                if levels[worst] == 0:
                    worst = next(i for i, lv in enumerate(levels)
                                 if lv > 0)
                levels[worst] -= 1
                state = evaluate(levels)
                evaluations += 1
            best_levels, best_state = levels, state
        return PmResult(levels=tuple(best_levels), state=best_state,
                        evaluations=evaluations,
                        stats={"pace_iters": float(PACE_SEARCH_ITERS),
                               **kernel.stats.as_result_stats()})
