"""Exhaustive search over DVFS level assignments.

Ground truth for tiny configurations (Section 6.5 uses it to validate
SAnn for up to 4 threads). The search space is ``n_levels^n_threads``,
so a hard cap guards against accidental blow-ups.
"""

from __future__ import annotations

import itertools
from typing import Optional

import numpy as np

from ..chip import ChipProfile
from ..config import PowerEnvironment
from ..runtime.evaluation import Assignment
from ..runtime.kernel import EvalKernel
from ..workloads import Workload
from .base import PmResult, PowerManager, meets_constraints

DEFAULT_COMBINATION_LIMIT = 50_000

# Combinations handed to the kernel per batch call. The kernel chunks
# internally for cache locality; this only bounds how much of the
# (possibly 50k-deep) product is materialised at once.
_BATCH_COMBOS = 64


class ExhaustiveSearch(PowerManager):
    """Evaluate every level combination; keep the best feasible one."""

    name = "Exhaustive"

    def __init__(self,
                 combination_limit: int = DEFAULT_COMBINATION_LIMIT) -> None:
        if combination_limit < 1:
            raise ValueError("combination_limit must be positive")
        self.combination_limit = combination_limit

    def set_levels(
        self,
        chip: ChipProfile,
        workload: Workload,
        assignment: Assignment,
        env: PowerEnvironment,
        rng: Optional[np.random.Generator] = None,
        initial_levels=None,
        initial_state=None,
        ipc_multipliers=None,
        ceff_multipliers=None,
    ) -> PmResult:
        p_target, p_core_max = self._budget(chip, assignment, env)
        level_ranges = [range(chip.cores[c].vf_table.n_levels)
                        for c in assignment.core_of]
        n_combos = int(np.prod([len(r) for r in level_ranges]))
        if n_combos > self.combination_limit:
            raise ValueError(
                f"{n_combos} combinations exceed the limit of "
                f"{self.combination_limit}; exhaustive search only "
                "scales to very small systems (the paper's point)")
        kernel = EvalKernel(chip, workload, assignment,
                            ipc_multipliers=ipc_multipliers,
                            ceff_multipliers=ceff_multipliers)
        best = None
        best_state = None
        fallback = None
        fallback_state = None
        evaluations = 0

        def consider(combo, state):
            nonlocal best, best_state, fallback, fallback_state, evaluations
            evaluations += 1
            if meets_constraints(state, p_target, p_core_max):
                if (best_state is None
                        or state.throughput_mips
                        > best_state.throughput_mips):
                    best, best_state = combo, state
            elif (fallback_state is None
                  or state.total_power < fallback_state.total_power):
                fallback, fallback_state = combo, state

        # Combinations are mutually independent, so the enumeration is
        # the ideal batch shape: fixed-size slices of the product go
        # through one kernel call each, and the in-order walk of the
        # results (including which combination's error surfaces first)
        # matches a one-combination-at-a-time loop exactly.
        combos = itertools.product(*level_ranges)
        while True:
            batch = list(itertools.islice(combos, _BATCH_COMBOS))
            if not batch:
                break
            states = kernel.evaluate_levels_batch([list(c) for c in batch])
            for combo, state in zip(batch, states):
                consider(combo, state)
        if best is None:
            # No feasible point exists: return the lowest-power one.
            best, best_state = fallback, fallback_state
        return PmResult(levels=tuple(best), state=best_state,
                        evaluations=evaluations,
                        stats={"combinations": float(n_combos),
                               **kernel.stats.as_result_stats()})
