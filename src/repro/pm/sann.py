"""SAnn — simulated-annealing power manager (Section 4.3.2).

Searches the discrete space of per-core voltage-level assignments with
the true (non-linearised) power model behind every evaluation. Used in
the paper as a near-optimal but orders-of-magnitude-slower reference
for LinOpt. As in Section 6.5:

* the initial point comes from a simple greedy heuristic (our
  Foxton*-style descent to feasibility),
* the initial annealing temperature scales with the number of threads,
* proposals are Gaussian-Markov steps whose scale tracks the current
  annealing temperature,
* cooling is logarithmic, and the search stops after a fixed number of
  objective evaluations.
"""

from __future__ import annotations

from typing import Callable, Iterator, List, Optional, Tuple

import numpy as np

from ..anneal import simulated_annealing
from ..chip import ChipProfile
from ..config import PowerEnvironment
from ..runtime.evaluation import Assignment, SystemState
from ..runtime.kernel import EvalKernel, StateMemo
from ..workloads import Workload
from .base import PmResult, PowerManager, meets_constraints
from .foxton import FoxtonStar

# Penalty (in MIPS per watt of violation) pushing the search back into
# the feasible region.
CONSTRAINT_PENALTY_MIPS_PER_W = 50_000.0

Levels = Tuple[int, ...]


def _sweep(cand_at: Callable[[int, Levels], Tuple[Optional[Levels], int]],
           k: int, seq_len: int, current: Levels,
           plan: List[Tuple[Levels, int]]) -> Iterator[Levels]:
    """The quench candidates from sequence position ``k`` on, all
    around ``current``: planned as if none improves.

    ``cand_at(k, current)`` materialises the candidate at position
    ``k``: it returns ``(candidate, next_k)``, with ``candidate=None``
    for positions the sweep skips (``next_k`` then also encodes the
    serial loop's ``break`` by jumping past the rest of a row). Each
    yielded candidate is appended to ``plan`` with its ``next_k``.
    """
    while k < seq_len:
        cand, k = cand_at(k, current)
        if cand is not None:
            plan.append((cand, k))
            yield cand


#: Initial annealing temperature per thread (energy units).
INITIAL_TEMP_PER_THREAD = 150.0


class SAnnManager(PowerManager):
    """Simulated-annealing power manager."""

    name = "SAnn"

    def __init__(self, n_evaluations: int = 2000,
                 objective: str = "mips") -> None:
        if n_evaluations < 1:
            raise ValueError("n_evaluations must be positive")
        if objective not in ("mips", "weighted"):
            raise ValueError("objective must be 'mips' or 'weighted'")
        self.n_evaluations = n_evaluations
        self.objective = objective

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
        rng = rng or np.random.default_rng(0)
        p_target, p_core_max = self._budget(chip, assignment, env)
        n = assignment.n_threads
        n_levels = [chip.cores[c].vf_table.n_levels
                    for c in assignment.core_of]

        # One memo for the whole decision, greedy start included, so
        # its counters cover every evaluation the decision makes. The
        # budget counts distinct points: ``visited`` holds the level
        # vectors the search has consumed, and a repeat is a cache hit
        # whether or not the memo still holds its state.
        memo = StateMemo(EvalKernel(chip, workload, assignment,
                                    ipc_multipliers=ipc_multipliers,
                                    ceff_multipliers=ceff_multipliers))
        greedy = FoxtonStar()._descend(memo, chip, assignment, env,
                                       initial_levels, initial_state)
        evaluations = greedy.evaluations

        best_feasible: Optional[Tuple[Levels, SystemState]] = None
        if meets_constraints(greedy.state, p_target, p_core_max):
            best_feasible = (greedy.levels, greedy.state)
        visited: set = set()
        cache_hits = 0

        def metric_of(state) -> float:
            if self.objective == "weighted":
                # Scaled into the MIPS range so the annealing
                # temperature and penalty keep their meaning.
                return state.weighted_throughput(workload) * 1e3
            return state.throughput_mips

        def excess_of(state) -> float:
            excess = max(state.total_power - p_target, 0.0)
            return excess + float(np.sum(np.maximum(
                state.core_power - p_core_max, 0.0)))

        def energy_of(state) -> float:
            return (-metric_of(state)
                    + CONSTRAINT_PENALTY_MIPS_PER_W * excess_of(state))

        def visit(levels: Levels, state: SystemState) -> float:
            """Count the search consuming ``levels``; its energy."""
            nonlocal best_feasible, evaluations, cache_hits
            if levels in visited:
                cache_hits += 1
            else:
                visited.add(levels)
                evaluations += 1
            if excess_of(state) <= 1e-9 and (
                    best_feasible is None
                    or metric_of(state) > metric_of(best_feasible[1])):
                best_feasible = (levels, state)
            return energy_of(state)

        def energy(levels: Levels) -> float:
            return visit(levels, memo.evaluate(levels))

        def neighbour(levels: Tuple[int, ...], temp: float,
                      nrng: np.random.Generator) -> Tuple[int, ...]:
            # Gaussian-Markov kernel: step sizes scale with the current
            # annealing temperature (normalised by the initial one).
            scale = max(temp / initial_temp, 0.05)
            out = list(levels)
            n_moves = max(1, int(round(scale * max(1, n // 4))))
            for _ in range(n_moves):
                i = int(nrng.integers(n))
                delta = int(round(nrng.standard_normal() * (1 + 2 * scale)))
                if delta == 0:
                    delta = 1 if nrng.random() < 0.5 else -1
                out[i] = int(np.clip(out[i] + delta, 0, n_levels[i] - 1))
            return tuple(out)

        initial_temp = INITIAL_TEMP_PER_THREAD * n
        result = simulated_annealing(
            initial_state=tuple(greedy.levels),
            energy_fn=energy,
            neighbour_fn=neighbour,
            rng=rng,
            n_evaluations=self.n_evaluations,
            initial_temp=initial_temp,
        )

        # Final quench: greedy single-step descent from the best state
        # (the tuned SAnn of Section 6.5 reaches within 1% of the
        # exhaustive optimum; the quench closes the stochastic tail).
        # Both sweeps are indexed candidate sequences walked by one
        # first-improvement driver.

        def cand_pm(k, cur):
            # Single +-1 moves: position 2i is thread i up, 2i+1 down.
            i, which = divmod(k, 2)
            delta = 1 if which == 0 else -1
            lv = int(np.clip(cur[i] + delta, 0, n_levels[i] - 1))
            if lv == cur[i]:
                return None, k + 1
            cand = list(cur)
            cand[i] = lv
            return tuple(cand), k + 1

        def cand_trade(k, cur):
            # Pairwise trades (step thread i down, thread j up):
            # crosses the budget ridge single moves cannot. Position
            # i*n+j is the (i, j) pair; a drained thread i skips its
            # whole row (the serial loop's inner break).
            i, j = divmod(k, n)
            if cur[i] == 0:
                return None, (i + 1) * n
            if j == i or cur[j] >= n_levels[j] - 1:
                return None, k + 1
            cand = list(cur)
            cand[i] -= 1
            cand[j] += 1
            return tuple(cand), k + 1

        def descend(seq_len, cand_at, current, current_e):
            """Accept each improving candidate as the sweep reaches it
            and carry on from the next position: the memo walks the
            sweep around the current point up to its first
            improvement."""
            improved = False
            k = 0
            while k < seq_len:
                plan: List[Tuple[Levels, int]] = []
                bar = current_e - 1e-9
                states = memo.walk(
                    _sweep(cand_at, k, seq_len, current, plan),
                    lambda state, bar=bar: energy_of(state) < bar)
                for (cand, _), state in zip(plan, states):
                    cand_e = visit(cand, state)
                if not states or cand_e >= bar:
                    break
                current, current_e = plan[len(states) - 1][0], cand_e
                k = plan[len(states) - 1][1]
                improved = True
            return current, current_e, improved

        current = result.best_state
        current_e = energy(current)
        for _ in range(6):
            current, current_e, imp_pm = descend(
                2 * n, cand_pm, current, current_e)
            current, current_e, imp_trade = descend(
                n * n, cand_trade, current, current_e)
            if not (imp_pm or imp_trade):
                break

        if best_feasible is not None:
            levels, state = best_feasible
        else:
            levels = result.best_state
            state = memo.evaluate(levels)
        return PmResult(
            levels=tuple(levels),
            state=state,
            evaluations=evaluations,
            stats={
                "sa_evaluations": float(result.evaluations),
                "sa_acceptance": float(result.acceptance_rate),
                "feasible": float(best_feasible is not None),
                "sa_cache_hits": float(cache_hits),
                **memo.result_stats(),
            },
        )
