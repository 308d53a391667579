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

from collections import OrderedDict
from typing import Callable, Optional, Tuple

import numpy as np

from ..anneal import simulated_annealing
from ..chip import ChipProfile
from ..config import PowerEnvironment
from ..runtime.evaluation import Assignment, SystemState
from ..runtime.kernel import EvalKernel
from ..workloads import Workload
from .base import PmResult, PowerManager, meets_constraints
from .foxton import FoxtonStar

# Penalty (in MIPS per watt of violation) pushing the search back into
# the feasible region.
CONSTRAINT_PENALTY_MIPS_PER_W = 50_000.0

# Bound on the evaluated-state memo. The annealing run proposes at
# most ``n_evaluations`` unique points and the quench a few hundred
# more, so at the default settings nothing is ever evicted — the bound
# only stops a long-lived manager (or an aggressive caller) from
# holding every SystemState it ever saw.
STATE_CACHE_CAPACITY = 4096

# Candidates per speculative quench batch. Quench candidates are
# planned under the assumption that none improves (the common case for
# a near-converged descent), so an acceptance discards the rest of the
# batch — kept small enough that the waste stays negligible.
_SPEC_CHUNK = 8


def _greedy_walk(
    seq_len: int,
    cand_at: Callable[[int, Tuple[int, ...]],
                      Tuple[Optional[Tuple[int, ...]], int]],
    energy: Callable[[Tuple[int, ...]], float],
    current: Tuple[int, ...],
    current_e: float,
    prefetch: Callable[[int, Tuple[int, ...]], None],
    on_accept: Callable[[], None],
):
    """First-improvement walk over an indexed candidate sequence.

    ``cand_at(k, current)`` materialises the candidate at sequence
    position ``k`` given the walk's current point: it returns
    ``(candidate, next_k)``, with ``candidate=None`` for positions the
    sweep skips (``next_k`` then also encodes serial ``break``
    semantics by jumping past the rest of a row). An improving
    candidate is accepted immediately and the walk *continues* from
    ``next_k`` — the quench semantics of a one-candidate-at-a-time
    sweep.

    ``prefetch(k, current)`` is called right before a candidate is
    evaluated; it evaluates a whole run of upcoming candidates in one
    kernel call under the assumption that none will be accepted.
    ``on_accept`` is called on every acceptance so the prefetcher can
    discard speculation made under the now-stale assumption.
    """
    improved = False
    k = 0
    while k < seq_len:
        cand, next_k = cand_at(k, current)
        if cand is None:
            k = next_k
            continue
        prefetch(k, current)
        cand_e = energy(cand)
        if cand_e < current_e - 1e-9:
            current, current_e = cand, cand_e
            improved = True
            on_accept()
        k = next_k
    return current, current_e, improved


class SAnnManager(PowerManager):
    """Simulated-annealing power manager."""

    name = "SAnn"

    def __init__(self, n_evaluations: int = 2000,
                 initial_temp_per_thread: float = 150.0,
                 objective: str = "mips") -> None:
        if n_evaluations < 1:
            raise ValueError("n_evaluations must be positive")
        if initial_temp_per_thread <= 0:
            raise ValueError("initial temperature must be positive")
        if objective not in ("mips", "weighted"):
            raise ValueError("objective must be 'mips' or 'weighted'")
        self.n_evaluations = n_evaluations
        self.initial_temp_per_thread = initial_temp_per_thread
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

        # One kernel for the whole decision, greedy start included, so
        # its counters cover every evaluation the decision makes.
        kernel = EvalKernel(chip, workload, assignment,
                            ipc_multipliers=ipc_multipliers,
                            ceff_multipliers=ceff_multipliers)
        greedy = FoxtonStar()._descend(kernel, chip, assignment, env,
                                       initial_levels, initial_state)
        evaluations = greedy.evaluations

        best_feasible: Optional[Tuple[Tuple[int, ...], SystemState]] = None
        if meets_constraints(greedy.state, p_target, p_core_max):
            best_feasible = (greedy.levels, greedy.state)

        # LRU memo of evaluated states, plus the speculative side
        # buffer: quench batches land in ``spec`` first and are only
        # committed to the memo (and counted as evaluations) when the
        # walk actually consumes them — a speculative result the serial
        # sweep would never have computed is silently discarded.
        state_cache: "OrderedDict[Tuple[int, ...], SystemState]" = (
            OrderedDict())
        spec: dict = {}
        cache_hits = 0

        def metric_of(state) -> float:
            if self.objective == "weighted":
                # Scaled into the MIPS range so the annealing
                # temperature and penalty keep their meaning.
                return state.weighted_throughput(workload) * 1e3
            return state.throughput_mips

        def energy(levels: Tuple[int, ...]) -> float:
            nonlocal best_feasible, evaluations, cache_hits
            if levels in state_cache:
                state = state_cache[levels]
                state_cache.move_to_end(levels)
                cache_hits += 1
            else:
                if levels in spec:
                    state = spec.pop(levels)
                    if isinstance(state, Exception):
                        raise state
                else:
                    state = kernel.evaluate_levels(levels)
                state_cache[levels] = state
                if len(state_cache) > STATE_CACHE_CAPACITY:
                    state_cache.popitem(last=False)
                evaluations += 1
            excess = max(state.total_power - p_target, 0.0)
            excess += float(np.sum(np.maximum(
                state.core_power - p_core_max, 0.0)))
            feasible = excess <= 1e-9
            if feasible and (best_feasible is None
                             or metric_of(state)
                             > metric_of(best_feasible[1])):
                best_feasible = (levels, state)
            return (-metric_of(state)
                    + CONSTRAINT_PENALTY_MIPS_PER_W * excess)

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

        initial_temp = self.initial_temp_per_thread * n
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
        # driver (:func:`_greedy_walk`).

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

        def make_prefetch(seq_len, cand_at):
            # Evaluate the next run of uncached candidates in one
            # kernel batch, assuming none of them improves (so the
            # walk's current point stays fixed). errors="isolate"
            # because the run is speculative: a diverging candidate
            # the walk never reaches must not abort its neighbours,
            # and one the walk *does* reach re-raises at consumption
            # time.
            def prefetch(k, cur):
                first, _ = cand_at(k, cur)
                if first in state_cache or first in spec:
                    return
                plan = []
                kk = k
                while kk < seq_len and len(plan) < _SPEC_CHUNK:
                    cand, kk = cand_at(kk, cur)
                    if (cand is None or cand in state_cache
                            or cand in spec or cand in plan):
                        continue
                    plan.append(cand)
                results = kernel.evaluate_levels_batch(
                    [list(c) for c in plan], errors="isolate")
                for cand, res in zip(plan, results):
                    spec[cand] = res
            return prefetch

        current = result.best_state
        current_e = energy(current)
        pm_prefetch = make_prefetch(2 * n, cand_pm)
        trade_prefetch = make_prefetch(n * n, cand_trade)
        for _ in range(6):
            current, current_e, imp_pm = _greedy_walk(
                2 * n, cand_pm, energy, current, current_e,
                prefetch=pm_prefetch, on_accept=spec.clear)
            current, current_e, imp_trade = _greedy_walk(
                n * n, cand_trade, energy, current, current_e,
                prefetch=trade_prefetch, on_accept=spec.clear)
            if not (imp_pm or imp_trade):
                break
        spec.clear()

        if best_feasible is not None:
            levels, state = best_feasible
        else:
            levels = result.best_state
            state = state_cache.get(levels)
            if state is None:  # evicted by the LRU bound: re-evaluate
                state = kernel.evaluate_levels(levels)
                evaluations += 1
        return PmResult(
            levels=tuple(levels),
            state=state,
            evaluations=evaluations,
            stats={
                "sa_evaluations": float(result.evaluations),
                "sa_acceptance": float(result.acceptance_rate),
                "feasible": float(best_feasible is not None),
                "sa_cache_hits": float(cache_hits),
                **kernel.stats.as_result_stats(),
            },
        )
