"""Foxton* — the baseline power manager (Table 1).

A small extension of the Itanium II Foxton controller to per-core
DVFS: active cores are selected one at a time round-robin and the
selected core's (V, f) is moved one step — down while the chip-wide
``Ptarget`` or the per-core ``Pcoremax`` constraint is violated, up
while there is budget headroom (the real Foxton controller raises
voltage whenever power is below target). Cores whose individual power
exceeds ``Pcoremax`` are stepped first, since the round-robin sweep
alone may satisfy the chip budget while a single hot core still
violates its cap.

Like the hardware controller, Foxton* observes only power — it has no
notion of each thread's IPC, which is exactly the information LinOpt
adds.
"""

from __future__ import annotations

from typing import Iterator, List, Optional, Sequence, Tuple

import numpy as np

from ..chip import ChipProfile
from ..config import PowerEnvironment
from ..runtime.evaluation import Assignment, SystemState
from ..runtime.kernel import EvalKernel, StateMemo
from ..workloads import Workload
from .base import PmResult, PowerManager, meets_constraints

# Hard cap on (evaluate, step) iterations per invocation.
_MAX_STEPS_FACTOR = 2


def next_round_robin_victim(
    levels: Sequence[int],
    pointer: int,
) -> Tuple[int, int]:
    """Next thread the round-robin sweep may step down.

    Scans at most one full revolution from ``pointer``, skipping
    threads already at the floor (level 0).
    Returns ``(victim, new_pointer)`` with ``victim = -1`` when no
    thread is eligible. Shared by :class:`FoxtonStar` and the
    emergency power watchdog (:class:`repro.faults.PowerWatchdog`),
    which performs the same Foxton-style sweep between manager
    invocations.
    """
    n = len(levels)
    for _ in range(n):
        candidate = pointer % n
        pointer += 1
        if levels[candidate] > 0:
            return candidate, pointer
    return -1, pointer


def _step_ups(levels: Sequence[int], top: Sequence[int],
              blocked: Sequence[bool], pointer: int, limit: int,
              plan: list) -> Iterator[List[int]]:
    """Foxton*'s phase-2 step-ups from ``levels`` and ``pointer``, each
    planned as if the ones before it were accepted.

    Yields up to ``limit`` trial level vectors and appends ``(core,
    levels, pointer after its scan)`` to ``plan`` for each. Ends early
    when a scan of every core finds none eligible.
    """
    n = len(levels)
    trial = list(levels)
    while len(plan) < limit:
        for _ in range(n):
            probe = pointer % n
            pointer += 1
            if not blocked[probe] and trial[probe] < top[probe]:
                break
        else:
            return
        trial[probe] += 1
        plan.append((probe, list(trial), pointer))
        yield plan[-1][1]


class FoxtonStar(PowerManager):
    """Round-robin step-down/step-up power controller."""

    name = "Foxton*"

    def __init__(self) -> None:
        self._pointer = 0  # round-robin position persists across calls

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
        memo = StateMemo(EvalKernel(chip, workload, assignment,
                                    ipc_multipliers=ipc_multipliers,
                                    ceff_multipliers=ceff_multipliers))
        return self._descend(memo, chip, assignment, env,
                             initial_levels, initial_state)

    def _descend(
        self,
        memo: StateMemo,
        chip: ChipProfile,
        assignment: Assignment,
        env: PowerEnvironment,
        initial_levels: Optional[Sequence[int]],
        initial_state: Optional[SystemState],
    ) -> PmResult:
        """The controller's two phases, evaluated through ``memo``.

        Callers that already hold the decision's memo (SAnn's greedy
        start) pass it in, so the states land in it and its counters
        cover these evaluations too.
        """
        p_target, p_core_max = self._budget(chip, assignment, env)
        n = assignment.n_threads
        top = self._top_levels(chip, assignment)
        levels: List[int] = list(top if initial_levels is None
                                 else initial_levels)

        if initial_state is not None and initial_levels is not None:
            state = initial_state
            evaluations = 0
        else:
            state = memo.evaluate(levels)
            evaluations = 1
        max_steps = _MAX_STEPS_FACTOR * n * (max(top) + 1)
        steps = 0

        # Phase 1: step down round-robin while constraints are violated.
        while not meets_constraints(state, p_target, p_core_max):
            if all(lv == 0 for lv in levels) or steps >= max_steps:
                break  # floor reached: best effort, stay at minimum
            over_cap = [i for i in range(n)
                        if state.core_power[i] > p_core_max and levels[i] > 0]
            if over_cap:
                victim = over_cap[0]
            else:
                victim, self._pointer = next_round_robin_victim(
                    levels, self._pointer)
                if victim < 0:
                    break
            levels[victim] -= 1
            state = memo.evaluate(levels)
            evaluations += 1
            steps += 1

        # Phase 2: step up round-robin while there is headroom. A step
        # that turns out to violate a constraint is undone, and that
        # core is not retried this invocation. The memo walks the
        # step-ups planned as if each were accepted, up to the first
        # violating one; the pointer commits per step-up it reaches.
        blocked = [False] * n
        verdicts: List[bool] = []  # per step-up reached: did it violate?

        def violates(trial: SystemState) -> bool:
            verdicts.append(not meets_constraints(trial, p_target,
                                                  p_core_max))
            return verdicts[-1]

        while (meets_constraints(state, p_target, p_core_max)
               and steps < max_steps):
            plan: List[Tuple[int, List[int], int]] = []
            verdicts.clear()
            try:
                trials = memo.walk(_step_ups(
                    levels, top, blocked, self._pointer,
                    max_steps - steps, plan), violates)
            except Exception:
                self._pointer = plan[len(verdicts)][2]  # the failed one
                raise
            if not trials:
                # No eligible core: the failed scan still advances the
                # pointer one full revolution.
                self._pointer += n
                break
            cand, _, self._pointer = plan[len(trials) - 1]
            evaluations += len(trials)
            steps += len(trials)
            if verdicts[-1]:
                blocked[cand] = True
                trials.pop()
            if trials:
                _, levels, _ = plan[len(trials) - 1]
                state = trials[-1]
        return PmResult(
            levels=tuple(levels),
            state=state,
            evaluations=evaluations,
            stats={"steps": float(steps), **memo.result_stats()},
        )
