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

from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..chip import ChipProfile
from ..config import PowerEnvironment
from ..runtime.evaluation import Assignment, SystemState
from ..runtime.kernel import EvalKernel
from ..workloads import Workload
from .base import PmResult, PowerManager, meets_constraints

# Hard cap on (evaluate, step) iterations per invocation.
_MAX_STEPS_FACTOR = 2

# Speculative step-up batching (phase 2): probes are
# planned assuming every step is accepted, so a rejection discards the
# rest of the batch. The batch size therefore adapts — it grows while
# speculation keeps paying off and resets near where the last
# rejection landed, bounding wasted evaluations when the budget is
# nearly saturated and most probes bounce.
_SPEC_MIN = 2
_SPEC_MAX = 16


def next_round_robin_victim(
    levels: Sequence[int],
    pointer: int,
    blocked: Sequence[bool] = (),
) -> Tuple[int, int]:
    """Next thread the round-robin sweep may step down.

    Scans at most one full revolution from ``pointer``, skipping
    threads already at the floor (level 0) and any marked blocked.
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
        if levels[candidate] > 0 and not (blocked and blocked[candidate]):
            return candidate, pointer
    return -1, pointer


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
        kernel = EvalKernel(chip, workload, assignment,
                            ipc_multipliers=ipc_multipliers,
                            ceff_multipliers=ceff_multipliers)
        return self._descend(kernel, chip, assignment, env,
                             initial_levels, initial_state)

    def _descend(
        self,
        kernel: EvalKernel,
        chip: ChipProfile,
        assignment: Assignment,
        env: PowerEnvironment,
        initial_levels: Optional[Sequence[int]],
        initial_state: Optional[SystemState],
    ) -> PmResult:
        """The controller's two phases, evaluated through ``kernel``.

        Callers that already hold the decision's kernel (SAnn's greedy
        start) pass it in, so its counters cover these evaluations too.
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
            state = kernel.evaluate_levels(levels)
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
            state = kernel.evaluate_levels(levels)
            evaluations += 1
            steps += 1

        # Phase 2: step up round-robin while there is headroom. A step
        # that turns out to violate a constraint is undone, and that
        # core is not retried this invocation.
        blocked = [False] * n
        # The step-ups are batched: plan a run of them under the
        # assumption that each one will be accepted (the common case
        # while headroom lasts), evaluate the run as one kernel batch,
        # and walk the results in order. Pointer advances,
        # step/evaluation counts and accept/reject decisions are
        # committed exactly as the one-probe-at-a-time loop would make
        # them; a rejection blocks that core, discards the
        # not-yet-consumed remainder of the batch (that loop would have
        # planned different probes from here on) and replans.
        # Discarded probes are never counted. Rows are evaluated with
        # ``errors="isolate"`` because they are speculative — a
        # divergent probe the walk never reaches must not abort the
        # batch — and an error on a row the walk *does* reach is
        # re-raised right there.
        chunk = _SPEC_MIN
        while (meets_constraints(state, p_target, p_core_max)
               and steps < max_steps):
            plan = []  # (candidate, trial levels, pointer after scan)
            sim_levels = list(levels)
            sim_ptr = self._pointer
            while steps + len(plan) < max_steps and len(plan) < chunk:
                cand = -1
                for _ in range(n):
                    probe = sim_ptr % n
                    sim_ptr += 1
                    if (not blocked[probe]
                            and sim_levels[probe] < top[probe]):
                        cand = probe
                        break
                if cand < 0:
                    break
                sim_levels[cand] += 1
                plan.append((cand, list(sim_levels), sim_ptr))
            if not plan:
                # The very first scan found no eligible core; a
                # failed scan still advances the pointer one full
                # revolution.
                self._pointer = sim_ptr
                break
            trials = kernel.evaluate_levels_batch(
                [lv for _, lv, _ in plan], errors="isolate")
            rejected_at = -1
            for idx, ((cand, trial_levels, ptr_after), trial) in enumerate(
                    zip(plan, trials)):
                self._pointer = ptr_after
                if isinstance(trial, Exception):
                    raise trial
                evaluations += 1
                steps += 1
                if meets_constraints(trial, p_target, p_core_max):
                    levels = trial_levels
                    state = trial
                else:
                    blocked[cand] = True
                    rejected_at = idx
                    break
            if rejected_at < 0:
                chunk = min(chunk * 2, _SPEC_MAX)
            else:
                chunk = max(_SPEC_MIN, min(_SPEC_MAX, rejected_at + 2))
        return PmResult(
            levels=tuple(levels),
            state=state,
            evaluations=evaluations,
            stats={"steps": float(steps), **kernel.stats.as_result_stats()},
        )
