"""Graceful-degradation wrapper around any power manager.

Implements the fallback chain **primary (LinOpt) -> Foxton* ->
all-minimum**: if the wrapped manager raises, returns an infeasible
state, or blows its evaluation budget (the stand-in for missing the
10 ms decision deadline), the decision is retried with the simpler
Foxton* controller; if that also fails, every thread is parked at its
minimum V/f level — the one operating point that needs no model, no
sensors and no optimisation to be safe. The result says which tier
decided (``PmResult.resilience_tier``: 0 = primary, 1 = fallback,
2 = all-minimum) and why each tier above it was skipped
(``PmResult.cause``, one entry per skipped tier, joined by ``,``):

* ``injected`` — a :class:`ManagerFault` (a scripted crash, or either
  kind of :meth:`ResilientManager.inject_failure`);
* ``error:<ExceptionType>`` — any other exception, i.e. a bug;
* ``evaluation_budget`` / ``deadline`` — the primary answered but
  overran its evaluation budget or its wall-clock deadline;
* ``infeasible`` — the answer misses a power constraint.

The simulation stepper copies both onto each
:class:`~repro.runtime.ManagerDecision`, so a run's decision stream
says what degraded and why.

Manager faults from a :class:`~repro.faults.schedule.FaultSchedule`
are delivered through :meth:`ResilientManager.inject_failure`; the
next invocation then behaves as if the primary had crashed (or
overrun its deadline), exercising the same chain.
"""

from __future__ import annotations

import time
from dataclasses import replace
from typing import List, Optional, Sequence

import numpy as np

from ..chip import ChipProfile
from ..config import PowerEnvironment
from ..pm import FoxtonStar, LinOpt, PmResult, PowerManager, meets_constraints
from ..runtime.evaluation import Assignment, SystemState, evaluate_levels
from ..workloads import Workload
from .schedule import MANAGER_DEADLINE, MANAGER_ERROR


class ManagerFault(RuntimeError):
    """Raised inside a manager to simulate an injected crash."""


class ResilientManager(PowerManager):
    """LinOpt -> Foxton* -> all-minimum fallback chain.

    Args:
        primary: The preferred manager (default LinOpt).
        fallback: The simpler emergency manager (default Foxton*).
        evaluation_budget: Maximum full-system evaluations the primary
            may spend per invocation; exceeding it counts as a missed
            deadline and discards the primary's answer. ``None``
            disables the budget.
        deadline_s: Wall-clock budget for the primary's invocation
            (the supervision hook long-running services use: the
            power-management daemon arms it per tenant). A primary
            that answers but took longer is treated exactly like a
            blown evaluation budget — the answer is discarded and the
            chain falls to the next tier. ``None`` disables the
            deadline. Note this makes tier selection wall-clock
            dependent; deterministic tests should prefer
            ``evaluation_budget``.
        accept_infeasible_floor: An all-floor result (every level 0)
            is accepted from the primary even if still infeasible —
            there is nothing further down the chain could do about a
            budget below the chip's minimum operating point.

    The wrapper is itself a :class:`PowerManager`, so it drops into
    :class:`~repro.runtime.OnlineSimulation` unchanged.
    """

    name = "Resilient"

    def __init__(self, primary: Optional[PowerManager] = None,
                 fallback: Optional[PowerManager] = None,
                 evaluation_budget: Optional[int] = None,
                 deadline_s: Optional[float] = None,
                 accept_infeasible_floor: bool = True) -> None:
        if evaluation_budget is not None and evaluation_budget < 1:
            raise ValueError("evaluation budget must be positive")
        if deadline_s is not None and deadline_s <= 0:
            raise ValueError("deadline must be positive")
        self.primary = primary if primary is not None else LinOpt()
        self.fallback = fallback if fallback is not None else FoxtonStar()
        self.evaluation_budget = evaluation_budget
        self.deadline_s = deadline_s
        self.accept_infeasible_floor = accept_infeasible_floor
        self.name = f"Resilient({self.primary.name})"
        self._injected: Optional[str] = None

    def inject_failure(self, kind: str = MANAGER_ERROR) -> None:
        """Arm a one-shot failure for the next invocation.

        ``manager_error`` makes the primary raise; ``manager_deadline``
        makes its invocation count as over-budget regardless of the
        actual evaluation count.
        """
        if kind not in (MANAGER_ERROR, MANAGER_DEADLINE):
            raise ValueError(f"unknown manager fault kind {kind!r}")
        self._injected = kind

    def _acceptable(self, result: PmResult, p_target: float,
                    p_core_max: float) -> bool:
        """Whether a delegate's result may be used as-is."""
        if meets_constraints(result.state, p_target, p_core_max):
            return True
        if self.accept_infeasible_floor and all(
                lv == 0 for lv in result.levels):
            return True
        return False

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
        """Decide levels, falling down the chain on failure."""
        p_target, p_core_max = self._budget(chip, assignment, env)
        kwargs = dict(rng=rng, initial_levels=initial_levels,
                      initial_state=initial_state,
                      ipc_multipliers=ipc_multipliers,
                      ceff_multipliers=ceff_multipliers)
        injected, self._injected = self._injected, None
        causes: List[str] = []
        evaluations = 0

        # --- Tier 0: the primary manager. ---
        try:
            if injected == MANAGER_ERROR:
                raise ManagerFault("injected manager failure")
            t0 = time.monotonic() if self.deadline_s is not None else 0.0
            result = self.primary.set_levels(chip, workload, assignment,
                                             env, **kwargs)
            wall_s = (time.monotonic() - t0
                      if self.deadline_s is not None else 0.0)
            evaluations += result.evaluations
            if injected == MANAGER_DEADLINE:
                causes.append("injected")
            elif (self.evaluation_budget is not None
                  and result.evaluations > self.evaluation_budget):
                causes.append("evaluation_budget")
            elif self.deadline_s is not None and wall_s > self.deadline_s:
                causes.append("deadline")
            elif not self._acceptable(result, p_target, p_core_max):
                causes.append("infeasible")
            else:
                return result
        except Exception as exc:
            causes.append(_failure(exc))

        # --- Tier 1: the simple fallback controller. ---
        try:
            result = self.fallback.set_levels(chip, workload, assignment,
                                              env, **kwargs)
            evaluations += result.evaluations
            if self._acceptable(result, p_target, p_core_max):
                return replace(result, resilience_tier=1,
                               cause=causes[0])
            causes.append("infeasible")
        except Exception as exc:
            causes.append(_failure(exc))

        # --- Tier 2: park every thread at its minimum level. ---
        levels = [0] * assignment.n_threads
        state = evaluate_levels(chip, workload, assignment, levels,
                                ipc_multipliers=ipc_multipliers,
                                ceff_multipliers=ceff_multipliers)
        evaluations += 1
        return PmResult(levels=tuple(levels), state=state,
                        evaluations=evaluations, resilience_tier=2,
                        cause=",".join(causes))


def _failure(exc: Exception) -> str:
    """The cause a tier that raised ``exc`` records."""
    if isinstance(exc, ManagerFault):
        return "injected"
    return f"error:{type(exc).__name__}"
