"""Power-manager interface (Section 4.3).

A power manager picks one DVFS level per active core so that chip
power stays below the environment's ``Ptarget`` and every core stays
below ``Pcoremax``, while maximising throughput. Managers observe the
system only through evaluations (sensor readings), mirroring the
on-line setting of the paper. Each decision of Foxton*, SAnn and
LinOpt evaluates through one :class:`repro.runtime.kernel.StateMemo`
over the :class:`repro.runtime.kernel.EvalKernel` of its (chip,
workload, assignment, phase multipliers). The memo serves a repeated
level vector without a kernel row, and its ``walk`` is the one place
a search hands speculative candidates to the kernel. The decision
merges the memo's counters (``state_memo_hits``, ``kernel_*``) into
``PmResult.stats``. Foxton* and SAnn build the memo per decision, and
SAnn's greedy Foxton* start fills SAnn's. LinOpt carries its memo
from one decision to the next and builds a new one when the phase
multipliers or anything else change, so a run of decisions inside
one application phase evaluates each operating point once.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

import numpy as np

from ..chip import ChipProfile
from ..config import PowerEnvironment
from ..runtime.evaluation import Assignment, SystemState
from ..workloads import Workload


@dataclass(frozen=True)
class PmResult:
    """Outcome of one power-management decision.

    Attributes:
        levels: Chosen per-thread DVFS level (index into each core's
            V/f table).
        state: The evaluation of ``levels`` at the call's (chip,
            workload, assignment, phase multipliers), bitwise equal to
            ``evaluate_levels`` of them, or else the very
            ``initial_state`` object the caller passed in (a manager
            that keeps its warm start may hand it back, and across a
            phase change it is stale). The simulation stepper relies
            on this: it adopts any other state as its own evaluation.
        evaluations: The algorithm's cost in operating points examined
            (sensor-visible settling points). The daemon digest and
            ``ResilientManager``'s ``evaluation_budget`` read it, so
            saving a kernel row never changes it: speculative rows
            past a walk's stop do not count, and Foxton* and LinOpt
            count every point their passes examine, repeats served
            from the state memo included. SAnn's budget is in distinct
            points: a level vector counts on its first visit, and a
            repeat is a cache hit (``sa_cache_hits``) whether or not
            the memo still holds its state.
        stats: Algorithm-specific float diagnostics (LP pivots, SA
            acceptance, ...).
        resilience_tier: Which tier of a fallback chain decided (0 =
            the primary; see :class:`repro.faults.ResilientManager`).
            Plain managers leave it at 0.
        cause: Why each tier above ``resilience_tier`` was skipped,
            in tier order and joined by ``,`` (``None`` at tier 0).
    """

    levels: Tuple[int, ...]
    state: SystemState
    evaluations: int
    stats: Dict[str, float] = field(default_factory=dict)
    resilience_tier: int = 0
    cause: Optional[str] = None


#: Power (W) a state may exceed either constraint by and still meet it.
CONSTRAINT_SLACK_W = 1e-9


def meets_constraints(state: SystemState, p_target: float,
                      p_core_max: float) -> bool:
    """Whether a state satisfies both power constraints."""
    if state.total_power > p_target + CONSTRAINT_SLACK_W:
        return False
    return bool(np.all(state.core_power <= p_core_max
                       + CONSTRAINT_SLACK_W))


class PowerManager(abc.ABC):
    """Base class for DVFS power-management algorithms."""

    #: Name as used in Table 1 (e.g. "Foxton*", "LinOpt").
    name: str = "base"

    @abc.abstractmethod
    def set_levels(
        self,
        chip: ChipProfile,
        workload: Workload,
        assignment: Assignment,
        env: PowerEnvironment,
        rng: Optional[np.random.Generator] = None,
    ) -> PmResult:
        """Choose per-core DVFS levels for the given assignment."""

    @staticmethod
    def _budget(chip: ChipProfile, assignment: Assignment,
                env: PowerEnvironment) -> Tuple[float, float]:
        """(Ptarget scaled to the thread count, Pcoremax)."""
        p_target = env.p_target(assignment.n_threads, chip.n_cores)
        return p_target, env.p_core_max

    @staticmethod
    def _top_levels(chip: ChipProfile, assignment: Assignment) -> list:
        return [chip.cores[c].vf_table.n_levels - 1
                for c in assignment.core_of]
