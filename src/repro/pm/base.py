"""Power-manager interface (Section 4.3).

A power manager picks one DVFS level per active core so that chip
power stays below the environment's ``Ptarget`` and every core stays
below ``Pcoremax``, while maximising throughput. Managers observe the
system only through evaluations (sensor readings), mirroring the
on-line setting of the paper. Each decision evaluates through one
:class:`repro.runtime.kernel.EvalKernel`, built for that decision's
(chip, workload, assignment, phase multipliers), and merges the
kernel's counters into ``PmResult.stats``.
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
        state: Evaluated system state at those levels.
        evaluations: Number of full system evaluations (sensor-visible
            settling points) the manager consumed.
        stats: Algorithm-specific diagnostics (LP pivots, SA
            acceptance, ...).
    """

    levels: Tuple[int, ...]
    state: SystemState
    evaluations: int
    stats: Dict[str, float] = field(default_factory=dict)

    def with_stats(self, **extra: float) -> "PmResult":
        """A copy with ``extra`` merged into ``stats``.

        Wrapper managers (e.g. the resilience fallback chain in
        :class:`repro.faults.ResilientManager`) use this to annotate a
        delegate's result — ``resilience_tier``, ``primary_failed``,
        ... — without mutating the frozen original.
        """
        merged = dict(self.stats)
        merged.update(extra)
        return PmResult(levels=self.levels, state=self.state,
                        evaluations=self.evaluations, stats=merged)


def meets_constraints(state: SystemState, p_target: float,
                      p_core_max: float, slack: float = 1e-9) -> bool:
    """Whether a state satisfies both power constraints."""
    if state.total_power > p_target + slack:
        return False
    return bool(np.all(state.core_power <= p_core_max + slack))


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
