"""Synthetic phase behaviour for applications.

SPEC applications exhibit phases: sections with different IPC and
dynamic power. The paper exploits this ("speeding up high-IPC sections
and slowing down low-IPC sections", Section 7.5) and its Figure 14
depends on power drifting between LinOpt invocations. We model phases
as a piecewise-constant random process: phase durations are exponential
with mean :data:`MEAN_PHASE_S`, and each phase scales the application's
IPC and dynamic power by log-normal multipliers of log-sigma
:data:`PHASE_SIGMA` (correlated — high-activity phases burn more
power).
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

from .applications import AppProfile

# Correlation between the IPC multiplier and the power multiplier.
PHASE_CORRELATION = 0.7
# Mean phase duration (s).
MEAN_PHASE_S = 0.050
# Log-sigma of the phase multipliers.
PHASE_SIGMA = 0.35


@dataclass(frozen=True)
class PhaseState:
    """Multipliers applied to an application's reference profile."""

    ipc_multiplier: float
    power_multiplier: float

    def __post_init__(self) -> None:
        if self.ipc_multiplier <= 0 or self.power_multiplier <= 0:
            raise ValueError("phase multipliers must be positive")


class PhasedApplication:
    """An application with time-varying phase multipliers.

    The phase process is seeded per (application, seed), so replaying a
    simulation reproduces the identical phase trace.
    """

    def __init__(self, profile: AppProfile, seed: int = 0) -> None:
        self.profile = profile
        # crc32, not hash(): str hashing is salted per process, which
        # would make phase traces unreproducible across runs.
        self._rng = np.random.default_rng(
            [seed, zlib.crc32(profile.name.encode()) & 0x7FFFFFFF])
        self._phase_end = 0.0
        # Generated segments: segment k covers [end_{k-1}, end_k) with
        # state _seg_states[k] (end_{-1} = 0).
        self._seg_ends: List[float] = []
        self._seg_states: List[PhaseState] = []

    def _draw_phase(self) -> PhaseState:
        z1 = self._rng.standard_normal()
        z2 = self._rng.standard_normal()
        rho = PHASE_CORRELATION
        ipc_z = z1
        pow_z = rho * z1 + np.sqrt(1 - rho ** 2) * z2
        # Log-normal multipliers centred on 1 (mean-corrected).
        correction = np.exp(-0.5 * PHASE_SIGMA ** 2)
        return PhaseState(
            ipc_multiplier=float(np.exp(PHASE_SIGMA * ipc_z) * correction),
            power_multiplier=float(np.exp(PHASE_SIGMA * pow_z)
                                   * correction),
        )

    def _advance_to(self, time_s: float) -> None:
        """Generate phases forward until the process covers ``time_s``."""
        while time_s >= self._phase_end:
            duration = self._rng.exponential(MEAN_PHASE_S)
            self._phase_end += max(duration, 1e-6)
            state = self._draw_phase()
            self._seg_ends.append(self._phase_end)
            self._seg_states.append(state)

    def timeline_until(
        self, t_end: float,
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Segment ends plus per-segment multipliers covering [0, t_end].

        Returns ``(ends, ipc_multipliers, power_multipliers)`` where
        segment k spans ``[ends[k-1], ends[k])``; a time t lies in
        segment ``np.searchsorted(ends, t, side="right")``. The process
        is generated forward on demand and segments are kept, so a
        longer horizon only extends the timeline.
        """
        if t_end < 0:
            raise ValueError("time must be non-negative")
        self._advance_to(t_end)
        ends = np.array(self._seg_ends)
        ipc = np.array([s.ipc_multiplier for s in self._seg_states])
        power = np.array([s.power_multiplier for s in self._seg_states])
        return ends, ipc, power

