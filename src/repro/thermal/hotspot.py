"""Leakage-temperature fixed-point iteration (Su et al., Section 6.2).

Leakage depends exponentially on temperature, and temperature depends
on total power — so the steady state is a fixed point: estimate
temperature from current power, re-estimate leakage at that
temperature, repeat until convergence.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .rc_network import ThermalNetwork

# Convergence threshold on the max block-temperature change (K).
DEFAULT_TOLERANCE_K = 0.05
MAX_ITERATIONS = 60
# Under-relaxation factor for the fixed point (damps oscillation).
DAMPING = 0.7
# Any block above this is declared thermal runaway.
RUNAWAY_TEMP_K = 500.0


class ThermalRunawayError(RuntimeError):
    """Leakage-temperature loop diverged (loop gain above unity)."""


@dataclass(frozen=True)
class ThermalSolution:
    """Converged thermal/power state.

    Attributes:
        block_temps_k: Temperature of every thermal block (kelvin).
        block_power_w: Converged power of every block (watts).
        iterations: Fixed-point iterations used.
    """

    block_temps_k: np.ndarray
    block_power_w: np.ndarray
    iterations: int


def solve_with_leakage(
    network: ThermalNetwork,
    dynamic_power_w: Sequence[float],
    leakage_fn: Callable[[np.ndarray], np.ndarray],
) -> ThermalSolution:
    """Iterate temperature and leakage to a fixed point.

    Args:
        network: The thermal network to solve on.
        dynamic_power_w: Per-block dynamic power (constant across
            iterations).
        leakage_fn: Maps a block-temperature vector (kelvin) to a
            per-block leakage power vector (watts).

    Returns:
        A :class:`ThermalSolution`.

    Raises:
        RuntimeError: if the iteration fails to converge (thermal
            runaway or an unstable leakage function).
    """
    dyn = np.asarray(dynamic_power_w, dtype=float)
    if dyn.shape != (network.n_blocks,):
        raise ValueError(f"need {network.n_blocks} dynamic-power entries")
    temps = np.full(network.n_blocks, network.ambient_k)
    for iteration in range(1, MAX_ITERATIONS + 1):
        leak = np.asarray(leakage_fn(temps), dtype=float)
        if leak.shape != (network.n_blocks,):
            raise ValueError("leakage_fn must return one value per block")
        total = dyn + leak
        if not np.all(np.isfinite(total)):
            raise ThermalRunawayError(
                "leakage diverged before the temperature did")
        solved = network.solve(total)
        new_temps = DAMPING * solved + (1.0 - DAMPING) * temps
        if float(np.max(new_temps)) > RUNAWAY_TEMP_K:
            raise ThermalRunawayError(
                f"block temperature exceeded {RUNAWAY_TEMP_K} K: the "
                "leakage-temperature loop gain is above unity for these "
                "power/cooling parameters")
        delta = float(np.max(np.abs(new_temps - temps)))
        temps = new_temps
        if delta < DEFAULT_TOLERANCE_K:
            return ThermalSolution(block_temps_k=temps,
                                   block_power_w=total,
                                   iterations=iteration)
    raise RuntimeError(
        "leakage-temperature iteration did not converge "
        f"within {MAX_ITERATIONS} iterations (thermal runaway?)")
