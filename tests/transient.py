"""Transient thermal solver (RC network with heat capacity).

The steady-state solver answers "where does temperature settle"; this
module answers "how fast". Each block gets a heat capacity
proportional to its silicon volume, giving the ODE

    C dT/dt = P - G (T - T_amb_vector)

integrated with the exponential-Euler scheme (exact for the linear
system between power updates, unconditionally stable). Thermal time
constants at our geometry are tens of milliseconds — large against
the 10 ms DVFS interval, which justifies the quasi-static treatment
the online simulation uses and quantifies how much a migrated thread's
heat lags its arrival.

It checks the quasi-static assumption and is not part of a run. The
module name does not match ``test_*.py``, so pytest does not collect
it; tests import it as ``tests.transient``.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np
from scipy import linalg

from repro.thermal import ThermalNetwork

# Volumetric heat capacity of silicon (J / (K mm^3)).
SILICON_HEAT_CAPACITY_J_PER_K_MM3 = 1.63e-3
# Effective die thickness contributing thermal mass (mm). Includes a
# share of the package spreader.
EFFECTIVE_THICKNESS_MM = 1.5


class TransientThermal:
    """Time integrator over a :class:`ThermalNetwork`'s conductances."""

    def __init__(self, network: ThermalNetwork,
                 thickness_mm: float = EFFECTIVE_THICKNESS_MM) -> None:
        if thickness_mm <= 0:
            raise ValueError("thickness must be positive")
        self.network = network
        blocks = network.floorplan.blocks()
        areas = np.array([rect.area for _, rect in blocks])
        self.capacity = (SILICON_HEAT_CAPACITY_J_PER_K_MM3
                         * thickness_mm * areas)
        # Rebuild G from the network's factorisation inputs: solve for
        # the identity to recover G^-1, then invert — cheap at 22x22.
        n = network.n_blocks
        g_inv = np.column_stack([
            network.solve(np.eye(n)[i] + 0.0) - network.ambient_k
            for i in range(n)])
        # network.solve(P) = T_amb + G^-1 P  =>  columns are G^-1 e_i.
        self._g = np.linalg.inv(g_inv)
        self._decay_cache: dict = {}
        self.temps = np.full(n, network.ambient_k)

    def reset(self, temps: Optional[Sequence[float]] = None) -> None:
        """Reset block temperatures (ambient by default)."""
        if temps is None:
            self.temps = np.full(self.network.n_blocks,
                                 self.network.ambient_k)
        else:
            temps = np.asarray(temps, dtype=float)
            if temps.shape != (self.network.n_blocks,):
                raise ValueError("temperature vector length mismatch")
            self.temps = temps.copy()

    def step(self, power_w: Sequence[float], dt_s: float) -> np.ndarray:
        """Advance ``dt_s`` seconds under constant block power.

        Exponential integrator: T(t+dt) = T_ss + e^{-A dt}(T - T_ss)
        with A = C^-1 G and T_ss the steady state for this power.
        """
        if dt_s <= 0:
            raise ValueError("dt must be positive")
        p = np.asarray(power_w, dtype=float)
        if p.shape != (self.network.n_blocks,):
            raise ValueError("power vector length mismatch")
        t_ss = self.network.solve(p)
        decay = self._decay_cache.get(dt_s)
        if decay is None:
            a = self._g / self.capacity[:, None]
            decay = linalg.expm(-a * dt_s)
            self._decay_cache[dt_s] = decay
        self.temps = t_ss + decay @ (self.temps - t_ss)
        return self.temps

    def time_constants_s(self) -> np.ndarray:
        """Modal thermal time constants (s), slowest first."""
        a = self._g / self.capacity[:, None]
        eigenvalues = np.linalg.eigvals(a)
        tau = 1.0 / np.abs(eigenvalues.real)
        return np.sort(tau)[::-1]
