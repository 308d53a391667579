"""Thermal substrate: block RC network + leakage fixed point.

Runs use the steady-state solve only; the transient integrator that
checks the quasi-static assumption is test support
(``tests/transient.py``).
"""

from .rc_network import (
    DEFAULT_AMBIENT_K,
    LATERAL_CONDUCTANCE_W_PER_K_MM,
    VERTICAL_CONDUCTANCE_W_PER_K_MM2,
    ThermalNetwork,
    shared_edge_length,
)
from .hotspot import (
    DEFAULT_TOLERANCE_K,
    MAX_ITERATIONS,
    ThermalSolution,
    solve_with_leakage,
)

__all__ = [
    "DEFAULT_AMBIENT_K",
    "DEFAULT_TOLERANCE_K",
    "LATERAL_CONDUCTANCE_W_PER_K_MM",
    "MAX_ITERATIONS",
    "ThermalNetwork",
    "ThermalSolution",
    "VERTICAL_CONDUCTANCE_W_PER_K_MM2",
    "shared_edge_length",
    "solve_with_leakage",
]
