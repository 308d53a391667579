"""Frequency substrate: gate/SRAM delay, critical paths, V/f tables."""

from .alpha_power import (
    MOBILITY_EXPONENT,
    gate_delay,
    mobility_factor,
    vth_at_temperature,
)
from .sram import SRAM_CELLS_PER_PATH, worst_cell_quantile
from .critical_path import (
    GATES_PER_PATH,
    CoreFrequencyModel,
    PathSet,
    frequency_calibration,
    pareto_prune,
)
from .vf_table import FREQ_QUANTUM_HZ, VFTable, build_vf_table

__all__ = [
    "CoreFrequencyModel",
    "FREQ_QUANTUM_HZ",
    "GATES_PER_PATH",
    "MOBILITY_EXPONENT",
    "PathSet",
    "SRAM_CELLS_PER_PATH",
    "VFTable",
    "build_vf_table",
    "frequency_calibration",
    "gate_delay",
    "mobility_factor",
    "pareto_prune",
    "vth_at_temperature",
    "worst_cell_quantile",
]
