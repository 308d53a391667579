"""Per-core (voltage, frequency) tables.

Each manufactured core gets a table of discrete DVFS operating points:
the manufacturer bins the core's maximum frequency at each supported
voltage at the worst-case (hottest) temperature (Section 7.1 measures
frequency at ~95 C). These tables are exactly the "table of (voltage,
frequency) pairs supplied by the manufacturer" that LinOpt consumes
(Table 3).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

from ..config import T_HOT_K, ArchConfig, TechParams
from .critical_path import CoreFrequencyModel

# Frequency bins are quantised down to multiples of this (Hz).
FREQ_QUANTUM_HZ = 25e6


@dataclass(frozen=True)
class VFTable:
    """Discrete DVFS operating points of one core, ascending in V.

    Attributes:
        voltages: Supply voltages (V), strictly ascending.
        freqs: Binned maximum frequency (Hz) at each voltage,
            non-decreasing.
    """

    voltages: np.ndarray
    freqs: np.ndarray

    def __post_init__(self) -> None:
        if self.voltages.shape != self.freqs.shape or self.voltages.ndim != 1:
            raise ValueError("voltages and freqs must be matching 1-D arrays")
        if self.voltages.size < 2:
            raise ValueError("need at least two operating points")
        if np.any(np.diff(self.voltages) <= 0):
            raise ValueError("voltages must be strictly ascending")
        if np.any(np.diff(self.freqs) < 0):
            raise ValueError("frequency must be non-decreasing in voltage")
        if np.any(self.freqs <= 0):
            raise ValueError("frequencies must be positive")

    @property
    def n_levels(self) -> int:
        return self.voltages.size

    @property
    def fmax(self) -> float:
        """Core maximum frequency (at the highest voltage)."""
        return float(self.freqs[-1])

    @property
    def vmax(self) -> float:
        return float(self.voltages[-1])

    @property
    def vmin(self) -> float:
        return float(self.voltages[0])

    def nearest_level_at_most(self, voltage: float) -> int:
        """Highest level whose voltage does not exceed ``voltage``."""
        eligible = np.nonzero(self.voltages <= voltage + 1e-12)[0]
        if eligible.size == 0:
            return 0
        return int(eligible[-1])

    def linear_fit(self) -> Tuple[float, float]:
        """Least-squares (slope, intercept) of f as a function of V.

        LinOpt's linearity assumption: f is largely linear in V
        (Section 4.3.1). The table is immutable, so the fit is
        computed once and cached — LinOpt re-reads it on every pass
        for every core.
        """
        cached = getattr(self, "_linear_fit", None)
        if cached is None:
            slope, intercept = np.polyfit(self.voltages, self.freqs, 1)
            cached = (float(slope), float(intercept))
            object.__setattr__(self, "_linear_fit", cached)
        return cached


def build_vf_table(
    model: CoreFrequencyModel,
    tech: TechParams,
    arch: ArchConfig,
    t_kelvin: float = T_HOT_K,
) -> VFTable:
    """Bin one core's (V, f) table at the worst-case temperature."""
    voltages = np.linspace(tech.vdd_min, tech.vdd_max, arch.n_voltage_levels)
    raw = model.fmax_many(voltages, t_kelvin)
    freqs = np.floor(raw / FREQ_QUANTUM_HZ) * FREQ_QUANTUM_HZ
    freqs = np.maximum.accumulate(np.maximum(freqs, FREQ_QUANTUM_HZ))
    return VFTable(voltages=voltages, freqs=freqs)
