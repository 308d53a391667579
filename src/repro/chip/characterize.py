"""The profile of a post-manufacturing characterised die.

The chip manufacturer's binning flow (Table 3) derives from a die's
variation map, per core, the (V, f) table, the frequency model, the
leakage model, and the static power measured at maximum voltage under
zero load — the profile data the scheduling and power-management
algorithms are allowed to see. :class:`ChipProfile` and
:class:`CoreDescriptor` hold that data; the binning itself runs
die-batched in :mod:`repro.chip.batch`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

from ..config import T_REF_K, ArchConfig, TechParams
from ..floorplan import Floorplan
from ..freq import CoreFrequencyModel, VFTable
from ..power import CoreLeakageModel, L2LeakageModel
from ..thermal import ThermalNetwork


@dataclass(frozen=True)
class CoreDescriptor:
    """Everything known about one manufactured core.

    Attributes:
        core_id: Index on the die.
        vf_table: Manufacturer-binned (V, f) operating points.
        freq_model: Underlying continuous f(V, T) model.
        leakage: Leakage power model p_static(V, T).
        static_power_rated: Static power (W) measured by the
            manufacturer at maximum voltage, zero load, reference
            temperature — the VarP ranking input.
    """

    core_id: int
    vf_table: VFTable
    freq_model: CoreFrequencyModel
    leakage: CoreLeakageModel
    static_power_rated: float

    @property
    def fmax(self) -> float:
        """Rated maximum frequency (Hz) at maximum voltage."""
        return self.vf_table.fmax

    def static_power_at(self, vdd: float,
                        t_kelvin: float = T_REF_K) -> float:
        """Static power at a voltage level (VarP&AppP profile data)."""
        return self.leakage.power(vdd, t_kelvin)


@dataclass(frozen=True)
class ChipProfile:
    """A fully characterised die.

    Holds the per-core descriptors plus shared structures (floorplan,
    thermal network, L2 leakage) that system-level evaluation needs.
    """

    die_id: int
    tech: TechParams
    arch: ArchConfig
    floorplan: Floorplan
    cores: Tuple[CoreDescriptor, ...]
    l2_leakage: L2LeakageModel
    thermal: ThermalNetwork

    @property
    def n_cores(self) -> int:
        return len(self.cores)

    @property
    def fmax_array(self) -> np.ndarray:
        """Rated fmax of every core (Hz).

        The cores are immutable, so the array is built once and cached
        (fleet analysis stacks it per die per chunk, and every
        scheduling policy ranks on it). The cached array is read-only
        so one caller cannot corrupt another's view.
        """
        cached = getattr(self, "_fmax_array", None)
        if cached is None:
            cached = np.array([c.fmax for c in self.cores])
            cached.setflags(write=False)
            object.__setattr__(self, "_fmax_array", cached)
        return cached

    @property
    def static_rated_array(self) -> np.ndarray:
        """Rated static power of every core (W).

        Cached read-only, like :attr:`fmax_array`.
        """
        cached = getattr(self, "_static_rated_array", None)
        if cached is None:
            cached = np.array([c.static_power_rated for c in self.cores])
            cached.setflags(write=False)
            object.__setattr__(self, "_static_rated_array", cached)
        return cached

    @property
    def min_fmax(self) -> float:
        """Frequency of the slowest core — the UniFreq chip frequency."""
        return float(self.fmax_array.min())
