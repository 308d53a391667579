"""Subthreshold-leakage power model (HotLeakage-style).

Per-transistor subthreshold current follows

    I_sub ~ mu(T) * (kT/q)^2 * exp(-Vth_eff / (n * kT/q))

with ``n`` the subthreshold-slope factor and

    Vth_eff = Vth + dVth/dT * (T - Tref) - DIBL * (V - Vnom)

so leakage grows exponentially as temperature rises (both because Vth
falls and because the thermal voltage grows) and more than linearly as
supply voltage rises (DIBL), matching the qualitative facts the paper
relies on (Sections 3 and 4.3.1).

A core's leakage aggregates the factor over the variation-map cells of
its functional units, weighted by each unit's share of the transistor
budget, and is calibrated so a variation-free core at nominal (V, T)
burns :data:`repro.power.scaling.CORE_STATIC_NOMINAL_W`. The per-cell
*random* Vth component is identical-in-distribution everywhere, so its
expectation factor is common to all cores and absorbed by the
calibration.
"""

from __future__ import annotations

from typing import List, Sequence

import numpy as np

from ..config import BOLTZMANN_EV, T_REF_K, TechParams
from ..floorplan import Floorplan
from ..variation import VariationMap
from . import scaling

# Drain-induced barrier lowering coefficient (V of Vth per V of Vdd).
DIBL_COEFF = 0.08


def subthreshold_slope_factor(tech: TechParams) -> float:
    """Slope factor n derived from the subthreshold swing at Tref."""
    vt_ref = BOLTZMANN_EV * T_REF_K
    return tech.subthreshold_slope_mv / 1000.0 / (vt_ref * np.log(10.0))


def leakage_factor(
    vdd,
    vth,
    t_kelvin,
    tech: TechParams,
):
    """Relative leakage *power* factor (unitless, broadcastable).

    Includes the V multiplier (P = V * I), the T^2 prefactor, the
    thermal-voltage exponent, the temperature dependence of Vth, and
    DIBL.
    """
    vdd = np.asarray(vdd, dtype=float)
    vth = np.asarray(vth, dtype=float)
    t = np.asarray(t_kelvin, dtype=float)
    if np.any(t <= 0):
        raise ValueError("temperature must be positive kelvin")
    n = subthreshold_slope_factor(tech)
    v_t = BOLTZMANN_EV * t
    vth_eff = (
        vth
        + tech.vth_temp_coeff * (t - T_REF_K)
        - DIBL_COEFF * (vdd - tech.vdd_nominal)
    )
    return vdd * (t / T_REF_K) ** 2 * np.exp(-vth_eff / (n * v_t))


class CoreLeakageModel:
    """Static power of one core as a function of (V, T).

    The state is flat: one Vth value per variation-map cell of the
    core's functional units, and a normalised weight per cell (each
    unit's share of the transistor budget split uniformly over its
    cells). The binning kernel builds it per core
    (:mod:`repro.chip.batch`) and the characterisation cache rebuilds
    it from :attr:`cell_vth` / :attr:`cell_weights`. A power query is
    a single vectorised expression — this sits in the inner loop of
    the thermal fixed point and of simulated annealing.
    """

    def __init__(self, vth: np.ndarray, weights: np.ndarray,
                 tech: TechParams, calibration: float) -> None:
        vth = np.asarray(vth, dtype=float)
        weights = np.asarray(weights, dtype=float)
        if vth.shape != weights.shape or vth.ndim != 1 or vth.size == 0:
            raise ValueError("vth and weights must be matching 1-D arrays")
        if calibration <= 0:
            raise ValueError("calibration must be positive")
        self._vth = vth
        self._weights = weights
        self.tech = tech
        self.calibration = calibration

    @property
    def cell_vth(self) -> np.ndarray:
        """Flattened per-cell Vth state (read-only serialisation view)."""
        return self._vth

    @property
    def cell_weights(self) -> np.ndarray:
        """Flattened normalised per-cell weights."""
        return self._weights

    def power(self, vdd: float, t_kelvin: float) -> float:
        """Core static power (W) at supply ``vdd`` and temperature T."""
        factors = leakage_factor(vdd, self._vth, t_kelvin, self.tech)
        return self.calibration * float(self._weights @ factors)

    def shifted(self, delta_vth: float) -> "CoreLeakageModel":
        """A copy with every cell's Vth shifted by ``delta_vth``.

        Used by the aging extension: NBTI raises Vth uniformly across
        a stressed core, lowering its leakage (and its speed).
        """
        return CoreLeakageModel(self._vth + float(delta_vth),
                                self._weights, self.tech, self.calibration)


def leakage_calibration(tech: TechParams,
                        nominal_watts: float = None,
                        ) -> float:
    """Calibration constant: nominal core = ``nominal_watts`` at ref.

    ``nominal_watts`` defaults to the *current* value of
    :data:`repro.power.scaling.CORE_STATIC_NOMINAL_W` (late-bound so
    experiments can re-calibrate the leakage budget).
    """
    if nominal_watts is None:
        nominal_watts = scaling.CORE_STATIC_NOMINAL_W
    ref = leakage_factor(tech.vdd_nominal, tech.vth_mean, T_REF_K, tech)
    return float(nominal_watts / ref)


class L2LeakageModel:
    """Static power of the shared L2 (fixed voltage domain).

    The L2 spans several floorplan blocks; leakage is evaluated per
    block at that block's temperature, with the calibrated total split
    across blocks by area. The budget is the current value of
    :data:`repro.power.scaling.L2_STATIC_NOMINAL_W`.
    """

    def __init__(self, vmap: VariationMap, floorplan: Floorplan,
                 tech: TechParams) -> None:
        if not floorplan.l2_blocks:
            raise ValueError("floorplan has no L2 blocks")
        self._block_vth: List[np.ndarray] = []
        areas = []
        for rect in floorplan.l2_blocks:
            vth, _ = vmap.region_cells(rect.x0, rect.y0, rect.x1, rect.y1)
            self._block_vth.append(vth)
            areas.append(rect.area)
        areas = np.asarray(areas)
        self._block_share = areas / areas.sum()
        self.tech = tech
        self.calibration = leakage_calibration(
            tech, scaling.L2_STATIC_NOMINAL_W)

    @classmethod
    def from_arrays(cls, block_vth: Sequence[np.ndarray],
                    block_share: np.ndarray, tech: TechParams,
                    calibration: float) -> "L2LeakageModel":
        """Rebuild a model from its per-block state (cache round-trip)."""
        if not block_vth:
            raise ValueError("need at least one L2 block")
        share = np.asarray(block_share, dtype=float)
        if share.shape != (len(block_vth),):
            raise ValueError("block_share must match the block count")
        if calibration <= 0:
            raise ValueError("calibration must be positive")
        model = cls.__new__(cls)
        model._block_vth = [np.asarray(v, dtype=float) for v in block_vth]
        model._block_share = share
        model.tech = tech
        model.calibration = calibration
        return model

    @property
    def block_vth(self) -> List[np.ndarray]:
        """Per-block Vth cell values (read-only serialisation view)."""
        return list(self._block_vth)

    @property
    def block_share(self) -> np.ndarray:
        """Per-block share of the calibrated leakage budget."""
        return self._block_share

    @property
    def n_blocks(self) -> int:
        return len(self._block_vth)

    def power_per_block(self, t_kelvin: Sequence[float]) -> np.ndarray:
        """Per-L2-block static power (W) at per-block temperatures."""
        temps = np.asarray(t_kelvin, dtype=float)
        if temps.shape != (self.n_blocks,):
            raise ValueError(f"need {self.n_blocks} L2 block temperatures")
        out = np.empty(self.n_blocks)
        for i, vth in enumerate(self._block_vth):
            factor = float(np.mean(
                leakage_factor(scaling.L2_VDD, vth, temps[i], self.tech)))
            out[i] = self.calibration * self._block_share[i] * factor
        return out
