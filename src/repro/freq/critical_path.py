"""Per-core critical paths and the maximum-frequency model.

Each core's frequency is limited by the slowest of its pipeline-stage
critical paths (Section 6.3). The binning kernel
(:mod:`repro.chip.batch`) draws one candidate path per variation grid
cell per functional unit:

* **Logic stages** — a chain of ``GATES_PER_PATH`` gates. The random
  Vth/Leff components of the gates average along the chain, so the
  path's effective random sigma is ``sigma_ran / sqrt(GATES_PER_PATH)``.
* **SRAM stages** — access time set by the weakest cell on the path
  (deterministic worst-cell quantile, see :mod:`repro.freq.sram`).

Because path delay is monotonically increasing in both effective Vth
and effective Leff at every (V, T), only the Pareto-maximal paths can
ever be critical; the model prunes to that set, which keeps frequency
queries cheap.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..config import T_HOT_K, ArchConfig, TechParams
from .alpha_power import gate_delay

# FO4-equivalent gates on one logic critical path.
GATES_PER_PATH = 12


@dataclass(frozen=True)
class PathSet:
    """Effective (Vth, Leff) of the candidate critical paths of a core.

    Values already include random-component offsets; evaluating delay
    at any (V, T) needs only the systematic temperature adjustment done
    inside :func:`repro.freq.alpha_power.gate_delay`.
    """

    vth: np.ndarray
    leff: np.ndarray

    def __post_init__(self) -> None:
        if self.vth.shape != self.leff.shape or self.vth.ndim != 1:
            raise ValueError("vth and leff must be matching 1-D arrays")
        if self.vth.size == 0:
            raise ValueError("a core needs at least one path")


def pareto_prune(paths: PathSet) -> PathSet:
    """Keep only paths not dominated in (Vth, Leff) by another path.

    Scanning in descending Vth order, a path survives iff its Leff
    strictly exceeds every Leff seen so far — i.e. the running maximum
    of the sorted Leff sequence. The scan is vectorised as a
    ``np.maximum.accumulate`` keep-mask; this sits once per
    (die, core) inside characterisation, so the Python per-path loop
    it replaces was measurable at fleet scale.
    """
    order = np.argsort(paths.vth)[::-1]
    vth = paths.vth[order]
    leff = paths.leff[order]
    keep = np.empty(leff.size, dtype=bool)
    keep[0] = True
    if leff.size > 1:
        keep[1:] = leff[1:] > np.maximum.accumulate(leff)[:-1]
    idx = np.flatnonzero(keep)
    return PathSet(vth=vth[idx], leff=leff[idx])


class CoreFrequencyModel:
    """Maximum frequency of one core as a function of (V, T).

    ``calibration`` converts relative path delay into frequency and is
    chosen so that a variation-free core at ``vdd_max`` and the binning
    temperature runs at exactly the nominal frequency.
    """

    def __init__(self, paths: PathSet, tech: TechParams,
                 calibration: float) -> None:
        if calibration <= 0:
            raise ValueError("calibration must be positive")
        self.paths = paths
        self.tech = tech
        self.calibration = calibration

    def critical_delay(self, vdd: float, t_kelvin: float = T_HOT_K) -> float:
        """Relative delay of the slowest path at (V, T)."""
        delays = gate_delay(vdd, self.paths.vth, self.paths.leff,
                            self.tech, t_kelvin)
        return float(np.max(delays))

    def fmax(self, vdd: float, t_kelvin: float = T_HOT_K) -> float:
        """Maximum frequency (Hz) the core supports at (V, T)."""
        return self.calibration / self.critical_delay(vdd, t_kelvin)

    def fmax_many(self, vdd: np.ndarray, t_kelvin: float = T_HOT_K) -> np.ndarray:
        """Vectorised :meth:`fmax` over an array of voltages."""
        vdd = np.asarray(vdd, dtype=float)
        delays = gate_delay(vdd[:, None], self.paths.vth[None, :],
                            self.paths.leff[None, :], self.tech, t_kelvin)
        return self.calibration / delays.max(axis=1)

    def shifted(self, delta_vth: float) -> "CoreFrequencyModel":
        """A copy with every path's Vth shifted by ``delta_vth``.

        Used by the aging extension: NBTI raises Vth, slowing every
        critical path of the stressed core.
        """
        paths = PathSet(vth=self.paths.vth + float(delta_vth),
                        leff=self.paths.leff)
        return CoreFrequencyModel(paths, self.tech, self.calibration)


def frequency_calibration(tech: TechParams, arch: ArchConfig,
                          t_kelvin: float = T_HOT_K) -> float:
    """Calibration constant mapping nominal delay to nominal frequency."""
    nominal = gate_delay(tech.vdd_max, tech.vth_mean, tech.leff_mean,
                         tech, t_kelvin)
    return float(arch.freq_nominal_hz * nominal)
