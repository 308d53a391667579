"""Figure 6: core power versus frequency for the fastest and slowest
cores of a sample die.

Runs ``bzip2`` on the highest-frequency (MaxF) and lowest-frequency
(MinF) cores of one die across the voltage levels, recording core power
and frequency, both normalised to MaxF at maximum voltage. The paper's
observations to reproduce: (i) a mid-range frequency is reachable by
MaxF at a lower voltage than MinF, with less power; (ii) the two curves
cross — below the crossover frequency MinF is more power-efficient,
above it MaxF is.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from ..runtime.evaluation import Assignment, evaluate_levels
from ..workloads import Workload, get_app
from .common import ChipFactory, format_rows


@dataclass(frozen=True)
class PowerFreqCurve:
    """One core's normalised (frequency, power) curve over voltage."""

    core_id: int
    voltages: Tuple[float, ...]
    freq_norm: Tuple[float, ...]
    power_norm: Tuple[float, ...]


@dataclass(frozen=True)
class Fig06Result:
    maxf_curve: PowerFreqCurve
    minf_curve: PowerFreqCurve
    app_name: str

    def crossover_frequency(self) -> Optional[float]:
        """Normalised frequency where the two curves' efficiency flips.

        Interpolates both curves' power onto a common frequency grid
        and finds where their difference changes sign; None if the
        curves never cross on the overlapping range.
        """
        lo = max(min(self.maxf_curve.freq_norm), min(self.minf_curve.freq_norm))
        hi = min(max(self.maxf_curve.freq_norm), max(self.minf_curve.freq_norm))
        if hi <= lo:
            return None
        grid = np.linspace(lo, hi, 200)
        p_max = np.interp(grid, self.maxf_curve.freq_norm,
                          self.maxf_curve.power_norm)
        p_min = np.interp(grid, self.minf_curve.freq_norm,
                          self.minf_curve.power_norm)
        diff = p_max - p_min
        signs = np.sign(diff)
        changes = np.nonzero(np.diff(signs) != 0)[0]
        if changes.size == 0:
            return None
        return float(grid[changes[0]])

    def format_table(self) -> str:
        rows = []
        for v, f, p in zip(self.maxf_curve.voltages,
                           self.maxf_curve.freq_norm,
                           self.maxf_curve.power_norm):
            rows.append([f"{v:.2f}", "MaxF", f, p])
        for v, f, p in zip(self.minf_curve.voltages,
                           self.minf_curve.freq_norm,
                           self.minf_curve.power_norm):
            rows.append([f"{v:.2f}", "MinF", f, p])
        cross = self.crossover_frequency()
        cross_note = (f"efficiency crossover at normalised f ~ {cross:.2f} "
                      "(paper: ~0.74)" if cross is not None
                      else "no crossover on the overlapping range")
        return "\n".join([
            format_rows(["Vdd", "core", "freq (norm)", "power (norm)"],
                        rows, "Figure 6: power vs frequency, "
                        f"{self.app_name} on MaxF/MinF cores"),
            cross_note,
        ])


def run(die_index: int = 0, app_name: str = "bzip2",
        factory: Optional[ChipFactory] = None) -> Fig06Result:
    """Reproduce Figure 6 on one sample die."""
    factory = factory or ChipFactory()
    chip = factory.chip(die_index)
    fmax = chip.fmax_array
    maxf_core = int(np.argmax(fmax))
    minf_core = int(np.argmin(fmax))
    app = get_app(app_name)
    workload = Workload((app,))

    ref_table = chip.cores[maxf_core].vf_table
    ref_freq = ref_table.fmax
    ref_state = evaluate_levels(chip, workload,
                                Assignment((maxf_core,)),
                                [ref_table.n_levels - 1])
    ref_power = float(ref_state.core_power[0])

    def curve(core_id: int) -> PowerFreqCurve:
        table = chip.cores[core_id].vf_table
        volts, freqs, powers = [], [], []
        for level in range(table.n_levels):
            state = evaluate_levels(chip, workload,
                                    Assignment((core_id,)), [level])
            volts.append(float(table.voltages[level]))
            freqs.append(float(table.freqs[level]) / ref_freq)
            powers.append(float(state.core_power[0]) / ref_power)
        return PowerFreqCurve(core_id=core_id, voltages=tuple(volts),
                              freq_norm=tuple(freqs),
                              power_norm=tuple(powers))

    return Fig06Result(maxf_curve=curve(maxf_core),
                       minf_curve=curve(minf_core),
                       app_name=app_name)
