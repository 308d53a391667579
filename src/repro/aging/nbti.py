"""NBTI-style wearout model (paper Section 8: "how our
variation-aware algorithms affect CMP wearout").

Negative-bias temperature instability shifts a PMOS transistor's
threshold voltage over time under (voltage, temperature) stress:

    dVth(t) = A * duty^n * (V / Vnom)^gamma * exp(-Ea / (k T)) * t^n

with the classic fractional-power time dependence (n ~ 1/6). Stress
accumulated across epochs with *different* operating conditions is
combined with the standard equivalent-time trick: the existing shift
is converted to the stress time that would have produced it at the
new conditions, the epoch is added, and the law is re-applied —
making accumulation order-consistent and saturating.

A core's Vth shift feeds back into both its critical paths (slower
fmax, re-binned V/f table) and its leakage (lower). The asymmetry the
paper anticipates: variation-aware policies concentrate load on the
fastest (lowest-Vth) cores, so those age fastest — the frequency
spread *self-levels* over the chip's lifetime.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from ..chip import ChipProfile, CoreDescriptor
from ..config import BOLTZMANN_EV, T_REF_K
from ..freq import build_vf_table

SECONDS_PER_MONTH = 30 * 24 * 3600.0


@dataclass(frozen=True)
class NbtiParams:
    """NBTI model constants.

    ``amplitude`` is calibrated so a core held at nominal conditions
    (V = Vnom, T = 80 C, duty 1.0) loses roughly 30 mV of Vth over
    three years — a typical guard-band figure.
    """

    amplitude: float = 0.0165
    time_exponent: float = 1.0 / 6.0
    activation_energy_ev: float = 0.12
    voltage_exponent: float = 2.0
    reference_temp_k: float = 353.15

    def __post_init__(self) -> None:
        if self.amplitude <= 0 or not 0 < self.time_exponent < 1:
            raise ValueError("bad NBTI constants")


def delta_vth(stress_time_s: float, t_kelvin: float, vdd: float,
              duty: float, params: Optional[NbtiParams] = None,
              vdd_nominal: float = 1.0) -> float:
    """Vth shift (V) after stressing at fixed conditions.

    Args:
        stress_time_s: Total stress time at these conditions.
        t_kelvin: Core temperature during stress.
        vdd: Supply voltage during stress.
        duty: Fraction of time the core was actually active.
        params: NBTI constants.
        vdd_nominal: Voltage the amplitude is referenced to.
    """
    params = params or NbtiParams()
    if stress_time_s < 0 or not 0 <= duty <= 1:
        raise ValueError("bad stress parameters")
    if stress_time_s == 0 or duty == 0:
        return 0.0
    arrhenius = np.exp(-params.activation_energy_ev
                       * (1.0 / (BOLTZMANN_EV * t_kelvin)
                          - 1.0 / (BOLTZMANN_EV * params.reference_temp_k)))
    v_term = (vdd / vdd_nominal) ** params.voltage_exponent
    months = stress_time_s / SECONDS_PER_MONTH
    return float(params.amplitude * duty ** params.time_exponent
                 * v_term * arrhenius
                 * months ** params.time_exponent)


def equivalent_stress_time(current_shift: float, t_kelvin: float,
                           vdd: float, duty: float,
                           params: Optional[NbtiParams] = None,
                           vdd_nominal: float = 1.0) -> float:
    """Stress time (s) that would produce ``current_shift`` at the
    given conditions — the equivalent-time accumulation trick."""
    params = params or NbtiParams()
    if current_shift <= 0:
        return 0.0
    probe = delta_vth(SECONDS_PER_MONTH, t_kelvin, vdd, duty, params,
                      vdd_nominal)
    if probe <= 0:
        return 0.0
    # delta ~ t^n  =>  t = month * (shift / probe)^(1/n)
    ratio = current_shift / probe
    return SECONDS_PER_MONTH * ratio ** (1.0 / params.time_exponent)


class AgingState:
    """Cumulative per-core Vth shifts of one die."""

    def __init__(self, n_cores: int,
                 params: Optional[NbtiParams] = None) -> None:
        if n_cores <= 0:
            raise ValueError("n_cores must be positive")
        self.params = params or NbtiParams()
        self.shifts = np.zeros(n_cores)

    def apply_epoch(self, epoch_s: float, vdd: Sequence[float],
                    t_kelvin: Sequence[float],
                    duty: Sequence[float]) -> None:
        """Accumulate one epoch of stress on every core."""
        vdd = np.asarray(vdd, dtype=float)
        temps = np.asarray(t_kelvin, dtype=float)
        duty = np.asarray(duty, dtype=float)
        if not (vdd.shape == temps.shape == duty.shape
                == self.shifts.shape):
            raise ValueError("per-core arrays must match core count")
        for i in range(self.shifts.size):
            if duty[i] <= 0:
                continue  # idle (power-gated) cores do not stress
            t_eq = equivalent_stress_time(
                self.shifts[i], temps[i], vdd[i], duty[i], self.params)
            self.shifts[i] = delta_vth(
                t_eq + epoch_s, temps[i], vdd[i], duty[i], self.params)


def aged_chip(chip: ChipProfile, shifts: Sequence[float]) -> ChipProfile:
    """Re-bin a chip with per-core Vth shifts applied.

    Frequency models, V/f tables, leakage models and the rated static
    power are all rebuilt — the manufacturer's tables are effectively
    refreshed, as a field re-characterisation would.
    """
    shifts = np.asarray(shifts, dtype=float)
    if shifts.shape != (chip.n_cores,):
        raise ValueError("need one Vth shift per core")
    if np.any(shifts < 0):
        raise ValueError("NBTI shifts are non-negative")
    new_cores: List[CoreDescriptor] = []
    for core, dv in zip(chip.cores, shifts):
        freq_model = core.freq_model.shifted(float(dv))
        leakage = core.leakage.shifted(float(dv))
        vf_table = build_vf_table(freq_model, chip.tech, chip.arch)
        new_cores.append(CoreDescriptor(
            core_id=core.core_id,
            vf_table=vf_table,
            freq_model=freq_model,
            leakage=leakage,
            static_power_rated=leakage.power(chip.tech.vdd_max, T_REF_K),
        ))
    return dataclasses.replace(chip, cores=tuple(new_cores))
