"""Adaptive Body Bias (ABB) variation mitigation (Section 2,
Humenay et al.).

Body biasing shifts a core's threshold voltage post-manufacturing:
forward bias (FBB) lowers Vth — the core speeds up but leaks more;
reverse bias (RBB) raises Vth — the core slows down and leaks less.
Humenay et al. propose ABB/ASV to *reduce the frequency spread* of a
variation-affected CMP, at the cost of *increasing the power spread*
— and note the approach is complementary to scheduling (this paper's
contribution). This module lets the repo quantify that trade-off.

The model: a bias ``b`` (volts, positive = forward) shifts every
transistor's Vth by ``-k * b`` within the hardware's bias range.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from ..chip import ChipProfile, CoreDescriptor
from ..config import T_REF_K
from ..freq import build_vf_table

# How close to the target fmax (Hz) the bias bisection stops.
BIAS_TOLERANCE_HZ = 5e6


@dataclass(frozen=True)
class AbbParams:
    """Body-bias hardware characteristics.

    Attributes:
        vth_shift_per_volt: |dVth/dbias| (V/V); ~0.1 for partially
            depleted bulk CMOS.
        max_bias: Largest forward or reverse bias the grid supports.
    """

    vth_shift_per_volt: float = 0.10
    max_bias: float = 0.5

    def __post_init__(self) -> None:
        if self.vth_shift_per_volt <= 0 or self.max_bias <= 0:
            raise ValueError("ABB parameters must be positive")


def biased_chip(chip: ChipProfile, biases: Sequence[float],
                params: Optional[AbbParams] = None) -> ChipProfile:
    """Re-bin a chip with per-core body biases applied.

    Positive bias = forward = lower Vth = faster and leakier.
    """
    params = params or AbbParams()
    biases = np.asarray(biases, dtype=float)
    if biases.shape != (chip.n_cores,):
        raise ValueError("need one bias per core")
    if np.any(np.abs(biases) > params.max_bias + 1e-12):
        raise ValueError("bias outside the hardware range")
    new_cores: List[CoreDescriptor] = []
    for core, bias in zip(chip.cores, biases):
        dv = -params.vth_shift_per_volt * float(bias)
        freq_model = core.freq_model.shifted(dv)
        leakage = core.leakage.shifted(dv)
        vf_table = build_vf_table(freq_model, chip.tech, chip.arch)
        new_cores.append(CoreDescriptor(
            core_id=core.core_id,
            vf_table=vf_table,
            freq_model=freq_model,
            leakage=leakage,
            static_power_rated=leakage.power(chip.tech.vdd_max,
                                             T_REF_K),
        ))
    return dataclasses.replace(chip, cores=tuple(new_cores))


def bias_for_target_frequency(
    core: CoreDescriptor,
    target_hz: float,
    tech_vdd_max: float,
    params: Optional[AbbParams] = None,
) -> float:
    """Bias bringing one core's fmax to a target (clipped to range).

    fmax is monotone in the bias (less Vth = faster), so bisection on
    the bias suffices.
    """
    params = params or AbbParams()
    if target_hz <= 0:
        raise ValueError("target frequency must be positive")

    def fmax_at(bias: float) -> float:
        dv = -params.vth_shift_per_volt * bias
        return core.freq_model.shifted(dv).fmax(tech_vdd_max)

    lo, hi = -params.max_bias, params.max_bias
    if fmax_at(hi) <= target_hz:
        return hi  # full forward bias still too slow: best effort
    if fmax_at(lo) >= target_hz:
        return lo  # even full reverse bias stays above target
    for _ in range(40):
        mid = 0.5 * (lo + hi)
        f = fmax_at(mid)
        if abs(f - target_hz) <= BIAS_TOLERANCE_HZ:
            return mid
        if f < target_hz:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def frequency_levelling_biases(
    chip: ChipProfile,
    params: Optional[AbbParams] = None,
) -> np.ndarray:
    """Humenay-style speed levelling: bias every core toward the die's
    median fmax.

    Slow cores get forward bias (speed-up, leakage-up), fast cores get
    reverse bias (slow-down, leakage-down).
    """
    params = params or AbbParams()
    target_hz = float(np.median(chip.fmax_array))
    return np.array([
        bias_for_target_frequency(core, target_hz, chip.tech.vdd_max,
                                  params)
        for core in chip.cores
    ])
