"""Global configuration objects for the reproduction.

The defaults in this module encode Table 4 of the paper: a 20-core CMP of
2-issue out-of-order Alpha 21264-like cores at 32 nm, nominal 4 GHz,
VDD in [0.6, 1.0] V, a 340 mm^2 die, and the VARIUS variation parameters
(Vth mu = 250 mV at 60 C, sigma/mu in 0.03-0.12 with default 0.12,
phi = 0.5 of the chip width).
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Tuple

# Boltzmann constant times unit charge inverse: kT/q at T kelvin is
# BOLTZMANN_EV * T volts.
BOLTZMANN_EV = 8.617333262e-5

# Reference temperature (kelvin) at which Vth mu is specified (60 C).
T_REF_K = 333.15

# Maximum observed application temperature used for frequency binning
# (Section 7.1 measures roughly 95 C under load).
T_HOT_K = 368.15

CELSIUS_OFFSET = 273.15


def celsius(kelvin_t: float) -> float:
    """Convert a temperature from kelvin to Celsius."""
    return kelvin_t - CELSIUS_OFFSET


@dataclass(frozen=True)
class TechParams:
    """Process-technology parameters (32 nm, per Table 4 and VARIUS).

    Attributes:
        node_nm: Feature size in nanometres.
        vdd_nominal: Nominal supply voltage (V).
        vdd_min: Lowest DVFS supply voltage (V).
        vdd_max: Highest DVFS supply voltage (V).
        vth_mean: Mean threshold voltage at ``T_REF_K`` (V).
        vth_sigma_over_mu: Total sigma/mu of Vth variation.
        leff_mean: Mean effective gate length (m).
        leff_sigma_over_mu: Total sigma/mu of Leff variation
            (0.5x Vth's, per Section 6.1).
        phi_fraction: Spatial-correlation range as a fraction of the
            chip width (spherical correlation reaches zero at phi).
        alpha_power: Velocity-saturation exponent of the alpha-power
            law (approximately 1.3 for deep submicron).
        subthreshold_slope_mv: Subthreshold swing in mV/decade,
            used to derive the leakage exponent.
        vth_temp_coeff: dVth/dT in V/K (Vth drops as T rises).
    """

    node_nm: float = 32.0
    vdd_nominal: float = 1.0
    vdd_min: float = 0.6
    vdd_max: float = 1.0
    vth_mean: float = 0.250
    vth_sigma_over_mu: float = 0.12
    leff_mean: float = 32e-9
    leff_sigma_over_mu: float = 0.06
    phi_fraction: float = 0.5
    alpha_power: float = 1.4
    subthreshold_slope_mv: float = 100.0
    vth_temp_coeff: float = -0.4e-3

    def __post_init__(self) -> None:
        if self.vdd_min <= 0 or self.vdd_max < self.vdd_min:
            raise ValueError("require 0 < vdd_min <= vdd_max")
        if self.vth_mean <= 0:
            raise ValueError("vth_mean must be positive")
        if self.vth_sigma_over_mu < 0 or self.leff_sigma_over_mu < 0:
            raise ValueError("sigma/mu values must be non-negative")
        if not 0 < self.phi_fraction <= 1:
            raise ValueError("phi_fraction must be in (0, 1]")
        if self.vth_mean >= self.vdd_min:
            raise ValueError("vth_mean must be below vdd_min for the "
                             "alpha-power law to stay in saturation")

    @property
    def vth_sigma(self) -> float:
        """Total Vth standard deviation (V)."""
        return self.vth_mean * self.vth_sigma_over_mu

    @property
    def leff_sigma(self) -> float:
        """Total Leff standard deviation (m)."""
        return self.leff_mean * self.leff_sigma_over_mu

    def with_sigma_over_mu(self, vth_sigma_over_mu: float) -> "TechParams":
        """Return a copy with a new Vth sigma/mu (Leff follows at 0.5x)."""
        return dataclasses.replace(
            self,
            vth_sigma_over_mu=vth_sigma_over_mu,
            leff_sigma_over_mu=0.5 * vth_sigma_over_mu,
        )


@dataclass(frozen=True)
class ArchConfig:
    """CMP architecture configuration (Table 4).

    Attributes:
        n_cores: Number of cores on the die.
        freq_nominal_hz: Nominal (variation-free) frequency at vdd_max.
        die_area_mm2: Total die area.
        memory_latency_cycles: Main-memory latency in cycles at the
            nominal frequency (used by the CPI-split IPC model).
        n_voltage_levels: Number of discrete DVFS voltage steps between
            vdd_min and vdd_max inclusive.
        grid_resolution: Variation-map grid points per chip edge.
    """

    n_cores: int = 20
    freq_nominal_hz: float = 4.0e9
    die_area_mm2: float = 340.0
    memory_latency_cycles: int = 400
    n_voltage_levels: int = 9
    grid_resolution: int = 64

    def __post_init__(self) -> None:
        if self.n_cores <= 0:
            raise ValueError("n_cores must be positive")
        if self.freq_nominal_hz <= 0:
            raise ValueError("freq_nominal_hz must be positive")
        if self.n_voltage_levels < 2:
            raise ValueError("need at least 2 voltage levels")
        if self.grid_resolution < 8:
            raise ValueError("grid_resolution must be at least 8")

    @property
    def die_edge_mm(self) -> float:
        """Edge length of the (square) die in millimetres."""
        return self.die_area_mm2 ** 0.5


@dataclass(frozen=True)
class PowerEnvironment:
    """A chip power budget scenario (Section 7.5).

    ``p_target_full`` is the budget with all 20 cores active; with fewer
    threads the budget scales proportionally (Section 7.5). The per-core
    cap ``p_core_max`` bounds any individual core.
    """

    name: str
    p_target_full: float
    p_core_max: float = 8.0

    def p_target(self, n_threads: int, n_cores: int) -> float:
        """Chip power budget for ``n_threads`` active threads."""
        if n_threads <= 0:
            raise ValueError("n_threads must be positive")
        if n_threads > n_cores:
            raise ValueError("more threads than cores")
        return self.p_target_full * n_threads / n_cores


LOW_POWER = PowerEnvironment("Low Power", 50.0)
COST_PERFORMANCE = PowerEnvironment("Cost-Performance", 75.0)
HIGH_PERFORMANCE = PowerEnvironment("High Performance", 100.0)

POWER_ENVIRONMENTS: Tuple[PowerEnvironment, ...] = (
    LOW_POWER,
    COST_PERFORMANCE,
    HIGH_PERFORMANCE,
)

DEFAULT_TECH = TechParams()
DEFAULT_ARCH = ArchConfig()
