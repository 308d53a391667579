"""Application profiles calibrated to Table 5 of the paper.

Table 5 gives, for each of the 14 SPEC applications used, the average
core dynamic power at 4 GHz / 1 V and the average IPC. We add one
modelling ingredient the paper measures implicitly through SESC: the
*memory-boundedness* of each application, expressed as the fraction of
its CPI at the reference frequency that is spent waiting on main
memory. That single number drives the CPI-split frequency-scaling
model:

    CPI(f) = CPI_core + MPI * L_mem_cycles(f)
    L_mem_cycles(f) = L_mem_seconds * f

so IPC falls with frequency for memory-bound applications and is nearly
frequency-invariant for compute-bound ones — exactly the second-order
effect Section 4.3.1 discusses when justifying the constant-IPC
approximation inside LinOpt.

The memory fractions below are assigned from each application's IPC
and its well-known SPEC CPU2000 behaviour (mcf/art/swim/apsi are memory
hogs; bzip2/crafty/vortex/gap are compute-bound).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

from ..power.scaling import ceff_from_reference

# Reference conditions of the Table 5 measurements.
REF_FREQ_HZ = 4.0e9
REF_VDD = 1.0


@dataclass(frozen=True)
class AppProfile:
    """Statically profiled characteristics of one application.

    Attributes:
        name: Application name.
        dynamic_power_ref: Core dynamic power (W) at 4 GHz / 1 V.
        ipc_ref: Average IPC at the reference frequency.
        mem_cpi_fraction: Fraction of reference CPI stalled on memory.
    """

    name: str
    dynamic_power_ref: float
    ipc_ref: float
    mem_cpi_fraction: float

    def __post_init__(self) -> None:
        if self.dynamic_power_ref <= 0:
            raise ValueError("dynamic power must be positive")
        if self.ipc_ref <= 0:
            raise ValueError("IPC must be positive")
        if not 0 <= self.mem_cpi_fraction < 1:
            raise ValueError("mem_cpi_fraction must be in [0, 1)")

    @property
    def ceff(self) -> float:
        """Effective switched capacitance (F) from the reference point."""
        return ceff_from_reference(self.dynamic_power_ref, REF_VDD,
                                   REF_FREQ_HZ)

    @property
    def cpi_ref(self) -> float:
        return 1.0 / self.ipc_ref

    @property
    def cpi_core(self) -> float:
        """Frequency-independent (core-bound) CPI component."""
        return (1.0 - self.mem_cpi_fraction) * self.cpi_ref

    @property
    def mem_seconds_per_instr(self) -> float:
        """Memory stall time per instruction (s), frequency invariant."""
        mem_cpi_ref = self.mem_cpi_fraction * self.cpi_ref
        return mem_cpi_ref / REF_FREQ_HZ

    def ipc_at(self, freq_hz: float) -> float:
        """IPC at an arbitrary core frequency (CPI-split model)."""
        if freq_hz <= 0:
            raise ValueError("frequency must be positive")
        cpi = self.cpi_core + self.mem_seconds_per_instr * freq_hz
        return 1.0 / cpi

    def throughput_at(self, freq_hz: float) -> float:
        """Instructions per second at a core frequency."""
        return self.ipc_at(freq_hz) * freq_hz

    def dynamic_power_at(self, vdd: float, freq_hz: float) -> float:
        """Core dynamic power (W) at an operating point."""
        return self.ceff * vdd ** 2 * freq_hz


def _app(name: str, power: float, ipc: float, mem: float) -> AppProfile:
    return AppProfile(name=name, dynamic_power_ref=power, ipc_ref=ipc,
                      mem_cpi_fraction=mem)


# Table 5 of the paper: (dynamic power W at 4 GHz/1 V, IPC), plus the
# assigned memory-CPI fraction.
SPEC_APPS: Tuple[AppProfile, ...] = (
    _app("applu", 4.3, 1.1, 0.15),
    _app("apsi", 1.6, 0.1, 0.80),
    _app("art", 2.4, 0.2, 0.75),
    _app("bzip2", 3.7, 1.1, 0.10),
    _app("crafty", 3.9, 1.1, 0.05),
    _app("equake", 2.1, 0.3, 0.65),
    _app("gap", 3.5, 1.0, 0.15),
    _app("gzip", 2.7, 0.7, 0.20),
    _app("mcf", 1.5, 0.1, 0.85),
    _app("mgrid", 2.2, 0.4, 0.55),
    _app("parser", 2.8, 0.7, 0.30),
    _app("swim", 2.2, 0.3, 0.70),
    _app("twolf", 2.3, 0.4, 0.45),
    _app("vortex", 4.4, 1.2, 0.05),
)

APP_BY_NAME: Dict[str, AppProfile] = {a.name: a for a in SPEC_APPS}


def get_app(name: str) -> AppProfile:
    """Look up an application profile by name."""
    try:
        return APP_BY_NAME[name]
    except KeyError:
        raise KeyError(f"unknown application {name!r}; known: "
                       f"{sorted(APP_BY_NAME)}") from None
