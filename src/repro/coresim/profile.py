"""Derive AppProfile objects from trace-driven simulation.

This closes the substitution loop documented in DESIGN.md: the
analytical CPI-split profiles (calibrated to Table 5) stand in for
SESC; this module *derives* equivalent profiles by actually simulating
synthetic traces on the interval core model, so the approximation can
be cross-validated — the derived profile's IPC(f) behaviour should
track the simulator's own IPC(f) closely.

Dynamic power comes from the measured per-unit activity and
per-access energies calibrated so a mid-mix trace at 4 GHz / 1 V lands
in Table 5's dynamic-power range.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from ..workloads.applications import AppProfile, REF_FREQ_HZ
from .core import CoreSimulator, TraceSummary
from .trace import TRACE_CLASSES, TraceParams

# Per-event energy (J) by activity counter, tuned to land synthetic
# mixes in Table 5's 1.5-4.4 W dynamic range at 4 GHz / 1 V.
ENERGY_PER_EVENT_J = {
    "int_alu": 0.60e-9,
    "fpu": 1.20e-9,
    "bpred": 0.30e-9,
    "l1i": 0.24e-9,
    "l1d": 0.50e-9,
    "l2": 1.60e-9,
    "regfile": 0.20e-9,
}
# Clock tree and other per-cycle overheads (J per cycle).
ENERGY_PER_CYCLE_J = 0.22e-9


@dataclass(frozen=True)
class SimulatedProfile:
    """A derived application profile plus its raw simulation data."""

    profile: AppProfile
    summary: TraceSummary


def dynamic_power_from_activity(summary: TraceSummary,
                                freq_hz: float = REF_FREQ_HZ,
                                vdd: float = 1.0) -> float:
    """Dynamic power (W) implied by a trace's activity counts.

    Energy per instruction is activity-weighted; power is
    energy/instruction * instructions/second, plus the per-cycle
    clock overhead. Scaled by V^2 from the 1 V reference.
    """
    if freq_hz <= 0 or vdd <= 0:
        raise ValueError("frequency and voltage must be positive")
    energy_per_instr = sum(
        ENERGY_PER_EVENT_J[unit] * count
        for unit, count in summary.activity.items()
    ) / summary.n_instructions
    ips = summary.ipc_at(freq_hz) * freq_hz
    power = energy_per_instr * ips + ENERGY_PER_CYCLE_J * freq_hz
    return power * vdd ** 2


def derive_app_profile(
    params: TraceParams,
    name: str,
    n_instructions: int = 200_000,
    seed: int = 0,
) -> SimulatedProfile:
    """Simulate a synthetic trace and package it as an AppProfile.

    The derived profile uses the simulator's measured IPC at the
    reference frequency, its measured memory-CPI share (which is what
    the closed-form CPI-split model needs), and its activity-derived
    dynamic power.
    """
    sim = CoreSimulator(params, seed=seed)
    summary = sim.run(n_instructions)
    profile = AppProfile(
        name=name,
        dynamic_power_ref=dynamic_power_from_activity(summary),
        ipc_ref=summary.ipc_at(REF_FREQ_HZ),
        mem_cpi_fraction=min(summary.memory_cpi_fraction, 0.95),
    )
    return SimulatedProfile(profile=profile, summary=summary)


def derive_class_profiles(
    n_instructions: int = 200_000,
    seed: int = 0,
) -> Dict[str, SimulatedProfile]:
    """Derive a profile for every built-in trace class."""
    return {
        name: derive_app_profile(params, f"sim-{name}",
                                 n_instructions=n_instructions,
                                 seed=seed)
        for name, params in TRACE_CLASSES.items()
    }
