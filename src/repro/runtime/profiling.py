"""Profiling support for the scheduling and PM algorithms (Table 3).

Two kinds of profile information exist:

* **Manufacturer data** — per-core static power at each voltage and the
  per-core (V, f) tables. These live on :class:`repro.chip.ChipProfile`
  already.
* **Dynamic measurements** — each thread's dynamic power and IPC,
  measured by running it briefly on *one random core* and reading the
  core's power sensor and performance counters (Section 5.2). The
  measured dynamic power is scaled by the profiling core's V^2*f so
  different threads are comparable; the measured IPC is taken as
  frequency-independent (the paper's stated approximation).

Measurements go through :class:`repro.power.PowerSensor` /
:class:`repro.power.IpcSensor`, so sensor noise (if configured)
propagates into the rankings exactly as it would on real hardware.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from ..chip import ChipProfile
from ..power import IpcSensor, PowerSensor
from ..workloads import Workload

# Core temperature (K) during the profiling run, used for the true
# static power behind the sensor reading.
T_PROFILE_K = 350.0


@dataclass(frozen=True)
class ThreadProfile:
    """Dynamic profile of the workload's threads.

    Attributes:
        ceff_estimate: Per-thread scaled dynamic power (an effective-
            capacitance estimate, F) — the VarP&AppP ranking input.
        ipc_estimate: Per-thread measured IPC — the VarF&AppIPC
            ranking input.
        profiling_core: The core each thread was profiled on.
    """

    ceff_estimate: np.ndarray
    ipc_estimate: np.ndarray
    profiling_core: Tuple[int, ...]


def profile_threads(
    chip: ChipProfile,
    workload: Workload,
    rng: np.random.Generator,
    power_sensor: Optional[PowerSensor] = None,
    ipc_sensor: Optional[IpcSensor] = None,
) -> ThreadProfile:
    """Profile each thread on one random core (Section 5.2).

    The profiling run happens at the core's maximum operating point.
    The power sensor reads *total* core power; the known per-core
    static power at the profiling voltage (manufacturer data) is
    subtracted to estimate dynamic power, which is then normalised by
    V^2 * f.

    Args:
        chip: Characterised die (supplies sensors' ground truth).
        workload: Threads to profile.
        rng: Source of the random core choices.
        power_sensor: Power sensor model (noise-free by default).
        ipc_sensor: IPC sensor model (noise-free by default).

    Returns:
        A :class:`ThreadProfile`.
    """
    power_sensor = power_sensor or PowerSensor()
    ipc_sensor = ipc_sensor or IpcSensor()
    n = workload.n_threads
    ceff = np.empty(n)
    ipc = np.empty(n)
    cores = []
    for i, app in enumerate(workload):
        core_id = int(rng.integers(chip.n_cores))
        cores.append(core_id)
        core = chip.cores[core_id]
        vdd = core.vf_table.vmax
        freq = core.vf_table.fmax
        true_dynamic = app.dynamic_power_at(vdd, freq)
        true_static = core.leakage.power(vdd, T_PROFILE_K)
        measured_total = power_sensor.read(true_dynamic + true_static)
        # Manufacturer's static rating is at the reference temperature,
        # not the live one — an inherent (small) profiling error.
        static_rated = core.static_power_at(vdd)
        dynamic_est = max(measured_total - static_rated, 0.0)
        ceff[i] = dynamic_est / (vdd ** 2 * freq)
        ipc[i] = ipc_sensor.read(app.ipc_at(freq))
    return ThreadProfile(ceff_estimate=ceff, ipc_estimate=ipc,
                         profiling_core=tuple(cores))
