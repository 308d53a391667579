"""Serial reference implementations the product code is checked against.

Each function here is the straightforward form of something ``repro``
computes a faster way, kept only as an oracle for bitwise parity
tests and for the benchmarks that measure the fast path against it:

* :func:`run_dense` — the per-millisecond simulation loop that
  :class:`repro.runtime.simulation.SimulationStepper` must match bit
  for bit while evaluating only at events;
* :func:`core_power_ratio` / :func:`core_frequency_ratio` — the
  per-die Figure 4 statistics that
  :func:`repro.fleet.campaign.fleet_die_metrics` computes die-batched;
* :func:`exact_quantile` — the sorted-sample quantile the online
  estimators of :mod:`repro.fleet.quantiles` are tested against.

The module name does not match ``test_*.py``, so pytest does not
collect it; tests and benchmarks import it as ``tests.references``.
"""

from __future__ import annotations

import math
from typing import List, Optional, Tuple

import numpy as np

from repro.chip import ChipProfile
from repro.fleet.quantiles import _clean
from repro.runtime.evaluation import (
    Assignment,
    evaluate_levels,
    evaluate_max_levels,
)
from repro.runtime.simulation import (
    _TIME_EPS,
    SENSOR_PERIOD_S,
    OnlineSimulation,
    SimulationTrace,
)
from repro.workloads import SPEC_APPS, Workload


def run_dense(sim: OnlineSimulation, duration_s: float,
              dvfs_interval_s: float) -> SimulationTrace:
    """Per-millisecond reference loop of :meth:`OnlineSimulation.run`.

    Semantically identical to the event-driven loop (same manager
    invocations, same warm starts, same evaluations at events) but
    re-solves the leakage-temperature fixed point at every sensor
    sample. Does not support the fault layer.
    """
    if duration_s <= 0 or dvfs_interval_s <= 0:
        raise ValueError("duration and interval must be positive")
    if sim._faulty:
        raise ValueError("the dense reference does not model faults")
    n_steps = int(round(duration_s / SENSOR_PERIOD_S))
    times = np.arange(n_steps) * SENSOR_PERIOD_S
    ipc_grid, ceff_grid = sim._multiplier_grid(times)
    p_target = sim.env.p_target(sim.assignment.n_threads,
                                sim.chip.n_cores)
    power = np.empty(n_steps)
    tput = np.empty(n_steps)
    wtput = np.empty(n_steps)
    manager_runs: List[float] = []
    transition_time = 0.0
    level_transitions = 0
    migrations = 0

    levels: Optional[List[int]] = None
    prev_levels: Optional[List[int]] = None
    state = None
    assignment = sim.assignment
    next_manager_t = 0.0
    next_os_t = (sim.os_interval_s
                 if sim.os_interval_s is not None else None)
    for step in range(n_steps):
        t = times[step]
        ipc_mult = ipc_grid[step]
        ceff_mult = ceff_grid[step]
        migrated: Tuple[int, ...] = ()
        if next_os_t is not None and t >= next_os_t - _TIME_EPS:
            assignment, migrated = sim._os_reschedule(t, assignment)
            if migrated:
                migrations += len(migrated)
                levels = None
                next_manager_t = t
            next_os_t += sim.os_interval_s
        stepped: Optional[List[int]] = None
        if t >= next_manager_t - _TIME_EPS:
            kwargs = dict(ipc_multipliers=ipc_mult,
                          ceff_multipliers=ceff_mult)
            if levels is not None:
                kwargs.update(initial_levels=levels,
                              initial_state=state)
            result = sim.manager.set_levels(
                sim.chip, sim.workload, assignment, sim.env,
                **kwargs)
            new_levels = list(result.levels)
            if prev_levels is not None:
                stepped = sim._transition_steps(prev_levels,
                                                new_levels, migrated)
                n_stepped = sum(stepped)
                level_transitions += n_stepped
                transition_time += (
                    n_stepped * sim.transition_latency_s)
                if n_stepped == 0:
                    stepped = None
            levels = new_levels
            prev_levels = list(new_levels)
            manager_runs.append(t)
            next_manager_t += dvfs_interval_s
        state = evaluate_levels(sim.chip, sim.workload,
                                assignment, levels,
                                ipc_multipliers=ipc_mult,
                                ceff_multipliers=ceff_mult)
        power[step] = state.total_power
        tput[step] = state.throughput_mips
        wtput[step] = state.weighted_throughput(sim.workload)
        if stepped is not None and sim.transition_latency_s > 0:
            tput[step], wtput[step] = sim._lossy_sample(state, stepped)
    return SimulationTrace(
        times_s=times,
        power_w=power,
        p_target_w=p_target,
        throughput_mips=tput,
        weighted_throughput=wtput,
        manager_runs=manager_runs,
        transition_time_s=transition_time,
        migrations=migrations,
        level_transitions=level_transitions,
    )


def core_power_ratio(chip: ChipProfile) -> float:
    """Max/min per-core average power across all applications
    (Fig 4(a)), one serial evaluation per (core, app)."""
    mean_power = np.empty(chip.n_cores)
    for core_id in range(chip.n_cores):
        assignment = Assignment(core_of=(core_id,))
        powers = []
        for app in SPEC_APPS:
            state = evaluate_max_levels(chip, Workload((app,)), assignment)
            powers.append(float(state.core_power[0]))
        mean_power[core_id] = np.mean(powers)
    return float(mean_power.max() / mean_power.min())


def core_frequency_ratio(chip: ChipProfile) -> float:
    """Max/min core frequency (binned at the hot temperature)."""
    fmax = chip.fmax_array
    return float(fmax.max() / fmax.min())


def exact_quantile(values, p: float) -> float:
    """Sorted-sample quantile with linear interpolation."""
    arr = np.sort(_clean(values, "exact_quantile"))
    if arr.size == 0:
        return math.nan
    idx = p * (arr.size - 1)
    lo = int(math.floor(idx))
    hi = min(lo + 1, arr.size - 1)
    return float(arr[lo] + (idx - lo) * (arr[hi] - arr[lo]))
