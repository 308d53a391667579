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
  estimators of :mod:`repro.fleet.quantiles` are tested against;
* :func:`phase_state_at` — one application's phase multipliers at one
  time, the per-sample lookup that
  :meth:`repro.workloads.PhasedApplication.timeline_until` and the
  stepper's multiplier grid must agree with;
* :func:`sample_field` and :func:`generate_variation_map` — one field,
  and one die's variation map, at a time: the oracles of the field
  samplers' ``sample_batch`` and of
  :func:`repro.variation.generate_variation_maps` (and so of every
  die a :class:`repro.variation.DieBatch` hands out);
* :func:`characterize_die` with its per-core helpers
  :func:`extract_core_paths` and :func:`build_core_leakage` (built
  from :class:`UnitLeakage` records by :func:`core_leakage_from_units`)
  — the one-die binning flow that
  :func:`repro.chip.characterize_dies` must match bit for bit,
  including the exception a sub-threshold die raises.

The module name does not match ``test_*.py``, so pytest does not
collect it; tests and benchmarks import it as ``tests.references``.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.chip import ChipProfile, CoreDescriptor
from repro.config import T_REF_K, ArchConfig, TechParams
from repro.fleet.quantiles import _clean
from repro.floorplan import Floorplan, UnitKind, build_floorplan
from repro.freq import (
    GATES_PER_PATH,
    CoreFrequencyModel,
    PathSet,
    build_vf_table,
    frequency_calibration,
    pareto_prune,
    worst_cell_quantile,
)
from repro.power import CoreLeakageModel, L2LeakageModel, leakage_calibration
from repro.runtime.evaluation import (
    Assignment,
    evaluate_levels,
    evaluate_max_levels,
)
from repro.runtime.simulation import (
    _TIME_EPS,
    DECISION_MANAGER,
    SENSOR_PERIOD_S,
    ManagerDecision,
    OnlineSimulation,
    SimulationTrace,
)
from repro.thermal import ThermalNetwork
from repro.variation import (
    CholeskyFieldSampler,
    Die,
    VariationMap,
    make_field_sampler,
)
from repro.variation.varius import _finalize_variation_map
from repro.workloads import (
    SPEC_APPS,
    PhasedApplication,
    PhaseState,
    Workload,
)


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
    decisions: List[ManagerDecision] = []
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
            decisions.append(ManagerDecision(
                time_s=float(t), kind=DECISION_MANAGER,
                levels=tuple(new_levels),
                core_of=tuple(assignment.core_of),
                migrated=tuple(migrated),
                resilience_tier=result.resilience_tier,
                lp_fallbacks=int(result.stats.get("lp_fallbacks", 0.0)),
                evaluations=int(result.evaluations),
                cause=result.cause))
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
        decisions=tuple(decisions),
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


def phase_state_at(app: PhasedApplication, time_s: float) -> PhaseState:
    """Phase multipliers of ``app`` at simulation time ``time_s``.

    The process is generated forward on demand; any time within the
    generated horizon can be queried (segments are kept).
    """
    if time_s < 0:
        raise ValueError("time must be non-negative")
    app._advance_to(time_s)
    idx = bisect.bisect_right(app._seg_ends, time_s)
    return app._seg_states[idx]


def sample_field(sampler, rng: np.random.Generator) -> np.ndarray:
    """Draw one zero-mean, unit-variance correlated field from either
    field sampler of :mod:`repro.variation.spatial`."""
    n = sampler.resolution
    if isinstance(sampler, CholeskyFieldSampler):
        z = rng.standard_normal(n * n)
        return (sampler._chol @ z).reshape(n, n)
    m = sampler._m
    noise = rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))
    spectrum = np.sqrt(sampler._eigen / (m * m))
    field = np.fft.fft2(spectrum * noise)
    # Real and imaginary parts are independent fields; use the real.
    return field.real[:n, :n] * sampler._scale


def generate_variation_map(tech: TechParams, die_edge_mm: float,
                           resolution: int,
                           rng: np.random.Generator) -> VariationMap:
    """One die's systematic Vth/Leff maps: the Vth field, then the
    independent field Leff's field mixes with it."""
    phi_mm = tech.phi_fraction * die_edge_mm
    sampler = make_field_sampler(resolution, die_edge_mm, phi_mm)
    base = sample_field(sampler, rng)
    indep = sample_field(sampler, rng)
    return _finalize_variation_map(tech, die_edge_mm, phi_mm, base, indep)


@dataclass(frozen=True)
class UnitLeakage:
    """Leakage state of one functional unit: cell Vth values + weight."""

    vth_cells: np.ndarray
    weight: float


def core_leakage_from_units(units: Sequence[UnitLeakage],
                            tech: TechParams,
                            calibration: float) -> CoreLeakageModel:
    """A core's leakage model from per-unit cells and weights: each
    unit's weight is split uniformly over its cells, then normalised
    over the core."""
    if not units:
        raise ValueError("a core needs at least one unit")
    vth_parts: List[np.ndarray] = []
    weight_parts: List[np.ndarray] = []
    for unit in units:
        cells = np.asarray(unit.vth_cells, dtype=float)
        if cells.size == 0:
            raise ValueError("unit with no variation cells")
        if unit.weight < 0:
            raise ValueError("unit weight must be non-negative")
        vth_parts.append(cells)
        weight_parts.append(np.full(cells.size, unit.weight / cells.size))
    weights = np.concatenate(weight_parts)
    total = weights.sum()
    if total <= 0:
        raise ValueError("total leakage weight must be positive")
    return CoreLeakageModel(np.concatenate(vth_parts), weights / total,
                            tech, calibration)


def build_core_leakage(vmap: VariationMap, floorplan: Floorplan,
                       core_id: int, tech: TechParams,
                       nominal_watts: float = None) -> CoreLeakageModel:
    """Build the leakage model of one core from its variation map."""
    units = []
    for unit in floorplan.core_units(core_id):
        r = unit.rect
        vth_cells, _ = vmap.region_cells(r.x0, r.y0, r.x1, r.y1)
        units.append(UnitLeakage(vth_cells=vth_cells,
                                 weight=unit.spec.leakage_weight))
    return core_leakage_from_units(
        units, tech, leakage_calibration(tech, nominal_watts))


def extract_core_paths(vmap: VariationMap, floorplan: Floorplan,
                       core_id: int, tech: TechParams,
                       rng: np.random.Generator) -> PathSet:
    """Sample the candidate critical paths of one core from its map."""
    sigma_ran_vth = tech.vth_sigma / np.sqrt(2.0)
    sigma_ran_leff = tech.leff_sigma / np.sqrt(2.0)
    path_sigma_vth = sigma_ran_vth / np.sqrt(GATES_PER_PATH)
    path_sigma_leff = sigma_ran_leff / np.sqrt(GATES_PER_PATH)
    z_sram = worst_cell_quantile()

    vth_list = []
    leff_list = []
    for unit in floorplan.core_units(core_id):
        r = unit.rect
        vth_sys, leff_sys = vmap.region_cells(r.x0, r.y0, r.x1, r.y1)
        if unit.spec.kind is UnitKind.LOGIC:
            vth_eff = vth_sys + path_sigma_vth * rng.standard_normal(
                vth_sys.size)
            leff_eff = leff_sys + path_sigma_leff * rng.standard_normal(
                leff_sys.size)
        else:
            vth_eff = vth_sys + z_sram * sigma_ran_vth
            leff_eff = leff_sys
        vth_list.append(vth_eff)
        leff_list.append(leff_eff)

    paths = PathSet(
        vth=np.concatenate(vth_list),
        leff=np.concatenate(leff_list),
    )
    return pareto_prune(paths)


def characterize_die(die: Die, tech: TechParams, arch: ArchConfig,
                     floorplan: Optional[Floorplan] = None,
                     thermal: Optional[ThermalNetwork] = None,
                     ) -> ChipProfile:
    """Characterise one die into a :class:`ChipProfile`, core by core.

    Path sampling uses a per-die deterministic seed so the same die
    always bins identically.
    """
    if floorplan is None:
        floorplan = build_floorplan(arch)
    if floorplan.n_cores != arch.n_cores:
        raise ValueError("floorplan core count does not match arch")
    if thermal is None:
        thermal = ThermalNetwork(floorplan)
    calib = frequency_calibration(tech, arch)
    rng = np.random.default_rng([die.die_id, 0xC0DE])
    cores = []
    for core_id in range(arch.n_cores):
        paths = extract_core_paths(die.variation, floorplan, core_id,
                                   tech, rng)
        freq_model = CoreFrequencyModel(paths, tech, calib)
        vf_table = build_vf_table(freq_model, tech, arch)
        leakage = build_core_leakage(die.variation, floorplan, core_id, tech)
        rated = leakage.power(tech.vdd_max, T_REF_K)
        cores.append(CoreDescriptor(
            core_id=core_id,
            vf_table=vf_table,
            freq_model=freq_model,
            leakage=leakage,
            static_power_rated=rated,
        ))
    l2 = L2LeakageModel(die.variation, floorplan, tech)
    return ChipProfile(
        die_id=die.die_id,
        tech=tech,
        arch=arch,
        floorplan=floorplan,
        cores=tuple(cores),
        l2_leakage=l2,
        thermal=thermal,
    )
