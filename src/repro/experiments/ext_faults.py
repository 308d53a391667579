"""Extension experiment: graceful degradation under faults.

The paper's online loop (Figure 2) assumes ideal sensors, a solver
that always answers in time, and a full complement of healthy cores.
This experiment drops those assumptions and measures how gracefully
the runtime degrades:

* **Degradation curves** (:func:`run`): throughput, power deviation
  and watchdog/fallback activity as sensor noise sigma grows and as
  the random fault rate grows, with the full protection stack on
  (per-core sensor bank, power-budget watchdog, LinOpt -> Foxton* ->
  all-minimum fallback chain).
* **Seeded scenario** (:func:`scenario`): the regression case pinned
  by ``tests/test_faults.py`` — one dead per-core power sensor plus
  one core going offline at t = 50 ms, 5 % relative noise on the
  surviving sensors. Three arms: fault-free baseline, faulty run with
  the watchdog, and the no-watchdog ablation. The watchdog arm must
  hold mean |P - Ptarget| within 2x the fault-free run while the
  ablation demonstrably overshoots the budget.

An 8-core die (rather than the paper's 20) keeps the power budget
binding at interactive runtimes; the Low Power environment makes
overshoot physically reachable so the watchdog has something to do.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from ..config import ArchConfig, LOW_POWER, PowerEnvironment
from ..faults import (
    CORE_DROOP,
    CORE_OFFLINE,
    MANAGER_DEADLINE,
    MANAGER_ERROR,
    SENSOR_DEAD,
    SENSOR_DRIFT,
    SENSOR_STUCK,
    FaultEvent,
    FaultSchedule,
    PowerWatchdog,
    ResilientManager,
    SensorBank,
)
from ..faults.watchdog import GUARD_BAND_FRAC, K_SAMPLES
from ..pm import FoxtonStar, LinOpt, LinOptConfig
from ..power import SensorSpec
from ..runtime.simulation import OnlineSimulation, SimulationTrace
from ..sched import VarFAppIPC
from ..workloads import make_workload
from .common import ChipFactory, format_rows

#: Default simulated horizon and manager interval. The 20 ms interval
#: (vs the paper's 10 ms) leaves room for phase drift between manager
#: invocations — the excursions the watchdog exists to trim.
DURATION_S = 0.25
DVFS_INTERVAL_S = 0.02
N_THREADS = 6
#: Noise sigmas swept by the degradation curves (relative, 1-sigma).
NOISE_SIGMAS: Tuple[float, ...] = (0.0, 0.02, 0.05, 0.10)
#: Total random-fault rates swept (events/s, split across kinds).
FAULT_RATES: Tuple[float, ...] = (0.0, 8.0, 16.0, 32.0)
#: How a total fault rate is split across fault kinds.
KIND_MIX: Dict[str, float] = {
    SENSOR_STUCK: 0.25,
    SENSOR_DRIFT: 0.20,
    SENSOR_DEAD: 0.20,
    CORE_DROOP: 0.15,
    CORE_OFFLINE: 0.05,
    MANAGER_ERROR: 0.10,
    MANAGER_DEADLINE: 0.05,
}
#: Scenario constants (the acceptance regression).
SCENARIO_FAULT_T_S = 0.050
SCENARIO_NOISE_SIGMA = 0.05


def _small_factory(seed: int = 0) -> ChipFactory:
    """The experiment's default 8-core die factory."""
    return ChipFactory(arch=ArchConfig(n_cores=8, die_area_mm2=140.0,
                                       grid_resolution=32), seed=seed)


@dataclass(frozen=True)
class ArmSummary:
    """Summary statistics of one simulated arm."""

    name: str
    deviation_pct: float
    overshoot_fraction: float
    mean_overshoot_w: float
    throughput_mips: float
    watchdog_triggers: int
    fallback_activations: int
    migrations: int
    faults_applied: int
    trigger_times_s: Tuple[float, ...] = ()
    fault_times_s: Tuple[float, ...] = ()
    fallback_times_s: Tuple[float, ...] = ()
    lp_fallback_times_s: Tuple[float, ...] = ()

    @classmethod
    def from_trace(cls, name: str, trace: SimulationTrace,
                   ) -> "ArmSummary":
        """Condense a simulation trace into the reported statistics."""
        over = np.maximum(trace.power_w - trace.p_target_w, 0.0)
        return cls(
            name=name,
            deviation_pct=trace.mean_abs_deviation_pct,
            overshoot_fraction=trace.overshoot_fraction,
            mean_overshoot_w=float(over.mean()),
            throughput_mips=trace.mean_throughput_mips,
            watchdog_triggers=len(trace.watchdog_triggers),
            fallback_activations=trace.fallback_activations,
            migrations=trace.migrations,
            faults_applied=len(trace.fault_events),
            trigger_times_s=tuple(trace.watchdog_triggers),
            fault_times_s=tuple(e.time_s for e in trace.fault_events),
            fallback_times_s=tuple(trace.fallback_times_s),
            lp_fallback_times_s=tuple(trace.lp_fallback_times_s),
        )


@dataclass(frozen=True)
class FaultScenarioResult:
    """The three-arm seeded scenario (acceptance regression)."""

    fault_free: ArmSummary
    watchdog: ArmSummary
    ablation: ArmSummary

    def format_table(self) -> str:
        header = ["arm", "dev %", "over frac", "over W", "MIPS",
                  "wd trig", "fallbacks", "migr", "faults"]
        rows = [[a.name, a.deviation_pct, a.overshoot_fraction,
                 a.mean_overshoot_w, a.throughput_mips,
                 a.watchdog_triggers, a.fallback_activations,
                 a.migrations, a.faults_applied]
                for a in (self.fault_free, self.watchdog, self.ablation)]
        return format_rows(
            header, rows,
            "Seeded fault scenario: dead power sensor + core offline at "
            "50 ms (watchdog must hold deviation within 2x fault-free; "
            "the ablation overshoots)")


@dataclass(frozen=True)
class ExtFaultsResult:
    """Degradation curves plus the seeded scenario."""

    noise_sigmas: Tuple[float, ...]
    noise_arms: Tuple[ArmSummary, ...]
    fault_rates: Tuple[float, ...]
    rate_arms: Tuple[ArmSummary, ...]
    scenario: FaultScenarioResult

    def format_table(self) -> str:
        header = ["sigma", "dev %", "over frac", "MIPS", "wd trig",
                  "fallbacks"]
        rows = [[f"{s:.2f}", a.deviation_pct, a.overshoot_fraction,
                 a.throughput_mips, a.watchdog_triggers,
                 a.fallback_activations]
                for s, a in zip(self.noise_sigmas, self.noise_arms)]
        noise = format_rows(
            header, rows,
            "Degradation vs sensor noise sigma (full protection stack)")
        header = ["rate /s", "dev %", "over frac", "MIPS", "faults",
                  "wd trig", "fallbacks", "migr"]
        rows = [[f"{r:.0f}", a.deviation_pct, a.overshoot_fraction,
                 a.throughput_mips, a.faults_applied,
                 a.watchdog_triggers, a.fallback_activations,
                 a.migrations]
                for r, a in zip(self.fault_rates, self.rate_arms)]
        rates = format_rows(
            header, rows,
            "Degradation vs random fault rate (full protection stack)")
        return "\n\n".join([noise, rates,
                            self.scenario.format_table()])


def _build_sim(chip, workload, assignment, env, *,
               noise_sigma: float,
               faults: Optional[FaultSchedule],
               with_watchdog: bool,
               seed: int,
               phase_seed: int) -> OnlineSimulation:
    """One protected simulation: bank-fed LinOpt + fallback chain.

    The same :class:`SensorBank` instance is both LinOpt's profiling
    sensor and the simulation's watchdog measurement path, so a sensor
    fault corrupts the manager's power model and the emergency sensing
    consistently.
    """
    bank = SensorBank(chip.n_cores,
                      spec=SensorSpec(noise_sigma=noise_sigma,
                                      relative=True),
                      seed=seed)
    manager = ResilientManager(
        primary=LinOpt(LinOptConfig(n_iterations=3), power_sensor=bank),
        fallback=FoxtonStar())
    watchdog = (PowerWatchdog(guard_band_frac=GUARD_BAND_FRAC,
                              k_samples=K_SAMPLES)
                if with_watchdog else None)
    return OnlineSimulation(chip, workload, assignment, env,
                            manager=manager, phase_seed=phase_seed,
                            faults=faults, sensor_bank=bank,
                            watchdog=watchdog)


def scenario(
    env: PowerEnvironment = LOW_POWER,
    duration_s: float = DURATION_S,
    dvfs_interval_s: float = DVFS_INTERVAL_S,
    n_threads: int = N_THREADS,
    factory: Optional[ChipFactory] = None,
    seed: int = 1,
) -> FaultScenarioResult:
    """Run the seeded three-arm fault scenario.

    At ``SCENARIO_FAULT_T_S`` the power sensor of thread 0's core dies
    (it keeps reporting its last-known-good value) and thread 1's core
    goes offline (the thread migrates to the fastest surviving spare);
    every other sensor carries 5 % relative noise throughout.

    Seed 1 is the pinned regression seed: it draws a workload whose
    phase excursions make the budget bind, so the watchdog visibly
    acts (asserted in ``tests/test_faults.py``).
    """
    factory = factory or _small_factory(seed)
    chip = factory.chip(0)
    workload = make_workload(n_threads,
                             np.random.default_rng([seed, 31]))
    assignment = VarFAppIPC().assign_with_profiling(
        chip, workload, np.random.default_rng([seed, 37]))
    faults = FaultSchedule([
        FaultEvent(SCENARIO_FAULT_T_S, SENSOR_DEAD,
                   target=assignment.core_of[0]),
        FaultEvent(SCENARIO_FAULT_T_S, CORE_OFFLINE,
                   target=assignment.core_of[1]),
    ])

    baseline = OnlineSimulation(
        chip, workload, assignment, env,
        manager=ResilientManager(
            primary=LinOpt(LinOptConfig(n_iterations=3)),
            fallback=FoxtonStar()),
        phase_seed=seed)
    arms = {
        "fault_free": baseline.run(duration_s, dvfs_interval_s),
        "watchdog": _build_sim(
            chip, workload, assignment, env,
            noise_sigma=SCENARIO_NOISE_SIGMA, faults=faults,
            with_watchdog=True, seed=seed + 42, phase_seed=seed,
        ).run(duration_s, dvfs_interval_s),
        "ablation": _build_sim(
            chip, workload, assignment, env,
            noise_sigma=SCENARIO_NOISE_SIGMA, faults=faults,
            with_watchdog=False, seed=seed + 42, phase_seed=seed,
        ).run(duration_s, dvfs_interval_s),
    }
    summaries = {name: ArmSummary.from_trace(name, trace)
                 for name, trace in arms.items()}
    return FaultScenarioResult(fault_free=summaries["fault_free"],
                               watchdog=summaries["watchdog"],
                               ablation=summaries["ablation"])


def run(
    noise_sigmas: Sequence[float] = NOISE_SIGMAS,
    fault_rates: Sequence[float] = FAULT_RATES,
    env: PowerEnvironment = LOW_POWER,
    duration_s: float = DURATION_S,
    dvfs_interval_s: float = DVFS_INTERVAL_S,
    n_threads: int = N_THREADS,
    factory: Optional[ChipFactory] = None,
    seed: int = 1,
) -> ExtFaultsResult:
    """Produce the degradation curves and the seeded scenario."""
    factory = factory or _small_factory(seed)
    chip = factory.chip(0)
    workload = make_workload(n_threads,
                             np.random.default_rng([seed, 31]))
    assignment = VarFAppIPC().assign_with_profiling(
        chip, workload, np.random.default_rng([seed, 37]))

    noise_arms = []
    for i, sigma in enumerate(noise_sigmas):
        trace = _build_sim(
            chip, workload, assignment, env, noise_sigma=float(sigma),
            faults=None, with_watchdog=True, seed=seed + i,
            phase_seed=seed,
        ).run(duration_s, dvfs_interval_s)
        noise_arms.append(ArmSummary.from_trace(f"sigma={sigma}", trace))

    rate_arms = []
    for i, rate in enumerate(fault_rates):
        rates = {kind: share * float(rate)
                 for kind, share in KIND_MIX.items()}
        faults = FaultSchedule.random(
            duration_s, rates, chip.n_cores, seed=seed + i,
            param_ranges={SENSOR_STUCK: (0.0, 8.0)})
        trace = _build_sim(
            chip, workload, assignment, env,
            noise_sigma=SCENARIO_NOISE_SIGMA, faults=faults,
            with_watchdog=True, seed=seed + i, phase_seed=seed,
        ).run(duration_s, dvfs_interval_s)
        rate_arms.append(ArmSummary.from_trace(f"rate={rate}", trace))

    return ExtFaultsResult(
        noise_sigmas=tuple(float(s) for s in noise_sigmas),
        noise_arms=tuple(noise_arms),
        fault_rates=tuple(float(r) for r in fault_rates),
        rate_arms=tuple(rate_arms),
        scenario=scenario(env=env, duration_s=duration_s,
                          dvfs_interval_s=dvfs_interval_s,
                          n_threads=n_threads, factory=factory,
                          seed=seed),
    )
