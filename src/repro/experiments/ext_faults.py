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

from dataclasses import dataclass, replace
from typing import Dict, Optional, Sequence, Tuple

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
    TenantConfig,
    build_stepper,
)
from ..runtime.simulation import SimulationTrace
from ..sched import VarFAppIPC
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
class FaultScenarioResult:
    """The three-arm seeded scenario (acceptance regression)."""

    fault_free: SimulationTrace
    watchdog: SimulationTrace
    ablation: SimulationTrace

    def format_table(self) -> str:
        header = ["arm", "dev %", "over frac", "over W", "MIPS",
                  "wd trig", "fallbacks", "migr", "faults"]
        rows = [[name, a.mean_abs_deviation_pct, a.overshoot_fraction,
                 a.mean_overshoot_w, a.mean_throughput_mips,
                 len(a.watchdog_triggers), a.fallback_activations,
                 a.migrations, len(a.fault_events)]
                for name, a in (("fault_free", self.fault_free),
                                ("watchdog", self.watchdog),
                                ("ablation", self.ablation))]
        return format_rows(
            header, rows,
            "Seeded fault scenario: dead power sensor + core offline at "
            "50 ms (watchdog must hold deviation within 2x fault-free; "
            "the ablation overshoots)")


@dataclass(frozen=True)
class ExtFaultsResult:
    """Degradation curves plus the seeded scenario."""

    noise_sigmas: Tuple[float, ...]
    noise_arms: Tuple[SimulationTrace, ...]
    fault_rates: Tuple[float, ...]
    rate_arms: Tuple[SimulationTrace, ...]
    scenario: FaultScenarioResult

    def format_table(self) -> str:
        header = ["sigma", "dev %", "over frac", "MIPS", "wd trig",
                  "fallbacks"]
        rows = [[f"{s:.2f}", a.mean_abs_deviation_pct,
                 a.overshoot_fraction, a.mean_throughput_mips,
                 len(a.watchdog_triggers), a.fallback_activations]
                for s, a in zip(self.noise_sigmas, self.noise_arms)]
        noise = format_rows(
            header, rows,
            "Degradation vs sensor noise sigma (full protection stack)")
        header = ["rate /s", "dev %", "over frac", "MIPS", "faults",
                  "wd trig", "fallbacks", "migr"]
        rows = [[f"{r:.0f}", a.mean_abs_deviation_pct,
                 a.overshoot_fraction, a.mean_throughput_mips,
                 len(a.fault_events), len(a.watchdog_triggers),
                 a.fallback_activations, a.migrations]
                for r, a in zip(self.fault_rates, self.rate_arms)]
        rates = format_rows(
            header, rows,
            "Degradation vs random fault rate (full protection stack)")
        return "\n\n".join([noise, rates,
                            self.scenario.format_table()])


def _tenant(chip, seed: int, env: PowerEnvironment, duration_s: float,
            dvfs_interval_s: float, n_threads: int) -> TenantConfig:
    """The daemon tenant every arm runs on ``chip``: LinOpt primary,
    resilient fallback chain, VarF&AppIPC assignment, watchdog on.
    Each arm replaces its name, noise, watchdog and faults."""
    return TenantConfig(
        name="", seed=seed, n_cores=chip.n_cores, n_threads=n_threads,
        env=env, policy=VarFAppIPC.name, duration_s=duration_s,
        dvfs_interval_s=dvfs_interval_s, noise_sigma=0.0, watchdog=True)


def _run(chip, config: TenantConfig, bank_seed: int) -> SimulationTrace:
    stepper = build_stepper(config, chip, bank_seed=bank_seed)
    stepper.run_to_end()
    return stepper.trace()


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
    every other sensor carries 5 % relative noise throughout. The
    fault-free arm has neither noise nor watchdog, so it runs without
    a sensor bank.

    Seed 1 is the pinned regression seed: it draws a workload whose
    phase excursions make the budget bind, so the watchdog visibly
    acts (asserted in ``tests/test_faults.py``).
    """
    chip = (factory or _small_factory(seed)).chip(0)
    tenant = _tenant(chip, seed, env, duration_s, dvfs_interval_s,
                     n_threads)
    bank_seed = seed + 42
    fault_free = _run(chip, replace(tenant, name="fault_free",
                                    watchdog=False), bank_seed)
    # Every arm draws the same assignment: the core map of the
    # fault-free run's first decision says where threads 0 and 1 run.
    core_of = fault_free.decisions[0].core_of
    faulty = replace(tenant, noise_sigma=SCENARIO_NOISE_SIGMA, faults=(
        FaultEvent(SCENARIO_FAULT_T_S, SENSOR_DEAD, target=core_of[0]),
        FaultEvent(SCENARIO_FAULT_T_S, CORE_OFFLINE, target=core_of[1])))
    return FaultScenarioResult(
        fault_free=fault_free,
        watchdog=_run(chip, replace(faulty, name="watchdog"), bank_seed),
        ablation=_run(chip, replace(faulty, name="ablation",
                                    watchdog=False), bank_seed))


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
    """Produce the degradation curves and the seeded scenario.

    Curve arm ``i`` seeds its sensor bank (and, on the fault-rate
    curve, its random fault schedule) with ``seed + i``.
    """
    factory = factory or _small_factory(seed)
    chip = factory.chip(0)
    tenant = _tenant(chip, seed, env, duration_s, dvfs_interval_s,
                     n_threads)
    noise_arms = tuple(
        _run(chip, replace(tenant, name=f"sigma={sigma}",
                           noise_sigma=float(sigma)), seed + i)
        for i, sigma in enumerate(noise_sigmas))
    rate_arms = []
    for i, rate in enumerate(fault_rates):
        rates = {kind: share * float(rate)
                 for kind, share in KIND_MIX.items()}
        faults = FaultSchedule.random(
            duration_s, rates, chip.n_cores, seed=seed + i,
            param_ranges={SENSOR_STUCK: (0.0, 8.0)})
        rate_arms.append(_run(
            chip, replace(tenant, name=f"rate={rate}",
                          noise_sigma=SCENARIO_NOISE_SIGMA,
                          faults=faults.events), seed + i))

    return ExtFaultsResult(
        noise_sigmas=tuple(float(s) for s in noise_sigmas),
        noise_arms=noise_arms,
        fault_rates=tuple(float(r) for r in fault_rates),
        rate_arms=tuple(rate_arms),
        scenario=scenario(env=env, duration_s=duration_s,
                          dvfs_interval_s=dvfs_interval_s,
                          n_threads=n_threads, factory=factory,
                          seed=seed),
    )
