"""One protected online run: the tenant stack of the daemon and ext-faults.

A *tenant* is one chip driven through the paper's Figure 2 loop with
the protection layers of this package around it. :func:`build_stepper`
is the one place that wires it: the workload and assignment draws, the
per-core :class:`~repro.faults.SensorBank` shared by LinOpt and the
:class:`~repro.faults.PowerWatchdog`, and the LinOpt -> Foxton* ->
all-minimum :class:`~repro.faults.ResilientManager` chain. The daemon
serves its tenants through it and every ext-faults arm is one
:class:`TenantConfig` run through it, so the experiment measures the
stack the daemon serves.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Tuple

import numpy as np

from ..config import PowerEnvironment
from ..pm import FoxtonStar, LinOpt, LinOptConfig, PmResult, PowerManager
from ..power import SensorSpec
from ..runtime import OnlineSimulation, SimulationStepper
from ..sched import POLICIES
from ..workloads import make_workload
from .resilient import ManagerFault, ResilientManager
from .schedule import FaultEvent, FaultSchedule
from .sensors import SensorBank
from .watchdog import PowerWatchdog


class CrashingManager(PowerManager):
    """Chaos-testing manager: Foxton* for N-1 calls, then raises.

    Registered via ``manager: {"primary": "crashing", "crash_after":
    N}``. With ``resilient: true`` the crash is absorbed by the
    fallback chain (a tier escalation); with ``resilient: false`` it
    propagates and quarantines the tenant — the blast-radius case the
    chaos tests pin.
    """

    name = "Crashing"

    def __init__(self, crash_after: int = 1) -> None:
        if crash_after < 1:
            raise ValueError("crash_after must be positive")
        self.inner = FoxtonStar()
        self.crash_after = crash_after
        self.calls = 0

    def set_levels(self, chip, workload, assignment, env,
                   **kwargs) -> PmResult:
        self.calls += 1
        if self.calls >= self.crash_after:
            raise ManagerFault(
                f"scripted crash on invocation {self.calls}")
        return self.inner.set_levels(chip, workload, assignment, env,
                                     **kwargs)


@dataclass(frozen=True)
class TenantConfig:
    """A tenant's registration, resolved to concrete values."""

    name: str
    seed: int
    n_cores: int
    n_threads: int
    env: PowerEnvironment
    policy: str
    duration_s: float
    dvfs_interval_s: float
    noise_sigma: float
    watchdog: bool
    faults: Tuple[FaultEvent, ...] = ()
    manager: Dict[str, Any] = field(default_factory=dict)


def build_stepper(config: TenantConfig, chip,
                  bank_seed: int) -> SimulationStepper:
    """Assemble one tenant's manager stack and stepper on ``chip``.

    The workload and the ``config.policy`` assignment are drawn from
    ``[config.seed, 31]`` and ``[config.seed, 37]``. A sensor bank
    (seeded with ``bank_seed``) exists when the tenant has noise, a
    watchdog or sensor faults; it is then both LinOpt's profiling
    sensor and the watchdog's measurement path, so sensor faults
    corrupt both consistently.
    """
    mgr = config.manager
    needs_bank = (config.noise_sigma > 0 or config.watchdog
                  or any(e.kind.startswith("sensor")
                         for e in config.faults))
    bank = None
    if needs_bank:
        bank = SensorBank(
            chip.n_cores,
            spec=SensorSpec(noise_sigma=config.noise_sigma,
                            relative=True),
            seed=bank_seed)
    primary_kind = mgr.get("primary", "linopt")
    if primary_kind == "linopt":
        primary: PowerManager = LinOpt(
            LinOptConfig(n_iterations=mgr.get("n_iterations") or 3),
            power_sensor=bank)
    elif primary_kind == "foxton":
        primary = FoxtonStar()
    else:
        primary = CrashingManager(
            crash_after=mgr.get("crash_after") or 1)
    if mgr.get("resilient", True):
        manager: PowerManager = ResilientManager(
            primary=primary, fallback=FoxtonStar(),
            evaluation_budget=mgr.get("evaluation_budget"),
            deadline_s=mgr.get("deadline_s"),
            accept_infeasible_floor=mgr.get("accept_infeasible_floor",
                                            True))
    else:
        manager = primary
    workload = make_workload(config.n_threads,
                             np.random.default_rng([config.seed, 31]))
    assignment = POLICIES[config.policy].assign_with_profiling(
        chip, workload, np.random.default_rng([config.seed, 37]))
    sim = OnlineSimulation(
        chip, workload, assignment, config.env, manager=manager,
        phase_seed=config.seed,
        faults=FaultSchedule(config.faults) if config.faults else None,
        sensor_bank=bank,
        watchdog=PowerWatchdog() if config.watchdog else None)
    return sim.stepper(config.duration_s, config.dvfs_interval_s)
