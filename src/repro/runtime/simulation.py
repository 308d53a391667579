"""Online event-driven system simulation (Figure 2 timeline).

Simulates the CMP running a phased workload under an online power
manager: sensors sample every millisecond, the power manager re-runs at
the DVFS interval (10 ms in the paper's experiments), and the OS-level
scheduler runs at a longer interval. Between manager invocations the
applications drift through phases, so consumed power deviates from
``Ptarget`` — the effect Figure 14 quantifies as a function of the
DVFS interval.

The steady-state system evaluation is memoryless: between two
consecutive *events* — a phase boundary of any application, a
power-manager invocation, an OS reschedule, a fault strike or a
watchdog emergency — the operating point is constant, so the
leakage-temperature fixed point needs to be solved only once per event
rather than once per sensor sample. The simulation therefore builds
each application's phase-boundary timeline up front, advances event to
event with a single cached
:class:`~repro.runtime.evaluation.SystemState`, and fills the 1 ms
sensor samples in between from that cached state. After a manager
decision the cached state is the manager's own evaluation of the
levels it chose (``PmResult.state``), so the loop itself evaluates
only at phase changes and at decisions a clamp altered or whose
state is the stale warm start handed back. The traces are bitwise
those of a loop that re-evaluates every sensor sample; the tests keep
that per-millisecond loop as their reference.

DVFS transitions are modelled with a per-level switching latency
(XScale-class, conservative per Section 5.1): during a transition the
core contributes no useful work, and the lost time is charged against
the throughput trace — the sensor sample covering a manager invocation
that stepped a core by ``k`` levels sees that core's committed work
scaled by ``1 - k * latency / sample period``. Thread migrations pay
the same per-level accounting (a conservative proxy for cache-warmup
cost), with a minimum of one level per migrated thread.

**Faults and graceful degradation.** The simulation optionally runs a
:class:`repro.faults.FaultSchedule` (sensor, core and manager faults
applied as simulated time passes), samples chip power through a
per-core :class:`repro.faults.SensorBank`, and arms a
:class:`repro.faults.PowerWatchdog` that fires an emergency
Foxton*-style round-robin step-down when the *sensed* power stays
above ``Ptarget`` plus a guard band for K consecutive samples —
exactly the between-invocations protection a hardware controller
provides. Core-offline faults force a reschedule of the stranded
thread onto the fastest surviving free core through the existing
migration path. All three hooks default to ``None`` and the fault
layer is then completely transparent: traces are bit-identical to a
build without it.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from typing import TYPE_CHECKING

from ..chip import ChipProfile
from ..config import PowerEnvironment
from ..workloads import PhasedApplication, Workload
from .evaluation import Assignment, evaluate_levels

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids a cycle
    from ..faults import FaultEvent, FaultSchedule, PowerWatchdog, SensorBank
    from ..pm.base import PowerManager

# Sensor sampling period (s): power deviation is recorded at this rate.
SENSOR_PERIOD_S = 1e-3
# Voltage/frequency transition latency per level stepped (s).
TRANSITION_LATENCY_PER_LEVEL_S = 20e-6
# Timer comparison slack (matches the sensor-grid quantisation).
_TIME_EPS = 1e-12


@dataclass
class SimulationTrace:
    """Recorded time series of one online run.

    Attributes:
        times_s: Sample timestamps.
        power_w: Total chip power at each sample (ground truth).
        p_target_w: The power budget in force.
        throughput_mips: Aggregate throughput at each sample (net of
            work lost to V/f transitions and migrations).
        manager_runs: Timestamps of power-manager invocations.
        transition_time_s: Total core-time lost to DVFS transitions
            and migrations (including watchdog emergencies).
        migrations: Number of thread migrations performed (OS
            reschedules and core-offline evacuations).
        level_transitions: Total DVFS levels stepped across the run
            (including the per-migration minimum); equals
            ``transition_time_s / transition_latency_s`` when the
            latency is non-zero.
        sensed_power_w: Chip power as sampled through the (possibly
            faulty) sensor bank; ``None`` when no bank or watchdog was
            configured.
        watchdog_triggers: Timestamps of emergency watchdog step-downs.
        fault_events: The fault events actually applied during the run.
        fallback_activations: Manager invocations decided below the
            primary tier (``resilience_tier > 0`` in the manager's
            stats — see :class:`repro.faults.ResilientManager`).
        fallback_times_s: Timestamps of those below-primary decisions
            (``len == fallback_activations``).
        tier_transitions: ``(time_s, tier)`` pairs recorded whenever a
            manager decision lands on a different resilience tier than
            the previous one (tier 0 assumed before the first
            decision) — the escalation/recovery path through the
            LinOpt -> Foxton* -> all-minimum chain.
        lp_fallbacks: Total within-tier-0 LP fallbacks (LinOpt solves
            that came back non-optimal and clamped to the window
            floor) summed over all manager invocations.
        lp_fallback_times_s: Timestamps of invocations whose decision
            involved at least one LP fallback.
    """

    times_s: np.ndarray
    power_w: np.ndarray
    p_target_w: float
    throughput_mips: np.ndarray
    weighted_throughput: np.ndarray
    manager_runs: List[float]
    transition_time_s: float
    migrations: int
    level_transitions: int = 0
    sensed_power_w: Optional[np.ndarray] = None
    watchdog_triggers: Tuple[float, ...] = ()
    fault_events: Tuple["FaultEvent", ...] = ()
    fallback_activations: int = 0
    fallback_times_s: Tuple[float, ...] = ()
    tier_transitions: Tuple[Tuple[float, int], ...] = ()
    lp_fallbacks: int = 0
    lp_fallback_times_s: Tuple[float, ...] = ()

    @property
    def mean_abs_deviation_pct(self) -> float:
        """Mean |power - Ptarget| as a percentage of Ptarget (Fig 14).

        Matches the paper's measurement: every millisecond the average
        power of the past window is compared to Ptarget and the
        absolute difference recorded; values are averaged over the run.
        """
        dev = np.abs(self.power_w - self.p_target_w)
        return float(dev.mean() / self.p_target_w * 100.0)

    @property
    def overshoot_fraction(self) -> float:
        """Fraction of samples with true power above Ptarget."""
        return float(np.mean(self.power_w > self.p_target_w))

    @property
    def mean_power_w(self) -> float:
        return float(self.power_w.mean())

    @property
    def mean_throughput_mips(self) -> float:
        return float(self.throughput_mips.mean())

    @property
    def mean_weighted_throughput(self) -> float:
        return float(self.weighted_throughput.mean())

    @property
    def ed2_relative(self) -> float:
        """Time-averaged ED^2 up to a constant (see SystemState)."""
        tp = self.mean_throughput_mips
        if tp <= 0:
            return float("inf")
        return self.mean_power_w / tp ** 3

    @property
    def weighted_ed2_relative(self) -> float:
        tp = self.mean_weighted_throughput
        if tp <= 0:
            return float("inf")
        return self.mean_power_w / tp ** 3


@dataclass
class _FaultRuntime:
    """Mutable per-run fault state (event loop bookkeeping)."""

    events: List["FaultEvent"] = field(default_factory=list)
    event_steps: List[int] = field(default_factory=list)
    next_event: int = 0
    applied: List["FaultEvent"] = field(default_factory=list)
    dead_cores: Set[int] = field(default_factory=set)
    core_caps: Dict[int, int] = field(default_factory=dict)
    skip_next_manager: bool = False


#: ``ManagerDecision.kind`` values: a scheduled power-manager
#: invocation vs a watchdog emergency step-down between invocations.
DECISION_MANAGER = "manager"
DECISION_EMERGENCY = "emergency"


@dataclass(frozen=True)
class ManagerDecision:
    """One actuation decision taken during an event-driven run.

    The decision stream is what an external controller (e.g. the
    power-management daemon) consumes as its upstream actuation plan:
    per-thread V/f levels, the thread-to-core map in force, and which
    resilience tier produced the answer.

    Attributes:
        time_s: Simulated time of the decision.
        kind: :data:`DECISION_MANAGER` for a scheduled manager
            invocation, :data:`DECISION_EMERGENCY` for a watchdog
            step-down between invocations.
        levels: Per-thread DVFS levels after the decision (clamped by
            droop caps and watchdog emergency caps).
        core_of: Thread-to-core assignment in force at decision time.
        migrated: Threads migrated by this decision's reschedule.
        resilience_tier: Which tier of the fallback chain decided
            (0 = primary; see :class:`repro.faults.ResilientManager`);
            0 for plain managers and emergencies.
        lp_fallbacks: Within-tier-0 LP fallbacks this invocation.
        evaluations: Full-system evaluations the decision consumed.
    """

    time_s: float
    kind: str
    levels: Tuple[int, ...]
    core_of: Tuple[int, ...]
    migrated: Tuple[int, ...] = ()
    resilience_tier: int = 0
    lp_fallbacks: int = 0
    evaluations: int = 0


class OnlineSimulation:
    """Event-driven execution of a phased workload under a manager.

    Implements the full Figure 2 timeline: the power manager runs at
    the (short) DVFS interval; optionally, an OS scheduling policy
    re-runs at the (long) OS interval and may migrate threads between
    cores based on fresh profiling. Migrations pay the same per-level
    V/f transition accounting as DVFS changes (a conservative proxy
    for cache-warmup cost), with a minimum of one level per migrated
    thread.

    Args:
        transition_latency_s: Core-time lost per DVFS level stepped.
            Zero disables transition accounting entirely (useful for
            ablations).
        faults: Optional fault schedule applied as time passes
            (sensor faults require ``sensor_bank``).
        sensor_bank: Optional per-core sensor bank the chip power is
            sampled through (the watchdog's measurement path, and the
            target of sensor faults).
        watchdog: Optional emergency power watchdog run on every
            sensor sample between manager invocations.
    """

    def __init__(
        self,
        chip: ChipProfile,
        workload: Workload,
        assignment: Assignment,
        env: PowerEnvironment,
        manager: Optional["PowerManager"] = None,
        phase_seed: int = 0,
        policy=None,
        os_interval_s: Optional[float] = None,
        transition_latency_s: float = TRANSITION_LATENCY_PER_LEVEL_S,
        faults: Optional["FaultSchedule"] = None,
        sensor_bank: Optional["SensorBank"] = None,
        watchdog: Optional["PowerWatchdog"] = None,
    ) -> None:
        if (policy is None) != (os_interval_s is None):
            raise ValueError("policy and os_interval_s go together")
        if os_interval_s is not None and os_interval_s <= 0:
            raise ValueError("os_interval_s must be positive")
        if transition_latency_s < 0:
            raise ValueError("transition latency must be non-negative")
        self.chip = chip
        self.workload = workload
        self.assignment = assignment
        self.env = env
        if manager is None:
            # Imported here to keep repro.runtime importable without
            # repro.pm (which itself builds on repro.runtime).
            from ..pm.linopt import LinOpt
            manager = LinOpt()
        self.manager = manager
        self.policy = policy
        self.os_interval_s = os_interval_s
        self.transition_latency_s = transition_latency_s
        self.faults = faults
        self.sensor_bank = sensor_bank
        self.watchdog = watchdog
        if faults is not None and sensor_bank is None and any(
                e.kind.startswith("sensor") for e in faults):
            raise ValueError(
                "a FaultSchedule with sensor faults needs a sensor_bank")
        self._policy_rng = np.random.default_rng([phase_seed, 0x05])
        self.phased = [
            PhasedApplication(app, seed=i * 1000 + phase_seed)
            for i, app in enumerate(workload)
        ]

    @property
    def _faulty(self) -> bool:
        """Whether any fault-layer hook is configured."""
        return (self.faults is not None or self.sensor_bank is not None
                or self.watchdog is not None)

    def _multiplier_grid(
        self, times: np.ndarray,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Per-sample (ipc, ceff) multipliers for every application.

        Built from each application's phase timeline; selecting the
        segment via ``searchsorted(..., side="right")`` performs the
        identical comparison :meth:`PhasedApplication.state_at` does,
        so the grid matches a per-sample ``state_at`` sweep exactly.
        """
        n_steps = times.size
        n_apps = len(self.phased)
        ipc_grid = np.empty((n_steps, n_apps))
        ceff_grid = np.empty((n_steps, n_apps))
        horizon = float(times[-1]) if n_steps else 0.0
        for i, ph in enumerate(self.phased):
            ends, ipc, power = ph.timeline_until(horizon)
            idx = np.searchsorted(ends, times, side="right")
            ipc_grid[:, i] = ipc[idx]
            ceff_grid[:, i] = power[idx]
        return ipc_grid, ceff_grid

    def _transition_steps(
        self,
        prev_levels: Sequence[int],
        new_levels: Sequence[int],
        migrated: Tuple[int, ...],
    ) -> List[int]:
        """Per-thread DVFS levels stepped by a manager decision.

        Migrated threads pay at least one level even if they land on
        the same level index of their new core.
        """
        stepped = [abs(a - b) for a, b in zip(prev_levels, new_levels)]
        for i in migrated:
            stepped[i] = max(stepped[i], 1)
        return stepped

    def _lossy_sample(
        self, state, stepped: Sequence[int],
    ) -> Tuple[float, float]:
        """(throughput, weighted throughput) of the sample covering a
        transition: each stepping core does no useful work for
        ``stepped[i] * transition_latency_s`` of the sample period."""
        frac = np.clip(
            1.0 - np.asarray(stepped, dtype=float)
            * self.transition_latency_s / SENSOR_PERIOD_S,
            0.0, 1.0)
        lossy = state.scaled(frac)
        return (lossy.throughput_mips,
                lossy.weighted_throughput(self.workload))

    def _thread_tops(self, assignment: Assignment) -> List[int]:
        """Per-thread top DVFS level under the current assignment."""
        return [self.chip.cores[c].vf_table.n_levels - 1
                for c in assignment.core_of]

    def run(self, duration_s: float,
            dvfs_interval_s: float) -> SimulationTrace:
        """Simulate ``duration_s`` with the manager run at an interval.

        Args:
            duration_s: Total simulated time.
            dvfs_interval_s: Period between power-manager invocations
                (the x-axis of Figure 14).

        Returns:
            A :class:`SimulationTrace`.
        """
        stepper = self.stepper(duration_s, dvfs_interval_s)
        stepper.run_to_end()
        return stepper.trace()

    def stepper(self, duration_s: float,
                dvfs_interval_s: float) -> "SimulationStepper":
        """An incremental driver of the event loop (controller mode).

        Returns a :class:`SimulationStepper` positioned at t = 0.
        :meth:`run` is exactly ``stepper(...)`` advanced to the end,
        so stepped execution — however the advances are chunked —
        produces bitwise-identical traces and decisions.
        """
        return SimulationStepper(self, duration_s, dvfs_interval_s)

    # ------------------------------------------------------------------
    # Shared per-event logic
    # ------------------------------------------------------------------

    def _os_reschedule(self, t: float, assignment: Assignment,
                       dead_cores: Optional[Set[int]] = None,
                       ) -> Tuple[Assignment, Tuple[int, ...]]:
        """Run the OS policy; returns (assignment, migrated threads)."""
        new_assignment = self.policy.assign_with_profiling(
            self.chip, self.workload, self._policy_rng)
        if dead_cores:
            new_assignment, _ = self._remap_off_dead(new_assignment,
                                                     dead_cores)
        if new_assignment.core_of == assignment.core_of:
            return assignment, ()
        migrated = tuple(
            i for i, (a, b) in enumerate(zip(new_assignment.core_of,
                                             assignment.core_of))
            if a != b)
        return new_assignment, migrated

    def _remap_off_dead(self, assignment: Assignment,
                        dead_cores: Set[int],
                        ) -> Tuple[Assignment, Tuple[int, ...]]:
        """Evacuate threads from dead cores onto surviving spares.

        Each stranded thread moves to the fastest alive core not
        currently hosting a thread (deterministic, fmax-greedy — the
        same ranking VarF uses). With no spare left the thread stays
        put; the caller pins the dead core's V/f at the floor via its
        level cap, which is the best that can be done short of
        dropping the thread.
        """
        core_of = list(assignment.core_of)
        used = set(core_of)
        moved: List[int] = []
        for i, core in enumerate(core_of):
            if core not in dead_cores:
                continue
            spares = [c for c in range(self.chip.n_cores)
                      if c not in dead_cores and c not in used]
            if not spares:
                continue
            spare = max(spares,
                        key=lambda c: self.chip.cores[c].vf_table.fmax)
            used.discard(core)
            used.add(spare)
            core_of[i] = spare
            moved.append(i)
        if not moved:
            return assignment, ()
        return Assignment(tuple(core_of)), tuple(moved)

    def _clamp_levels(self, levels: List[int], assignment: Assignment,
                      fr: "_FaultRuntime",
                      watchdog: Optional["PowerWatchdog"],
                      ) -> List[int]:
        """Apply droop caps and watchdog emergency caps to levels."""
        if fr.core_caps:
            levels = [min(lv, fr.core_caps.get(c, lv))
                      for lv, c in zip(levels, assignment.core_of)]
        if watchdog is not None:
            levels = watchdog.clamp(levels)
        return levels

    # ------------------------------------------------------------------
    # Fault application
    # ------------------------------------------------------------------

    def _build_fault_runtime(self, times: np.ndarray) -> "_FaultRuntime":
        """Precompute the sample index at which each fault strikes."""
        fr = _FaultRuntime()
        if self.faults is None:
            return fr
        for event in self.faults:
            step = int(np.searchsorted(times, event.time_s - _TIME_EPS,
                                       side="left"))
            if step >= times.size:
                continue  # beyond the simulated horizon
            fr.events.append(event)
            fr.event_steps.append(step)
        return fr

    def _apply_fault(self, event: "FaultEvent", fr: "_FaultRuntime",
                     assignment: Assignment,
                     ) -> Tuple[Assignment, Tuple[int, ...], bool]:
        """Apply one fault event; returns (assignment, migrated, force).

        ``force`` requests an immediate manager re-decision (the
        operating point or thread map changed under the manager's
        feet).
        """
        from ..faults.schedule import (
            CORE_DROOP,
            CORE_OFFLINE,
            MANAGER_KINDS,
        )
        fr.applied.append(event)
        migrated: Tuple[int, ...] = ()
        force = False
        if event.kind.startswith("sensor"):
            self.sensor_bank.apply(event)
        elif event.kind == CORE_DROOP:
            top = self.chip.cores[event.target].vf_table.n_levels - 1
            current = fr.core_caps.get(event.target, top)
            fr.core_caps[event.target] = max(
                current - int(event.param), 0)
            force = event.target in assignment.core_of
        elif event.kind == CORE_OFFLINE:
            fr.dead_cores.add(event.target)
            # A dead core that cannot be evacuated is at least parked
            # at its V/f floor.
            fr.core_caps[event.target] = 0
            if event.target in assignment.core_of:
                assignment, migrated = self._remap_off_dead(
                    assignment, fr.dead_cores)
                force = True
        elif event.kind in MANAGER_KINDS:
            inject = getattr(self.manager, "inject_failure", None)
            if callable(inject):
                inject(event.kind)
            else:
                # A plain manager has no failure model: the invocation
                # is simply lost and the previous levels persist.
                fr.skip_next_manager = True
        return assignment, migrated, force


class SimulationStepper:
    """Incremental, controller-stepped driver of the event loop.

    Owns the entire mutable state of one event-driven run of an
    :class:`OnlineSimulation` and exposes it one *span* at a time: a
    span is the stretch between two consecutive events (phase
    boundary, manager timer, OS timer, fault strike, watchdog
    emergency) during which the operating point is constant.
    :meth:`OnlineSimulation.run` simply advances a stepper to the end,
    so a run is bitwise-identical no matter how the advances are
    chunked — the property the power-management daemon's per-tenant
    isolation tests pin.

    Every actuation the run takes is appended to :attr:`decisions`
    (see :class:`ManagerDecision`); an external controller forwards
    those upstream as its V/f-plan stream.
    """

    def __init__(self, sim: OnlineSimulation, duration_s: float,
                 dvfs_interval_s: float) -> None:
        if duration_s <= 0 or dvfs_interval_s <= 0:
            raise ValueError("duration and interval must be positive")
        self.sim = sim
        self.duration_s = float(duration_s)
        self.dvfs_interval_s = float(dvfs_interval_s)
        n_steps = int(round(duration_s / SENSOR_PERIOD_S))
        self._n_steps = n_steps
        self.times = np.arange(n_steps) * SENSOR_PERIOD_S
        self._ipc_grid, self._ceff_grid = sim._multiplier_grid(
            self.times)
        self._p_target = sim.env.p_target(sim.assignment.n_threads,
                                          sim.chip.n_cores)
        self._power = np.empty(n_steps)
        self._tput = np.empty(n_steps)
        self._wtput = np.empty(n_steps)
        self._manager_runs: List[float] = []
        self._transition_time = 0.0
        self._level_transitions = 0
        self._migrations = 0
        self._fallback_activations = 0
        self._fallback_times: List[float] = []
        self._tier_transitions: List[Tuple[float, int]] = []
        self._last_tier = 0
        self._lp_fallbacks = 0
        self._lp_fallback_times: List[float] = []
        #: Actuation decisions taken so far, in time order.
        self.decisions: List[ManagerDecision] = []

        self._bank = sim.sensor_bank
        self._watchdog = sim.watchdog
        self._sensed: Optional[np.ndarray] = None
        if self._bank is not None or self._watchdog is not None:
            self._sensed = np.empty(n_steps)
        if self._watchdog is not None:
            self._watchdog.reset(sim.assignment.n_threads)
        self._fr = sim._build_fault_runtime(self.times)

        # Steps at which any application's multipliers change.
        changed = np.zeros(n_steps, dtype=bool)
        changed[1:] = np.any(
            (self._ipc_grid[1:] != self._ipc_grid[:-1])
            | (self._ceff_grid[1:] != self._ceff_grid[:-1]), axis=1)
        self._changed = changed
        self._change_steps = np.flatnonzero(changed)

        self._levels: Optional[List[int]] = None
        self._prev_levels: Optional[List[int]] = None
        self._state = None
        self._assignment = sim.assignment
        self._next_manager_t = 0.0
        self._next_os_t = (sim.os_interval_s
                           if sim.os_interval_s is not None else None)
        self._pending_lossy: Optional[List[int]] = None
        self._step = 0

    # -- Progress -----------------------------------------------------

    @property
    def finished(self) -> bool:
        """Whether every sensor sample has been produced."""
        return self._step >= self._n_steps

    @property
    def applied_faults(self) -> Tuple["FaultEvent", ...]:
        """Fault events applied so far, in application order."""
        return tuple(self._fr.applied)

    @property
    def time_s(self) -> float:
        """Simulated time of the next unprocessed sensor sample."""
        if self.finished:
            return self.duration_s
        return float(self.times[self._step])

    def advance_until(self, time_s: float) -> List[ManagerDecision]:
        """Process every sensor sample strictly before ``time_s``.

        Advancement is span-at-a-time, so the stepper may land
        slightly past ``time_s`` (at the next event boundary); the
        produced trace is unaffected by how calls are chunked.

        Returns:
            The decisions taken during this call, in time order.
        """
        first = len(self.decisions)
        while (self._step < self._n_steps
               and self.times[self._step] < time_s - _TIME_EPS):
            self._advance_span()
        return list(self.decisions[first:])

    def run_to_end(self) -> List[ManagerDecision]:
        """Advance to the end of the run; returns the new decisions."""
        first = len(self.decisions)
        while self._step < self._n_steps:
            self._advance_span()
        return list(self.decisions[first:])

    def decision_digest(self) -> str:
        """sha256 over the decision stream taken so far.

        The replay-determinism hook: two steppers that executed the
        same run — no matter how the advances were chunked, or
        whether one of them was rebuilt by the daemon's crash
        recovery — produce the same digest, and any divergence
        (reordered, dropped or altered actuation) changes it. Floats
        are hashed via ``repr``, which round-trips IEEE-754 doubles
        exactly, so the comparison is bitwise, not approximate.
        """
        h = hashlib.sha256(b"decision-stream-v1\n")
        for d in self.decisions:
            h.update((f"{d.time_s!r}|{d.kind}|{list(d.levels)!r}|"
                      f"{list(d.core_of)!r}|{list(d.migrated)!r}|"
                      f"{d.resilience_tier}|{d.lp_fallbacks}|"
                      f"{d.evaluations}\n").encode("utf-8"))
        return h.hexdigest()

    # -- The event loop body ------------------------------------------

    def _next_timer_step(self, target_t: float, step: int) -> int:
        """First sample index after ``step`` whose time reaches
        ``target_t`` (a timer fires at most once per sample)."""
        s = int(np.searchsorted(self.times, target_t - _TIME_EPS,
                                side="left"))
        return min(max(s, step + 1), self._n_steps)

    def _advance_span(self) -> None:
        """Execute one event-to-event span of the run."""
        sim = self.sim
        fr = self._fr
        watchdog = self._watchdog
        bank = self._bank
        step = self._step
        t = self.times[step]
        ipc_mult = self._ipc_grid[step]
        ceff_mult = self._ceff_grid[step]
        migrated: Tuple[int, ...] = ()
        # --- Apply fault events due at this sample. ---
        while (fr.next_event < len(fr.events)
               and fr.event_steps[fr.next_event] <= step):
            event = fr.events[fr.next_event]
            fr.next_event += 1
            self._assignment, moved, force = sim._apply_fault(
                event, fr, self._assignment)
            if moved:
                self._migrations += len(moved)
                migrated = migrated + moved
            if force:
                # Operating point or map changed under the
                # manager: re-decide now, cold-started.
                self._levels = None
                self._state = None
                self._next_manager_t = t
        if (self._next_os_t is not None
                and t >= self._next_os_t - _TIME_EPS):
            self._assignment, moved = sim._os_reschedule(
                t, self._assignment, fr.dead_cores)
            if moved:
                self._migrations += len(moved)
                migrated = migrated + moved
                # Force a fresh manager decision for the new map.
                self._levels = None
                self._next_manager_t = t
            self._next_os_t += sim.os_interval_s
        stepped: Optional[List[int]] = None
        adopted = False
        if t >= self._next_manager_t - _TIME_EPS:
            if fr.skip_next_manager:
                # Injected manager fault on a chain-less manager:
                # the decision is lost, previous levels persist.
                fr.skip_next_manager = False
                if self._levels is None:
                    levels = sim._thread_tops(self._assignment)
                    self._levels = sim._clamp_levels(
                        levels, self._assignment, fr, watchdog)
                    self._prev_levels = list(self._levels)
                    self._state = None
                self._next_manager_t += self.dvfs_interval_s
            else:
                kwargs = dict(ipc_multipliers=ipc_mult,
                              ceff_multipliers=ceff_mult)
                warm = None
                if self._levels is not None:
                    # Warm start from the current operating point.
                    warm = self._state
                    kwargs.update(initial_levels=self._levels,
                                  initial_state=warm)
                result = sim.manager.set_levels(
                    sim.chip, sim.workload, self._assignment, sim.env,
                    **kwargs)
                tier = int(result.stats.get("resilience_tier", 0.0))
                lp_fb = int(result.stats.get("lp_fallbacks", 0.0))
                if tier > 0:
                    self._fallback_activations += 1
                    self._fallback_times.append(float(t))
                if tier != self._last_tier:
                    self._tier_transitions.append((float(t), tier))
                    self._last_tier = tier
                if lp_fb > 0:
                    self._lp_fallbacks += lp_fb
                    self._lp_fallback_times.append(float(t))
                new_levels = list(result.levels)
                if sim._faulty:
                    if watchdog is not None:
                        watchdog.on_manager_invocation(
                            sim._thread_tops(self._assignment))
                    new_levels = sim._clamp_levels(
                        new_levels, self._assignment, fr, watchdog)
                if self._prev_levels is not None:
                    stepped = sim._transition_steps(self._prev_levels,
                                                    new_levels,
                                                    migrated)
                    n_stepped = sum(stepped)
                    self._level_transitions += n_stepped
                    self._transition_time += (
                        n_stepped * sim.transition_latency_s)
                    if n_stepped == 0:
                        stepped = None
                self._levels = new_levels
                self._prev_levels = list(new_levels)
                self._manager_runs.append(t)
                self._next_manager_t += self.dvfs_interval_s
                # The operating point changed. The manager's state is
                # its evaluation at exactly these levels and multipliers
                # (the PmResult.state contract) unless a clamp moved
                # the levels or it handed back the warm-start state,
                # which is stale across a phase change.
                adopted = (new_levels == list(result.levels)
                           and result.state is not warm)
                self._state = result.state if adopted else None
                self.decisions.append(ManagerDecision(
                    time_s=float(t), kind=DECISION_MANAGER,
                    levels=tuple(new_levels),
                    core_of=tuple(self._assignment.core_of),
                    migrated=tuple(migrated),
                    resilience_tier=tier, lp_fallbacks=lp_fb,
                    evaluations=int(result.evaluations)))
        if not adopted and (self._state is None or self._changed[step]):
            self._state = evaluate_levels(
                sim.chip, sim.workload, self._assignment, self._levels,
                ipc_multipliers=ipc_mult, ceff_multipliers=ceff_mult)
        state = self._state
        # The state is constant until the next event: fill the
        # sensor samples directly from the cached evaluation.
        nxt = self._n_steps
        j = int(np.searchsorted(self._change_steps, step,
                                side="right"))
        if j < self._change_steps.size:
            nxt = min(nxt, int(self._change_steps[j]))
        nxt = min(nxt, self._next_timer_step(self._next_manager_t,
                                             step))
        if self._next_os_t is not None:
            nxt = min(nxt, self._next_timer_step(self._next_os_t,
                                                 step))
        if fr.next_event < len(fr.events):
            nxt = min(nxt, max(fr.event_steps[fr.next_event],
                               step + 1))
        self._power[step:nxt] = state.total_power
        self._tput[step:nxt] = state.throughput_mips
        self._wtput[step:nxt] = state.weighted_throughput(sim.workload)
        if self._pending_lossy is not None:
            if stepped is None:
                stepped = self._pending_lossy
            else:
                stepped = [a + b for a, b in zip(stepped,
                                                 self._pending_lossy)]
            self._pending_lossy = None
        if stepped is not None and sim.transition_latency_s > 0:
            self._tput[step], self._wtput[step] = sim._lossy_sample(
                state, stepped)
        # --- Sensor sampling and watchdog over the span. ---
        if self._sensed is not None:
            s = step
            while s < nxt:
                if bank is not None:
                    bank.advance(self.times[s])
                    view = bank.read_chip(self._assignment.core_of,
                                          state.core_power,
                                          state.l2_power)
                else:
                    view = state.total_power
                self._sensed[s] = view
                if (watchdog is not None and self._levels is not None
                        and watchdog.observe(self.times[s], view,
                                             self._p_target)):
                    new_levels, victim = (
                        watchdog.emergency_step_down(self._levels))
                    if victim >= 0:
                        em = [abs(a - b) for a, b in
                              zip(self._levels, new_levels)]
                        n_em = sum(em)
                        self._level_transitions += n_em
                        self._transition_time += (
                            n_em * sim.transition_latency_s)
                        self._levels = new_levels
                        self._prev_levels = list(new_levels)
                        self._pending_lossy = em
                        self._state = None
                        self.decisions.append(ManagerDecision(
                            time_s=float(self.times[s]),
                            kind=DECISION_EMERGENCY,
                            levels=tuple(new_levels),
                            core_of=tuple(self._assignment.core_of),
                            resilience_tier=self._last_tier))
                        nxt = s + 1
                        break
                s += 1
        self._step = nxt

    # -- Results ------------------------------------------------------

    def trace(self) -> SimulationTrace:
        """The completed run's trace (requires :attr:`finished`)."""
        if not self.finished:
            raise RuntimeError(
                "run not finished; advance to the end before asking "
                "for the trace")
        watchdog = self._watchdog
        return SimulationTrace(
            times_s=self.times,
            power_w=self._power,
            p_target_w=self._p_target,
            throughput_mips=self._tput,
            weighted_throughput=self._wtput,
            manager_runs=self._manager_runs,
            transition_time_s=self._transition_time,
            migrations=self._migrations,
            level_transitions=self._level_transitions,
            sensed_power_w=self._sensed,
            watchdog_triggers=(tuple(watchdog.triggers)
                               if watchdog is not None else ()),
            fault_events=tuple(self._fr.applied),
            fallback_activations=self._fallback_activations,
            fallback_times_s=tuple(self._fallback_times),
            tier_transitions=tuple(self._tier_transitions),
            lp_fallbacks=self._lp_fallbacks,
            lp_fallback_times_s=tuple(self._lp_fallback_times),
        )
