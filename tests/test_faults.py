"""Fault injection, watchdog and graceful degradation (robustness).

Covers the `repro.faults` package end to end: schedules, faultable
sensors, the power-budget watchdog, the resilient manager chain, the
simulation integration (including the bitwise-transparency guarantee
with zero faults configured), and the seeded acceptance scenario of
``repro.experiments.ext_faults``.
"""

import numpy as np
import pytest

from repro.config import LOW_POWER
from repro.faults import (
    CORE_DROOP,
    CORE_OFFLINE,
    MANAGER_DEADLINE,
    MANAGER_ERROR,
    SENSOR_DEAD,
    SENSOR_DRIFT,
    SENSOR_STUCK,
    FaultEvent,
    FaultSchedule,
    FaultableSensor,
    ManagerFault,
    PowerWatchdog,
    ResilientManager,
    SensorBank,
)
from repro.pm import FoxtonStar, PmResult, meets_constraints
from repro.pm.base import PowerManager
from repro.pm.foxton import next_round_robin_victim
from repro.power import PowerSensor, SensorSpec
from repro.runtime import Assignment, OnlineSimulation, evaluate_levels
from repro.workloads import Workload, get_app


@pytest.fixture()
def sim_setup(small_chip):
    wl = Workload((get_app("bzip2"), get_app("mcf"),
                   get_app("gzip"), get_app("vortex")))
    asg = Assignment((0, 1, 2, 3))
    return small_chip, wl, asg


class TestFaultSchedule:
    def test_events_sorted_and_between(self):
        sched = FaultSchedule([
            FaultEvent(0.030, SENSOR_DEAD, target=1),
            FaultEvent(0.010, CORE_OFFLINE, target=2),
        ])
        assert [e.time_s for e in sched] == [0.010, 0.030]
        assert len(sched.between(0.0, 0.010)) == 1
        assert sched.between(0.010, 0.030)[0].kind == SENSOR_DEAD

    def test_validation(self):
        with pytest.raises(ValueError):
            FaultEvent(-1.0, SENSOR_DEAD)
        with pytest.raises(ValueError):
            FaultEvent(0.0, "alpha_particle")
        with pytest.raises(ValueError):
            FaultEvent(0.0, CORE_DROOP, target=0, param=0.0)

    def test_random_is_deterministic(self):
        rates = {SENSOR_DEAD: 20.0, CORE_DROOP: 10.0,
                 MANAGER_ERROR: 5.0}
        a = FaultSchedule.random(1.0, rates, 8, seed=3)
        b = FaultSchedule.random(1.0, rates, 8, seed=3)
        assert a.events == b.events
        assert len(a) > 0
        assert all(0 <= e.target < 8 for e in a
                   if e.kind != MANAGER_ERROR)

    def test_random_zero_rates_empty(self):
        assert len(FaultSchedule.random(1.0, {}, 8)) == 0


class TestFaultableSensor:
    def test_stuck_reads_constant_clamped(self):
        s = FaultableSensor(PowerSensor(), plausible_lo=0.0,
                            plausible_hi=10.0)
        s.apply(FaultEvent(0.0, SENSOR_STUCK, param=50.0))
        assert s.read(3.0) == 10.0  # clamped to plausible_hi
        assert not s.healthy

    def test_drift_grows_with_time(self):
        s = FaultableSensor(PowerSensor())
        assert s.read(5.0) == 5.0
        s.apply(FaultEvent(1.0, SENSOR_DRIFT, param=2.0))
        s.time_s = 1.0
        assert s.read(5.0) == pytest.approx(5.0)
        s.time_s = 3.0
        assert s.read(5.0) == pytest.approx(5.0 + 2.0 * 2.0)

    def test_dead_substitutes_last_known_good(self):
        s = FaultableSensor(PowerSensor())
        assert s.read(7.5) == 7.5
        s.apply(FaultEvent(0.0, SENSOR_DEAD))
        assert s.read(99.0) == 7.5
        assert s.read(1.0) == 7.5

    def test_dead_without_history_reads_floor(self):
        s = FaultableSensor(PowerSensor(), plausible_lo=0.5)
        s.apply(FaultEvent(0.0, SENSOR_DEAD))
        assert s.read(42.0) == 0.5

    def test_plausibility_clamp_bounds_noise(self):
        spec = SensorSpec(noise_sigma=100.0)
        s = FaultableSensor(
            PowerSensor(spec, np.random.default_rng(0)),
            plausible_lo=0.0, plausible_hi=20.0)
        reads = [s.read(10.0) for _ in range(50)]
        assert all(0.0 <= r <= 20.0 for r in reads)


class TestSensorBank:
    def test_channels_have_independent_noise(self):
        bank = SensorBank(4, spec=SensorSpec(noise_sigma=1.0), seed=0)
        a = [bank.core(0).read(10.0) for _ in range(5)]
        b = [bank.core(1).read(10.0) for _ in range(5)]
        assert a != b

    def test_reproducible_from_seed(self):
        b1 = SensorBank(4, spec=SensorSpec(noise_sigma=1.0), seed=9)
        b2 = SensorBank(4, spec=SensorSpec(noise_sigma=1.0), seed=9)
        assert ([b1.core(2).read(5.0) for _ in range(3)]
                == [b2.core(2).read(5.0) for _ in range(3)])

    def test_apply_routes_to_target(self):
        bank = SensorBank(4)
        bank.apply(FaultEvent(0.0, SENSOR_DEAD, target=2))
        assert not bank.core(2).healthy
        assert bank.core(1).healthy
        assert sum(not c.healthy for c in bank.channels) == 1
        bank.apply(FaultEvent(0.0, SENSOR_DEAD, target=-1))
        assert not bank.uncore.healthy
        assert sum(not c.healthy for c in bank.channels) == 2

    def test_read_chip_exact_when_healthy(self):
        bank = SensorBank(4)
        total = bank.read_chip([0, 2], [3.0, 4.0], 1.5)
        assert total == pytest.approx(8.5)

    def test_read_chip_freezes_dead_channel(self):
        bank = SensorBank(4)
        bank.read_chip([0], [3.0], 0.0)   # channel 0 learns 3.0 W
        bank.apply(FaultEvent(0.0, SENSOR_DEAD, target=0))
        # True power doubles but the dead channel keeps reporting 3.0.
        assert bank.read_chip([0], [6.0], 0.0) == pytest.approx(3.0)


class TestRoundRobinVictim:
    def test_skips_floor_threads(self):
        victim, ptr = next_round_robin_victim([0, 2, 3], 0)
        assert victim == 1 and ptr == 2

    def test_wraps_pointer(self):
        victim, ptr = next_round_robin_victim([1, 1], 5)
        assert victim == 1 and ptr == 6

    def test_all_floor_returns_minus_one(self):
        victim, _ = next_round_robin_victim([0, 0, 0], 0)
        assert victim == -1

    def test_blocked_mask(self):
        victim, _ = next_round_robin_victim([2, 2], 0,
                                            blocked=[True, False])
        assert victim == 1


class TestPowerWatchdog:
    def test_requires_k_consecutive_samples(self):
        wd = PowerWatchdog(guard_band_frac=0.05, k_samples=3)
        wd.reset(2)
        assert not wd.observe(0.001, 11.0, 10.0)
        assert not wd.observe(0.002, 11.0, 10.0)
        assert wd.observe(0.003, 11.0, 10.0)
        assert wd.triggers == [0.003]

    def test_in_band_sample_resets_count(self):
        wd = PowerWatchdog(guard_band_frac=0.05, k_samples=2)
        wd.reset(2)
        assert not wd.observe(0.001, 11.0, 10.0)
        assert not wd.observe(0.002, 10.0, 10.0)  # back in band
        assert not wd.observe(0.003, 11.0, 10.0)
        assert wd.observe(0.004, 11.0, 10.0)

    def test_guard_band_tolerates_small_overshoot(self):
        wd = PowerWatchdog(guard_band_frac=0.10, k_samples=1)
        wd.reset(1)
        assert not wd.observe(0.001, 10.9, 10.0)
        assert wd.observe(0.002, 11.2, 10.0)

    def test_step_down_round_robin_and_caps(self):
        wd = PowerWatchdog(k_samples=1, step_levels=2)
        wd.reset(3)
        levels, victim = wd.emergency_step_down([5, 5, 5])
        assert victim == 0 and levels == [3, 5, 5]
        levels, victim = wd.emergency_step_down(levels)
        assert victim == 1 and levels == [3, 3, 5]
        assert sum(cap is not None for cap in wd._caps) == 2
        # The caps clamp a manager trying to undo the emergency.
        assert wd.clamp([5, 5, 5]) == [3, 3, 5]

    def test_caps_relax_after_clean_interval(self):
        wd = PowerWatchdog(k_samples=1)
        wd.reset(1)
        for _ in range(3):
            wd.observe(0.0, 11.0, 10.0)
            wd.emergency_step_down([3])
        assert wd.clamp([5]) == [2]
        tops = [5]
        wd.on_manager_invocation(tops)  # dirty interval: caps hold
        assert wd.clamp([5]) == [2]
        wd.on_manager_invocation(tops)  # clean: relax one level
        assert wd.clamp([5]) == [3]
        for _ in range(3):
            wd.on_manager_invocation(tops)
        assert wd.clamp([5]) == [5]  # cap fully released
        assert wd._caps == [None]

    def test_all_floor_cannot_step(self):
        wd = PowerWatchdog(k_samples=1)
        wd.reset(2)
        levels, victim = wd.emergency_step_down([0, 0])
        assert victim == -1 and levels == [0, 0]

    def test_constructor_validation(self):
        with pytest.raises(ValueError):
            PowerWatchdog(guard_band_frac=-0.1)
        with pytest.raises(ValueError):
            PowerWatchdog(k_samples=0)
        with pytest.raises(ValueError):
            PowerWatchdog(step_levels=0)


class _CrashingManager(PowerManager):
    """Test stub: always raises."""

    name = "Crash"

    def set_levels(self, chip, workload, assignment, env, **kwargs):
        raise RuntimeError("boom")


class _FloorManager(PowerManager):
    """Test stub: parks everything at the floor."""

    name = "Floor"

    def set_levels(self, chip, workload, assignment, env, **kwargs):
        levels = [0] * assignment.n_threads
        state = evaluate_levels(
            chip, workload, assignment, levels,
            ipc_multipliers=kwargs.get("ipc_multipliers"),
            ceff_multipliers=kwargs.get("ceff_multipliers"))
        return PmResult(levels=tuple(levels), state=state, evaluations=1)


class TestResilientManager:
    def test_healthy_primary_is_tier_zero(self, sim_setup):
        chip, wl, asg = sim_setup
        mgr = ResilientManager(primary=FoxtonStar(),
                               fallback=FoxtonStar())
        res = mgr.set_levels(chip, wl, asg, LOW_POWER)
        assert res.stats["resilience_tier"] == 0.0
        assert mgr.fallback_activations == 0
        assert res.levels == FoxtonStar().set_levels(
            chip, wl, asg, LOW_POWER).levels

    def test_crashing_primary_falls_back(self, sim_setup):
        chip, wl, asg = sim_setup
        mgr = ResilientManager(primary=_CrashingManager(),
                               fallback=FoxtonStar())
        res = mgr.set_levels(chip, wl, asg, LOW_POWER)
        assert res.stats["resilience_tier"] == 1.0
        assert res.stats["primary_failed"] == 1.0
        assert mgr.fallback_activations == 1
        p_target, p_core_max = mgr._budget(chip, asg, LOW_POWER)
        assert meets_constraints(res.state, p_target, p_core_max)

    def test_both_failing_parks_at_minimum(self, sim_setup):
        chip, wl, asg = sim_setup
        mgr = ResilientManager(primary=_CrashingManager(),
                               fallback=_CrashingManager())
        res = mgr.set_levels(chip, wl, asg, LOW_POWER)
        assert res.stats["resilience_tier"] == 2.0
        assert res.levels == (0,) * asg.n_threads

    def test_injected_error_is_one_shot(self, sim_setup):
        chip, wl, asg = sim_setup
        mgr = ResilientManager(primary=FoxtonStar(),
                               fallback=FoxtonStar())
        mgr.inject_failure(MANAGER_ERROR)
        res = mgr.set_levels(chip, wl, asg, LOW_POWER)
        assert res.stats["resilience_tier"] == 1.0
        res = mgr.set_levels(chip, wl, asg, LOW_POWER)
        assert res.stats["resilience_tier"] == 0.0

    def test_injected_deadline_discards_primary(self, sim_setup):
        chip, wl, asg = sim_setup
        mgr = ResilientManager(primary=FoxtonStar(),
                               fallback=FoxtonStar())
        mgr.inject_failure(MANAGER_DEADLINE)
        res = mgr.set_levels(chip, wl, asg, LOW_POWER)
        assert res.stats["resilience_tier"] == 1.0
        assert res.stats["deadline_missed"] == 1.0

    def test_evaluation_budget_enforced(self, sim_setup):
        chip, wl, asg = sim_setup
        mgr = ResilientManager(primary=FoxtonStar(),
                               fallback=FoxtonStar(),
                               evaluation_budget=1)
        res = mgr.set_levels(chip, wl, asg, LOW_POWER)
        # Foxton* needs more than one evaluation from a cold start.
        assert res.stats["resilience_tier"] >= 1.0

    def test_accepts_infeasible_floor_from_primary(self, sim_setup):
        chip, wl, asg = sim_setup
        starved = type(LOW_POWER)("Starved", 1.0)  # impossible budget
        mgr = ResilientManager(primary=_FloorManager(),
                               fallback=_CrashingManager())
        res = mgr.set_levels(chip, wl, asg, starved)
        # The floor is accepted even though infeasible: nothing lower
        # exists, so the chain must not spin through its tiers.
        assert res.stats["resilience_tier"] == 0.0

    def test_invalid_injection_kind_rejected(self):
        with pytest.raises(ValueError):
            ResilientManager().inject_failure(SENSOR_DEAD)

    def test_manager_fault_exception_type(self):
        assert issubclass(ManagerFault, RuntimeError)


class _TopsManager(PowerManager):
    """Test stub: always asks for every core's top level."""

    name = "Tops"

    def set_levels(self, chip, workload, assignment, env, **kwargs):
        levels = self._top_levels(chip, assignment)
        state = evaluate_levels(
            chip, workload, assignment, levels,
            ipc_multipliers=kwargs.get("ipc_multipliers"),
            ceff_multipliers=kwargs.get("ceff_multipliers"))
        return PmResult(levels=tuple(levels), state=state, evaluations=1)


class TestSimulationFaultLayer:
    def test_empty_hooks_are_bitwise_transparent(self, sim_setup):
        """The transparency guarantee behind 'all fig outputs stay
        bitwise identical with zero faults configured'."""
        chip, wl, asg = sim_setup
        plain = OnlineSimulation(chip, wl, asg, LOW_POWER,
                                 manager=FoxtonStar())
        ref = plain.run(0.06, 0.01)
        # The watchdog is transparent only while power stays inside
        # its band; a wide band keeps it a pure observer here.
        hooked = OnlineSimulation(chip, wl, asg, LOW_POWER,
                                  manager=FoxtonStar(),
                                  faults=FaultSchedule([]),
                                  sensor_bank=SensorBank(chip.n_cores),
                                  watchdog=PowerWatchdog(
                                      guard_band_frac=0.5))
        trace = hooked.run(0.06, 0.01)
        np.testing.assert_array_equal(trace.power_w, ref.power_w)
        np.testing.assert_array_equal(trace.throughput_mips,
                                      ref.throughput_mips)
        assert trace.manager_runs == ref.manager_runs
        assert trace.transition_time_s == ref.transition_time_s
        assert trace.watchdog_triggers == ()
        assert trace.fault_events == ()
        assert trace.fallback_activations == 0

    def test_sensor_faults_require_bank(self, sim_setup):
        chip, wl, asg = sim_setup
        faults = FaultSchedule([FaultEvent(0.01, SENSOR_DEAD, target=0)])
        with pytest.raises(ValueError, match="sensor_bank"):
            OnlineSimulation(chip, wl, asg, LOW_POWER,
                             manager=FoxtonStar(), faults=faults)

    def test_core_offline_migrates_thread(self, sim_setup):
        chip, wl, asg = sim_setup
        faults = FaultSchedule([FaultEvent(0.02, CORE_OFFLINE,
                                           target=asg.core_of[1])])
        sim = OnlineSimulation(chip, wl, asg, LOW_POWER,
                               manager=FoxtonStar(), faults=faults)
        trace = sim.run(0.06, 0.01)
        assert trace.migrations == 1
        assert [e.kind for e in trace.fault_events] == [CORE_OFFLINE]
        # The evacuation pays the migration minimum of one level.
        assert trace.level_transitions >= 1

    def test_core_droop_caps_levels(self, sim_setup):
        chip, wl, asg = sim_setup
        faults = FaultSchedule([FaultEvent(0.02, CORE_DROOP,
                                           target=asg.core_of[0],
                                           param=3.0)])
        sim = OnlineSimulation(chip, wl, asg, LOW_POWER,
                               manager=_TopsManager(), faults=faults)
        trace = sim.run(0.06, 0.01)
        ref = OnlineSimulation(chip, wl, asg, LOW_POWER,
                               manager=_TopsManager()).run(0.06, 0.01)
        # Identical up to the strike; clamped below reference after.
        np.testing.assert_array_equal(trace.power_w[:20],
                                      ref.power_w[:20])
        assert trace.power_w[-1] < ref.power_w[-1]

    def test_manager_fault_skips_plain_manager(self, sim_setup):
        chip, wl, asg = sim_setup
        faults = FaultSchedule([FaultEvent(0.015, MANAGER_ERROR)])
        sim = OnlineSimulation(chip, wl, asg, LOW_POWER,
                               manager=FoxtonStar(), faults=faults)
        trace = sim.run(0.06, 0.01)
        ref = OnlineSimulation(chip, wl, asg, LOW_POWER,
                               manager=FoxtonStar()).run(0.06, 0.01)
        # One invocation (at 20 ms) was lost.
        assert len(trace.manager_runs) == len(ref.manager_runs) - 1

    def test_manager_fault_routes_to_resilient_chain(self, sim_setup):
        chip, wl, asg = sim_setup
        faults = FaultSchedule([FaultEvent(0.015, MANAGER_ERROR)])
        mgr = ResilientManager(primary=FoxtonStar(),
                               fallback=FoxtonStar())
        sim = OnlineSimulation(chip, wl, asg, LOW_POWER,
                               manager=mgr, faults=faults)
        trace = sim.run(0.06, 0.01)
        # No invocation lost: the chain absorbed the crash.
        assert len(trace.manager_runs) == 6
        assert trace.fallback_activations == 1

    def test_watchdog_fires_on_sustained_overshoot(self, sim_setup):
        chip, wl, asg = sim_setup
        wd = PowerWatchdog(guard_band_frac=0.0, k_samples=2)
        sim = OnlineSimulation(chip, wl, asg, LOW_POWER,
                               manager=_TopsManager(), watchdog=wd)
        trace = sim.run(0.06, 0.01)
        ref = OnlineSimulation(chip, wl, asg, LOW_POWER,
                               manager=_TopsManager()).run(0.06, 0.01)
        # A manager pinned at the tops blows the Low Power budget; the
        # watchdog must intervene and drag power below the unwatched
        # reference run.
        assert len(trace.watchdog_triggers) > 0
        assert trace.sensed_power_w is not None
        assert trace.power_w.mean() < ref.power_w.mean()

    def test_sensed_power_matches_truth_with_ideal_bank(self, sim_setup):
        chip, wl, asg = sim_setup
        sim = OnlineSimulation(chip, wl, asg, LOW_POWER,
                               manager=FoxtonStar(),
                               sensor_bank=SensorBank(chip.n_cores))
        trace = sim.run(0.04, 0.01)
        np.testing.assert_allclose(trace.sensed_power_w, trace.power_w,
                                   rtol=1e-9)


class TestAcceptanceScenario:
    @pytest.fixture(scope="class")
    def result(self):
        from repro.experiments import ext_faults
        return ext_faults.scenario()

    def test_watchdog_arm_holds_deviation(self, result):
        """Acceptance: watchdog keeps mean |P - Ptarget| within 2x the
        fault-free run, and the run completes without exceptions."""
        assert (result.watchdog.deviation_pct
                <= 2.0 * result.fault_free.deviation_pct)

    def test_watchdog_acts_and_ablation_overshoots(self, result):
        assert result.watchdog.watchdog_triggers > 0
        assert (result.ablation.mean_overshoot_w
                > result.watchdog.mean_overshoot_w)
        assert result.ablation.watchdog_triggers == 0

    def test_faults_applied_and_thread_evacuated(self, result):
        assert result.watchdog.faults_applied == 2
        assert result.watchdog.migrations == 1
        assert result.fault_free.faults_applied == 0
