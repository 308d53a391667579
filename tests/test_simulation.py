"""Tests for the online event-driven simulation (Figure 2 / 14)."""

import copy
import dataclasses
import json
import pathlib
import shutil

import numpy as np
import pytest

from repro.config import COST_PERFORMANCE, LOW_POWER, PowerEnvironment
from repro.daemon import DaemonController
from repro.faults import (
    CORE_DROOP,
    CORE_OFFLINE,
    MANAGER_ERROR,
    FaultEvent,
    FaultSchedule,
    PowerWatchdog,
    ResilientManager,
    SensorBank,
    watchdog,
)
from repro.pm import FoxtonStar, LinOpt, LinOptConfig
from repro.pm.base import PmResult, PowerManager
from repro.power import SensorSpec
from repro.runtime import Assignment, OnlineSimulation, simulation
from repro.runtime.evaluation import EVALUATION_COUNTER, evaluate_levels
from repro.runtime.simulation import (
    SENSOR_PERIOD_S,
    TRANSITION_LATENCY_PER_LEVEL_S,
)
from repro.sched import VarFAppIPC
from repro.workloads import make_workload
from tests.references import run_dense


class AlternatingManager(PowerManager):
    """Steps every thread between levels 0 and 1 on each invocation."""

    name = "alternating"

    def __init__(self) -> None:
        self._flip = False

    def set_levels(self, chip, workload, assignment, env, rng=None,
                   initial_levels=None, initial_state=None,
                   ipc_multipliers=None, ceff_multipliers=None):
        level = 1 if self._flip else 0
        self._flip = not self._flip
        levels = [level] * assignment.n_threads
        state = evaluate_levels(chip, workload, assignment, levels,
                                ipc_multipliers=ipc_multipliers,
                                ceff_multipliers=ceff_multipliers)
        return PmResult(levels=tuple(levels), state=state, evaluations=1)


@pytest.fixture()
def sim_setup(chip, rng):
    workload = make_workload(6, rng)
    assignment = VarFAppIPC().assign_with_profiling(chip, workload, rng)
    return workload, assignment


class TestOnlineSimulation:
    def test_trace_shapes(self, chip, sim_setup):
        wl, asg = sim_setup
        sim = OnlineSimulation(chip, wl, asg, COST_PERFORMANCE,
                               manager=FoxtonStar())
        trace = sim.run(duration_s=0.02, dvfs_interval_s=0.01)
        n = int(round(0.02 / SENSOR_PERIOD_S))
        assert trace.times_s.shape == (n,)
        assert trace.power_w.shape == (n,)
        assert trace.throughput_mips.shape == (n,)
        assert trace.weighted_throughput.shape == (n,)

    def test_manager_invocation_count(self, chip, sim_setup):
        wl, asg = sim_setup
        sim = OnlineSimulation(chip, wl, asg, COST_PERFORMANCE,
                               manager=FoxtonStar())
        trace = sim.run(duration_s=0.05, dvfs_interval_s=0.01)
        assert len(trace.manager_runs) == 5

    def test_power_tracks_target(self, chip, sim_setup):
        wl, asg = sim_setup
        sim = OnlineSimulation(chip, wl, asg, COST_PERFORMANCE,
                               manager=FoxtonStar())
        trace = sim.run(duration_s=0.04, dvfs_interval_s=0.01)
        assert trace.mean_power_w <= trace.p_target_w * 1.15
        assert trace.mean_abs_deviation_pct < 25.0

    def test_shorter_interval_tracks_better(self, chip, sim_setup):
        wl, asg = sim_setup
        def run(interval):
            sim = OnlineSimulation(chip, wl, asg, COST_PERFORMANCE,
                                   manager=FoxtonStar(), phase_seed=5)
            return sim.run(duration_s=0.08,
                           dvfs_interval_s=interval)
        fine = run(0.005).mean_abs_deviation_pct
        coarse = run(0.08).mean_abs_deviation_pct
        assert fine <= coarse + 0.5

    def test_phase_seed_reproducible(self, chip, sim_setup):
        wl, asg = sim_setup
        def run():
            sim = OnlineSimulation(chip, wl, asg, COST_PERFORMANCE,
                                   manager=FoxtonStar(), phase_seed=9)
            return sim.run(duration_s=0.02, dvfs_interval_s=0.01)
        a, b = run(), run()
        np.testing.assert_array_equal(a.power_w, b.power_w)

    def test_transition_time_accounted(self, chip, sim_setup):
        wl, asg = sim_setup
        sim = OnlineSimulation(chip, wl, asg, COST_PERFORMANCE,
                               manager=LinOpt(LinOptConfig(n_iterations=2)),
                               phase_seed=2)
        trace = sim.run(duration_s=0.04, dvfs_interval_s=0.01)
        assert trace.transition_time_s >= 0.0
        # Never more than a tiny fraction of the run.
        assert trace.transition_time_s < 0.1 * 0.04 * asg.n_threads

    def test_rejects_bad_durations(self, chip, sim_setup):
        wl, asg = sim_setup
        sim = OnlineSimulation(chip, wl, asg, COST_PERFORMANCE,
                               manager=FoxtonStar())
        with pytest.raises(ValueError):
            sim.run(duration_s=0.0, dvfs_interval_s=0.01)
        with pytest.raises(ValueError):
            sim.run(duration_s=0.01, dvfs_interval_s=0.0)

    def test_rejects_bad_mode(self, chip, sim_setup):
        """``run`` has one loop and no mode to pick another."""
        wl, asg = sim_setup
        sim = OnlineSimulation(chip, wl, asg, COST_PERFORMANCE,
                               manager=FoxtonStar())
        for mode in ("dense", "event", "banana"):
            with pytest.raises(TypeError):
                sim.run(0.01, 0.01, mode=mode)

    def test_rejects_negative_transition_latency(self, chip, sim_setup):
        wl, asg = sim_setup
        with pytest.raises(ValueError):
            OnlineSimulation(chip, wl, asg, COST_PERFORMANCE,
                             manager=FoxtonStar(),
                             transition_latency_s=-1e-6)

    def test_default_manager_is_linopt(self, chip, sim_setup):
        wl, asg = sim_setup
        sim = OnlineSimulation(chip, wl, asg, COST_PERFORMANCE)
        from repro.pm import LinOpt as LinOptClass
        assert isinstance(sim.manager, LinOptClass)

    def test_metrics_consistent(self, chip, sim_setup):
        wl, asg = sim_setup
        sim = OnlineSimulation(chip, wl, asg, COST_PERFORMANCE,
                               manager=FoxtonStar())
        trace = sim.run(duration_s=0.02, dvfs_interval_s=0.01)
        assert trace.mean_throughput_mips == pytest.approx(
            trace.throughput_mips.mean())
        assert trace.ed2_relative == pytest.approx(
            trace.mean_power_w / trace.mean_throughput_mips ** 3)


class TestEventDrivenLoop:
    """The event loop must reproduce the dense reference bitwise."""

    def _run(self, chip, wl, asg, mode, manager, latency,
             policy=None, os_interval_s=None, duration=0.05):
        sim = OnlineSimulation(chip, wl, asg, COST_PERFORMANCE,
                               manager=manager, phase_seed=5,
                               transition_latency_s=latency,
                               policy=policy, os_interval_s=os_interval_s)
        EVALUATION_COUNTER.reset()
        if mode == "dense":
            trace = run_dense(sim, duration, 0.01)
        else:
            trace = sim.run(duration, 0.01)
        return trace, EVALUATION_COUNTER.evaluations

    def _assert_identical(self, a, b):
        np.testing.assert_array_equal(a.power_w, b.power_w)
        np.testing.assert_array_equal(a.throughput_mips, b.throughput_mips)
        np.testing.assert_array_equal(a.weighted_throughput,
                                      b.weighted_throughput)
        assert a.decisions == b.decisions
        assert a.transition_time_s == b.transition_time_s
        assert a.level_transitions == b.level_transitions
        assert a.migrations == b.migrations

    def test_matches_dense_with_zero_latency(self, chip, sim_setup):
        wl, asg = sim_setup
        dense, _ = self._run(chip, wl, asg, "dense", FoxtonStar(), 0.0)
        event, _ = self._run(chip, wl, asg, "event", FoxtonStar(), 0.0)
        self._assert_identical(dense, event)

    def test_matches_dense_with_transition_latency(self, chip, sim_setup):
        wl, asg = sim_setup
        mgr = LinOpt(LinOptConfig(n_iterations=2))
        dense, _ = self._run(chip, wl, asg, "dense", mgr,
                             TRANSITION_LATENCY_PER_LEVEL_S)
        mgr = LinOpt(LinOptConfig(n_iterations=2))
        event, _ = self._run(chip, wl, asg, "event", mgr,
                             TRANSITION_LATENCY_PER_LEVEL_S)
        self._assert_identical(dense, event)

    def test_matches_dense_with_os_policy(self, chip, sim_setup):
        wl, asg = sim_setup
        from repro.sched import RandomPolicy
        dense, _ = self._run(chip, wl, asg, "dense", FoxtonStar(),
                             TRANSITION_LATENCY_PER_LEVEL_S,
                             policy=RandomPolicy(), os_interval_s=0.02,
                             duration=0.06)
        event, _ = self._run(chip, wl, asg, "event", FoxtonStar(),
                             TRANSITION_LATENCY_PER_LEVEL_S,
                             policy=RandomPolicy(), os_interval_s=0.02,
                             duration=0.06)
        assert dense.migrations > 0
        self._assert_identical(dense, event)

    def test_event_loop_evaluates_less(self, chip, sim_setup):
        wl, asg = sim_setup
        _, dense_evals = self._run(chip, wl, asg, "dense",
                                   FoxtonStar(), 0.0, duration=0.08)
        _, event_evals = self._run(chip, wl, asg, "event",
                                   FoxtonStar(), 0.0, duration=0.08)
        assert event_evals < dense_evals


class TestTransitionAccounting:
    """V/f transition time must be charged against throughput."""

    def _run(self, chip, wl, asg, latency):
        sim = OnlineSimulation(chip, wl, asg, COST_PERFORMANCE,
                               manager=AlternatingManager(), phase_seed=3,
                               transition_latency_s=latency)
        return sim.run(duration_s=0.04, dvfs_interval_s=0.01)

    def test_every_invocation_steps_a_level(self, chip, sim_setup):
        wl, asg = sim_setup
        trace = self._run(chip, wl, asg, TRANSITION_LATENCY_PER_LEVEL_S)
        # 4 invocations; every one after the first moves every thread
        # by exactly one level.
        n_invocations = len(trace.manager_runs)
        assert n_invocations == 4
        expected_steps = (n_invocations - 1) * asg.n_threads
        assert trace.level_transitions == expected_steps
        assert trace.transition_time_s == pytest.approx(
            expected_steps * TRANSITION_LATENCY_PER_LEVEL_S)

    def test_transitions_cost_throughput(self, chip, sim_setup):
        wl, asg = sim_setup
        lossy = self._run(chip, wl, asg, TRANSITION_LATENCY_PER_LEVEL_S)
        free = self._run(chip, wl, asg, 0.0)
        assert free.transition_time_s == 0.0
        assert lossy.mean_throughput_mips < free.mean_throughput_mips
        assert lossy.mean_weighted_throughput < free.mean_weighted_throughput
        # Power is unaffected: transitions stall work, not the rail.
        np.testing.assert_array_equal(lossy.power_w, free.power_w)

    def test_loss_magnitude_matches_latency(self, chip, sim_setup):
        wl, asg = sim_setup
        lossy = self._run(chip, wl, asg, TRANSITION_LATENCY_PER_LEVEL_S)
        free = self._run(chip, wl, asg, 0.0)
        # Each post-first manager sample loses one level's latency of
        # work on every thread: its throughput is scaled by exactly
        # (1 - latency / sample period).
        scale = 1.0 - TRANSITION_LATENCY_PER_LEVEL_S / SENSOR_PERIOD_S
        changed = lossy.throughput_mips != free.throughput_mips
        assert changed.sum() == len(lossy.manager_runs) - 1
        np.testing.assert_allclose(
            lossy.throughput_mips[changed],
            free.throughput_mips[changed] * scale, rtol=1e-12)


class TestOsRescheduling:
    def test_policy_and_interval_must_pair(self, chip, sim_setup):
        wl, asg = sim_setup
        from repro.sched import RandomPolicy
        with pytest.raises(ValueError):
            OnlineSimulation(chip, wl, asg, COST_PERFORMANCE,
                             manager=FoxtonStar(),
                             policy=RandomPolicy())
        with pytest.raises(ValueError):
            OnlineSimulation(chip, wl, asg, COST_PERFORMANCE,
                             manager=FoxtonStar(), os_interval_s=0.1)

    def test_random_policy_migrates(self, chip, sim_setup):
        wl, asg = sim_setup
        from repro.sched import RandomPolicy
        sim = OnlineSimulation(chip, wl, asg, COST_PERFORMANCE,
                               manager=FoxtonStar(),
                               policy=RandomPolicy(),
                               os_interval_s=0.02)
        trace = sim.run(0.06, 0.01)
        assert trace.migrations > 0
        assert trace.mean_power_w <= trace.p_target_w * 1.15

    def test_stable_policy_does_not_migrate(self, chip, sim_setup):
        wl, asg0 = sim_setup
        from repro.sched import VarFAppIPC
        policy = VarFAppIPC()
        # Start from the policy's own assignment: re-running it keeps
        # the mapping (deterministic ranking), so no migrations.
        import numpy as np
        asg = policy.assign_with_profiling(chip, wl,
                                           np.random.default_rng(3))
        sim = OnlineSimulation(chip, wl, asg, COST_PERFORMANCE,
                               manager=FoxtonStar(), policy=policy,
                               os_interval_s=0.02)
        trace = sim.run(0.05, 0.01)
        assert trace.migrations == 0

    def test_no_policy_means_no_migrations(self, chip, sim_setup):
        wl, asg = sim_setup
        sim = OnlineSimulation(chip, wl, asg, COST_PERFORMANCE,
                               manager=FoxtonStar())
        trace = sim.run(0.02, 0.01)
        assert trace.migrations == 0


class TestSimulationStepper:
    """Controller-stepped mode: same code path, same results."""

    def _sim(self, chip, sim_setup, seed=7):
        wl, asg = sim_setup
        return OnlineSimulation(chip, wl, asg, COST_PERFORMANCE,
                                manager=FoxtonStar(), phase_seed=seed)

    def test_chunked_advance_bitwise_matches_run(self, chip,
                                                 sim_setup):
        ref = self._sim(chip, sim_setup).run(0.05, 0.01)
        stepper = self._sim(chip, sim_setup).stepper(0.05, 0.01)
        # Uneven, boundary-misaligned chunks.
        for until in (0.004, 0.0171, 0.0171, 0.032, 0.1):
            stepper.advance_until(until)
        assert stepper.finished
        trace = stepper.trace()
        np.testing.assert_array_equal(trace.power_w, ref.power_w)
        np.testing.assert_array_equal(trace.throughput_mips,
                                      ref.throughput_mips)
        np.testing.assert_array_equal(trace.weighted_throughput,
                                      ref.weighted_throughput)
        assert trace.manager_runs == ref.manager_runs
        assert trace.level_transitions == ref.level_transitions

    def test_decision_stream_chunking_invariant(self, chip,
                                                sim_setup):
        one_shot = self._sim(chip, sim_setup).stepper(0.04, 0.01)
        one_shot.run_to_end()
        chunked = self._sim(chip, sim_setup).stepper(0.04, 0.01)
        while not chunked.finished:
            chunked.advance_until(chunked.time_s + 0.003)
        assert chunked.decisions == one_shot.decisions
        assert len(one_shot.decisions) == 4
        for decision in one_shot.decisions:
            assert decision.kind == "manager"
            assert len(decision.levels) == 6

    def test_trace_requires_finish(self, chip, sim_setup):
        stepper = self._sim(chip, sim_setup).stepper(0.04, 0.01)
        stepper.advance_until(0.01)
        with pytest.raises(RuntimeError):
            stepper.trace()

    def test_advance_past_end_is_idempotent(self, chip, sim_setup):
        stepper = self._sim(chip, sim_setup).stepper(0.02, 0.01)
        stepper.run_to_end()
        assert stepper.advance_until(1.0) == []
        assert stepper.time_s == 0.02


#: A budget every operating point meets: managers go to the top levels.
UNBOUNDED = PowerEnvironment("unbounded", 1e6, p_core_max=1e6)

#: A daemon state dir (one tenant: op log plus a snapshot at op 3) and
#: the digests its uninterrupted run produced, written by a build whose
#: stepper re-evaluated every manager decision.
SNAPSHOT_DATA = pathlib.Path(__file__).parent / "data" / "daemon_snapshot_v2"


class _Spy(PowerManager):
    """Delegates to ``inner`` and records, per invocation, the levels
    it decided and whether it handed back the warm-start state."""

    def __init__(self, inner: PowerManager) -> None:
        self.inner = inner
        self.name = inner.name
        self.calls = []

    def set_levels(self, chip, workload, assignment, env, rng=None,
                   initial_levels=None, initial_state=None,
                   ipc_multipliers=None, ceff_multipliers=None):
        result = self.inner.set_levels(
            chip, workload, assignment, env, rng=rng,
            initial_levels=initial_levels, initial_state=initial_state,
            ipc_multipliers=ipc_multipliers,
            ceff_multipliers=ceff_multipliers)
        self.calls.append((result.levels, initial_state is not None
                           and result.state is initial_state))
        return result


class TestStepperAdoptsManagerState:
    """After a decision the stepper keeps the manager's evaluated state
    and evaluates itself only at phase changes and at decisions whose
    state it cannot adopt — with traces unchanged bit for bit."""

    @staticmethod
    def _eval_times(monkeypatch, stepper):
        """Count the stepper's own evaluations: the span start time of
        each is appended to the returned list."""
        times = []
        real = simulation.evaluate_levels

        def counting(*args, **kwargs):
            times.append(stepper.time_s)
            return real(*args, **kwargs)

        monkeypatch.setattr(simulation, "evaluate_levels", counting)
        return times

    def test_decision_span_makes_no_stepper_evaluation(
            self, chip, sim_setup, monkeypatch):
        wl, asg = sim_setup
        sim = OnlineSimulation(chip, wl, asg, COST_PERFORMANCE,
                               manager=LinOpt(LinOptConfig(n_iterations=2)),
                               phase_seed=5)
        stepper = sim.stepper(0.05, 0.01)
        times = self._eval_times(monkeypatch, stepper)
        stepper.advance_until(SENSOR_PERIOD_S / 2)  # the t = 0 span
        assert len(stepper.decisions) == 1
        assert times == []
        stepper.run_to_end()
        decided = {d.time_s for d in stepper.decisions}
        assert len(decided) == 5
        assert not decided & set(times)
        # Phase changes between decisions still evaluate.
        assert times

    def test_stale_warm_state_at_phase_change_is_re_evaluated(
            self, chip, sim_setup, monkeypatch):
        wl, asg = sim_setup
        spy = _Spy(FoxtonStar())
        sim = OnlineSimulation(chip, wl, asg, UNBOUNDED, manager=spy,
                               phase_seed=5)
        # A decision every sample: every phase change meets one.
        stepper = sim.stepper(0.06, SENSOR_PERIOD_S)
        times = self._eval_times(monkeypatch, stepper)
        stepper.run_to_end()
        change_times = set(stepper.times[stepper._change_steps].tolist())
        assert len(spy.calls) == len(stepper.decisions)
        stale = [d.time_s for d, (_, handed_back)
                 in zip(stepper.decisions, spy.calls)
                 if handed_back and d.time_s in change_times]
        assert stale
        assert set(stale) <= set(times)
        dense = run_dense(
            OnlineSimulation(chip, wl, asg, UNBOUNDED,
                             manager=FoxtonStar(), phase_seed=5),
            0.06, SENSOR_PERIOD_S)
        np.testing.assert_array_equal(stepper.trace().power_w,
                                      dense.power_w)
        np.testing.assert_array_equal(stepper.trace().throughput_mips,
                                      dense.throughput_mips)

    def test_decision_on_the_warm_levels_is_adopted(
            self, chip, sim_setup, monkeypatch):
        """Between phase changes LinOpt's carried memo holds the
        stepper's own state at the current levels. A decision that
        stays there hands back a copy, never the warm-start object, so
        the stepper adopts it without a serial evaluation, and the
        trace is the dense reference's bit for bit."""
        wl, asg = sim_setup
        spy = _Spy(LinOpt(LinOptConfig(n_iterations=2)))
        sim = OnlineSimulation(chip, wl, asg, UNBOUNDED, manager=spy,
                               phase_seed=5)
        stepper = sim.stepper(0.06, 0.002)
        times = self._eval_times(monkeypatch, stepper)
        stepper.run_to_end()
        change_times = set(stepper.times[stepper._change_steps].tolist())
        assert len(spy.calls) == len(stepper.decisions)
        assert not any(handed_back for _, handed_back in spy.calls)
        stayed = [d.time_s for prev, d in zip(stepper.decisions,
                                              stepper.decisions[1:])
                  if d.levels == prev.levels
                  and d.time_s not in change_times]
        assert len(stayed) > len(stepper.decisions) // 2
        assert not set(stayed) & set(times)
        dense = run_dense(
            OnlineSimulation(chip, wl, asg, UNBOUNDED,
                             manager=LinOpt(LinOptConfig(n_iterations=2)),
                             phase_seed=5),
            0.06, 0.002)
        trace = stepper.trace()
        np.testing.assert_array_equal(trace.power_w, dense.power_w)
        np.testing.assert_array_equal(trace.throughput_mips,
                                      dense.throughput_mips)
        np.testing.assert_array_equal(trace.weighted_throughput,
                                      dense.weighted_throughput)

    def test_fault_clamped_decision_is_re_evaluated(
            self, chip, sim_setup, monkeypatch):
        wl, asg = sim_setup
        faults = FaultSchedule([FaultEvent(0.02, CORE_DROOP,
                                           target=asg.core_of[0],
                                           param=3)])
        spy = _Spy(LinOpt(LinOptConfig(n_iterations=2)))
        sim = OnlineSimulation(chip, wl, asg, UNBOUNDED, manager=spy,
                               phase_seed=5, faults=faults)
        stepper = sim.stepper(0.04, 0.01)
        times = self._eval_times(monkeypatch, stepper)
        stepper.run_to_end()
        assert len(spy.calls) == len(stepper.decisions)
        clamped = [d.time_s for d, (levels, _)
                   in zip(stepper.decisions, spy.calls)
                   if d.levels != tuple(levels)]
        assert clamped == [0.02, 0.03]
        assert set(clamped) <= set(times)
        assert 0.0 not in times  # the unclamped t = 0 decision adopted

    def test_fault_schedule_trace_matches_dense_re_evaluation(
            self, chip, sim_setup, monkeypatch):
        """The dense reference does not model faults, so it is built
        here: every sample re-evaluated serially at the levels
        and thread map in force (a manager decision applies from its
        own sample, a watchdog emergency from the next)."""
        wl, asg = sim_setup
        monkeypatch.setattr(watchdog, "GUARD_BAND_FRAC", 0.0)
        monkeypatch.setattr(watchdog, "K_SAMPLES", 1)
        faults = FaultSchedule([
            FaultEvent(0.012, CORE_DROOP, target=asg.core_of[1], param=2),
            FaultEvent(0.025, MANAGER_ERROR),
            FaultEvent(0.033, CORE_OFFLINE, target=asg.core_of[2]),
        ])
        sim = OnlineSimulation(
            chip, wl, asg, LOW_POWER,
            manager=ResilientManager(LinOpt(LinOptConfig(n_iterations=2))),
            phase_seed=5, transition_latency_s=0.0, faults=faults,
            sensor_bank=SensorBank(chip.n_cores,
                                   spec=SensorSpec(noise_sigma=0.5),
                                   seed=1),
            watchdog=PowerWatchdog())
        stepper = sim.stepper(0.05, 0.01)
        times = self._eval_times(monkeypatch, stepper)
        stepper.run_to_end()
        trace = stepper.trace()
        assert len(trace.fault_events) == 3
        assert trace.watchdog_triggers
        assert {d.resilience_tier for d in stepper.decisions} >= {0, 1}
        # Only the injected error fell back; an emergency carries the
        # cause of the decision before it.
        for before, d in zip(stepper.decisions, stepper.decisions[1:]):
            if d.kind == "emergency":
                assert d.cause == before.cause
        assert trace.causes == {"injected": 1}
        managed = [d.time_s for d in stepper.decisions
                   if d.kind == "manager"]
        assert set(managed) - set(times)  # some decisions adopted

        ipc_grid, ceff_grid = sim._multiplier_grid(stepper.times)
        starts = [int(np.searchsorted(stepper.times, d.time_s))
                  + (d.kind == "emergency") for d in stepper.decisions]
        for step in range(stepper.times.size):
            d = stepper.decisions[
                int(np.searchsorted(starts, step, side="right")) - 1]
            ref = evaluate_levels(
                chip, wl, Assignment(d.core_of), list(d.levels),
                ipc_multipliers=ipc_grid[step],
                ceff_multipliers=ceff_grid[step])
            assert trace.power_w[step] == ref.total_power, step
            assert trace.throughput_mips[step] == ref.throughput_mips, step

    def test_older_daemon_snapshot_restores_and_replays(self, tmp_path):
        expected = json.loads(
            (SNAPSHOT_DATA / "expected.json").read_text())
        shutil.copytree(SNAPSHOT_DATA / "state", tmp_path / "state")
        ctl = DaemonController(state_dir=tmp_path / "state", cache=None,
                               snapshot_every=2)
        stats = ctl.last_recovery
        assert stats.tenants_recovered == 1
        assert stats.tenants_quarantined == 0
        assert stats.snapshot_restores == 1
        assert stats.ops_replayed == 1
        stepper = ctl._get("t").stepper
        assert stepper.sim.manager.primary._carry is None
        # The snapshot's decisions predate causes and read the class
        # default; the replayed op records why both tiers failed.
        assert [d.cause for d in stepper.decisions] == [None] * 3 + [
            "error:ThermalRunawayError,error:ThermalRunawayError"]
        assert _digest_without_causes(stepper) == \
            expected["digest_at_last_op"]
        ctl.advance("t", to_end=True)
        assert len(stepper.decisions) == expected["decisions"]
        assert _digest_without_causes(stepper) == expected["final_digest"]
        assert stepper.decision_digest() != expected["final_digest"]


def _digest_without_causes(stepper):
    """The decision digest with every cause cleared: what the build
    that wrote ``SNAPSHOT_DATA`` hashed (it recorded no causes)."""
    clone = copy.copy(stepper)
    clone.decisions = [dataclasses.replace(d, cause=None)
                       for d in stepper.decisions]
    return clone.decision_digest()
