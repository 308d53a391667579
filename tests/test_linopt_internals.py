"""White-box tests for LinOpt's building blocks (Section 4.3.1)."""

import dataclasses
import pickle

import numpy as np
import pytest

from repro.chip import characterize_dies
from repro.config import (COST_PERFORMANCE, DEFAULT_TECH, LOW_POWER,
                          ArchConfig, PowerEnvironment)
from repro.pm import (LinOpt, LinOptConfig, fit_power_lines,
                      meets_constraints)
from repro.pm import linopt
from repro.faults import SensorBank
from repro.linprog import (BoundedSimplexBackend, HighsBackend,
                           ReferenceSimplexBackend)
from repro.power import (IpcSensor, PowerSensor, SensorSpec, core_reader,
                         independent_rngs)
from repro.runtime import Assignment
from repro.runtime.evaluation import evaluate_levels
from repro.runtime.kernel import EvalKernel
from repro.sched import VarFAppIPC
from repro.variation import DieBatch
from repro.workloads import Workload, get_app, make_workload


@pytest.fixture()
def pair(chip):
    wl = Workload((get_app("bzip2"), get_app("mcf")))
    asg = Assignment((2, 9))
    return wl, asg


class TestFitPowerLines:
    def test_global_fit_slope_positive(self, chip, pair):
        wl, asg = pair
        temps = np.full(chip.n_cores, 350.0)
        fit = fit_power_lines(EvalKernel(chip, wl, asg), temps, 3,
                              PowerSensor())
        assert np.all(fit.slope > 0)

    def test_fit_matches_endpoints_reasonably(self, chip, pair):
        """Figure 1: the line approximates the measured points."""
        wl, asg = pair
        temps = np.full(chip.n_cores, 350.0)
        fit = fit_power_lines(EvalKernel(chip, wl, asg), temps, 3,
                              PowerSensor())
        core = chip.cores[asg.core_of[0]]
        table = core.vf_table
        for v, lv in ((table.vmin, 0), (table.vmax, table.n_levels - 1)):
            true_p = (wl[0].dynamic_power_at(
                float(table.voltages[lv]), float(table.freqs[lv]))
                + core.leakage.power(float(table.voltages[lv]), 350.0))
            line_p = fit.slope[0] * v + fit.intercept[0]
            assert line_p == pytest.approx(true_p, rel=0.35)

    def test_two_vs_three_point_similar(self, chip, pair):
        wl, asg = pair
        temps = np.full(chip.n_cores, 350.0)
        kernel = EvalKernel(chip, wl, asg)
        f3 = fit_power_lines(kernel, temps, 3, PowerSensor())
        f2 = fit_power_lines(kernel, temps, 2, PowerSensor())
        np.testing.assert_allclose(f3.slope, f2.slope, rtol=0.35)

    def test_local_window_fit(self, chip, pair):
        wl, asg = pair
        temps = np.full(chip.n_cores, 350.0)
        fit = fit_power_lines(EvalKernel(chip, wl, asg), temps, 3,
                              PowerSensor(), center_levels=[4, 4],
                              span_levels=2)
        assert np.all(fit.slope > 0)

    def test_local_window_at_boundaries(self, chip, pair):
        wl, asg = pair
        temps = np.full(chip.n_cores, 350.0)
        for centre in (0, 8):
            fit = fit_power_lines(EvalKernel(chip, wl, asg), temps, 3,
                                  PowerSensor(),
                                  center_levels=[centre, centre],
                                  span_levels=2)
            assert np.all(np.isfinite(fit.slope))

    def test_hotter_cores_fit_higher_lines(self, chip, pair):
        wl, asg = pair
        cold = fit_power_lines(EvalKernel(chip, wl, asg),
                               np.full(chip.n_cores, 330.0), 3,
                               PowerSensor())
        hot = fit_power_lines(EvalKernel(chip, wl, asg),
                              np.full(chip.n_cores, 380.0), 3,
                              PowerSensor())
        # Leakage grows with temperature: the fitted line at Vmax must
        # sit higher when profiling hot.
        v = chip.cores[asg.core_of[0]].vf_table.vmax
        assert (hot.slope[0] * v + hot.intercept[0]
                > cold.slope[0] * v + cold.intercept[0])


class _OneLevelTable:
    """A V/f table offering exactly one operating point (``VFTable``
    itself insists on two)."""

    def __init__(self, v: float, f: float) -> None:
        self.voltages = np.array([v])
        self.freqs = np.array([f])
        self.n_levels = 1
        self.vmin = v
        self.vmax = v

    def nearest_level_at_most(self, v: float) -> int:
        return 0


def one_level_chip(chip):
    """``chip`` with core 0's V/f table collapsed to its lowest point;
    the leakage model and everything else stay real."""
    core = chip.cores[0]
    table = _OneLevelTable(float(core.vf_table.voltages[0]),
                           float(core.vf_table.freqs[0]))
    cores = (dataclasses.replace(core, vf_table=table),) + chip.cores[1:]
    return dataclasses.replace(chip, cores=cores)


class TestFitPowerLinesDegenerate:
    """A one-level V/f table yields a single (V, p) profiling point; the
    fit must fall back to a flat line instead of feeding ``np.polyfit``
    a singular one-point system (which emits a RankWarning and garbage
    coefficients)."""

    def test_single_point_window_flat_fallback(self, small_chip):
        chip = one_level_chip(small_chip)
        wl = Workload((get_app("bzip2"),))
        asg = Assignment((0,))
        temps = np.full(chip.n_cores, 350.0)
        fit = fit_power_lines(EvalKernel(chip, wl, asg), temps, 3,
                              PowerSensor())
        core = chip.cores[0]
        v = float(core.vf_table.voltages[0])
        expected = (wl[0].dynamic_power_at(v, float(core.vf_table.freqs[0]))
                    + core.leakage.power(v, 350.0))
        assert fit.slope[0] == 0.0
        assert fit.intercept[0] == pytest.approx(expected)

    def test_local_window_on_one_level_table(self, small_chip):
        chip = one_level_chip(small_chip)
        wl = Workload((get_app("bzip2"),))
        asg = Assignment((0,))
        fit = fit_power_lines(EvalKernel(chip, wl, asg),
                              np.full(chip.n_cores, 350.0), 3,
                              PowerSensor(), center_levels=[0],
                              span_levels=2)
        assert fit.slope[0] == 0.0
        assert np.isfinite(fit.intercept[0])


def scalar_fit_power_lines(chip, workload, assignment, core_temps,
                           n_voltages, power_sensor, center_levels=None,
                           span_levels=2, ceff_multipliers=None):
    """The one-point-at-a-time profiling loop: every (thread, profiling
    voltage) leakage is a scalar ``CoreLeakageModel.power`` call. The
    parity reference for :func:`fit_power_lines`."""
    n = assignment.n_threads
    ceff_mult = (np.ones(n) if ceff_multipliers is None
                 else np.asarray(ceff_multipliers, dtype=float))
    slope = np.empty(n)
    intercept = np.empty(n)
    for i, core_id in enumerate(assignment.core_of):
        core = chip.cores[core_id]
        table = core.vf_table
        if center_levels is None:
            level_set = sorted({
                table.nearest_level_at_most(v)
                for v in np.linspace(table.vmin, table.vmax, n_voltages)})
        else:
            centre = int(center_levels[i])
            lo = max(centre - span_levels, 0)
            hi = min(centre + span_levels, table.n_levels - 1)
            if hi - lo < 1:
                lo = max(hi - 1, 0)
            level_set = sorted({
                lo + (k * (hi - lo)) // (n_voltages - 1)
                for k in range(n_voltages)})
        reader = core_reader(power_sensor, core_id)
        xs, ys = [], []
        for level in level_set:
            v_lv = float(table.voltages[level])
            f_lv = float(table.freqs[level])
            true_p = (ceff_mult[i] * workload[i].dynamic_power_at(v_lv, f_lv)
                      + core.leakage.power(v_lv, float(core_temps[core_id])))
            xs.append(v_lv)
            ys.append(reader.read(true_p))
        if len(xs) >= 2:
            b, c = np.polyfit(np.array(xs), np.array(ys), 1)
        else:
            b, c = 0.0, ys[0]
        slope[i] = b
        intercept[i] = c
    return slope, intercept


class TestBatchedProfilingLeakage:
    """LinOpt profiles a pass's leakage in one kernel call; the fit it
    feeds is bit for bit the scalar loop's."""

    @staticmethod
    def _case(chip, n_threads, seed):
        rng = np.random.default_rng(seed)
        wl = make_workload(n_threads, rng)
        cores = rng.choice(chip.n_cores, size=n_threads, replace=False)
        asg = Assignment(tuple(int(c) for c in cores))
        temps = rng.uniform(320.0, 380.0, chip.n_cores)
        ceff = rng.uniform(0.7, 1.3, n_threads)
        return wl, asg, temps, ceff

    @staticmethod
    def _sensors(bank):
        """Two identically seeded noisy sensors (or per-core banks)."""
        spec = SensorSpec(noise_sigma=0.05)
        if bank:
            return (SensorBank(16, spec=spec, seed=4),
                    SensorBank(16, spec=spec, seed=4))
        return (PowerSensor(spec, rng=np.random.default_rng(4)),
                PowerSensor(spec, rng=np.random.default_rng(4)))

    def _assert_fit_bitwise(self, chip, wl, asg, temps, ceff, n_voltages,
                            bank=False, **window):
        batched, scalar = self._sensors(bank)
        kernel = EvalKernel(chip, wl, asg, ceff_multipliers=ceff)
        fit = fit_power_lines(kernel, temps, n_voltages, batched, **window)
        slope, intercept = scalar_fit_power_lines(
            chip, wl, asg, temps, n_voltages, scalar,
            ceff_multipliers=ceff, **window)
        assert fit.slope.tobytes() == slope.tobytes()
        assert fit.intercept.tobytes() == intercept.tobytes()

    @pytest.mark.parametrize("n_voltages", [2, 3, 5])
    def test_global_window(self, small_chip, n_voltages):
        wl, asg, temps, ceff = self._case(small_chip, 5, n_voltages)
        self._assert_fit_bitwise(small_chip, wl, asg, temps, ceff,
                                 n_voltages)

    @pytest.mark.parametrize("n_voltages", [2, 3, 5])
    def test_local_window(self, small_chip, n_voltages):
        wl, asg, temps, ceff = self._case(small_chip, 5, 10 + n_voltages)
        # Centres at both table edges and inside: windows of 2..5
        # distinct levels in one call.
        centres = [0, 8, 4, 1, 7]
        self._assert_fit_bitwise(small_chip, wl, asg, temps, ceff,
                                 n_voltages, center_levels=centres,
                                 span_levels=2)

    @pytest.mark.parametrize("center_levels", [None, [0, 3, 8]])
    def test_one_level_window_beside_full_ones(self, small_chip,
                                               center_levels):
        chip = one_level_chip(small_chip)
        wl, _, temps, ceff = self._case(chip, 3, 7)
        asg = Assignment((0, 3, 5))
        self._assert_fit_bitwise(chip, wl, asg, temps, ceff, 3,
                                 center_levels=center_levels)

    def test_per_core_sensor_bank(self, small_chip):
        wl, asg, temps, ceff = self._case(small_chip, 4, 21)
        self._assert_fit_bitwise(small_chip, wl, asg, temps, ceff, 3,
                                 bank=True, center_levels=[2, 5, 6, 3])

    def test_core_leakage_rows_match_scalar_power(self, chip):
        wl, asg, temps, _ = self._case(chip, 6, 3)
        kernel = EvalKernel(chip, wl, asg)
        rng = np.random.default_rng(5)
        levels = rng.integers(0, 9, size=(7, asg.n_threads))
        volts = np.array([[chip.cores[c].vf_table.voltages[lv]
                           for c, lv in zip(asg.core_of, row)]
                          for row in levels])
        leak = kernel.core_leakage(volts, temps)
        for r in range(volts.shape[0]):
            for i, core_id in enumerate(asg.core_of):
                ref = chip.cores[core_id].leakage.power(
                    float(volts[r, i]), float(temps[core_id]))
                assert float(leak[r, i]).hex() == float(ref).hex()
        # A row's result does not depend on the rows beside it.
        alone = kernel.core_leakage(volts[3:4], temps)
        assert alone.tobytes() == leak[3:4].tobytes()


class TestSensorStreams:
    """Regression for the default-sensor seeding: LinOpt's power and
    IPC sensors must draw from *independent* child streams of one
    parent seed, not two copies of ``default_rng(0)``."""

    def test_default_sensors_not_correlated(self):
        mgr = LinOpt()
        power_draws = mgr.power_sensor._rng.standard_normal(8)
        ipc_draws = mgr.ipc_sensor._rng.standard_normal(8)
        assert not np.allclose(power_draws, ipc_draws)

    def test_default_sensors_reproducible(self):
        a, b = LinOpt(), LinOpt()
        np.testing.assert_array_equal(a.power_sensor._rng.standard_normal(8),
                                      b.power_sensor._rng.standard_normal(8))
        np.testing.assert_array_equal(a.ipc_sensor._rng.standard_normal(8),
                                      b.ipc_sensor._rng.standard_normal(8))

    def test_independent_rngs_distinct_and_reproducible(self):
        first = independent_rngs(3, seed=5)
        again = independent_rngs(3, seed=5)
        draws = [r.standard_normal(4) for r in first]
        for i in range(3):
            np.testing.assert_array_equal(
                draws[i], again[i].standard_normal(4))
            for j in range(i + 1, 3):
                assert not np.allclose(draws[i], draws[j])


class TestNoisyLinOptFeasibility:
    """Property: because the correction loop evaluates *true* system
    states, LinOpt never returns an over-budget operating point no
    matter how noisy its sensors are — noise only costs corrections."""

    SIGMAS = (0.0, 0.05, 0.2)
    SEEDS = (3, 7, 11, 13, 17)

    def test_feasible_under_noise_and_corrections_grow(self, chip, rng):
        wl = make_workload(8, rng)
        asg = VarFAppIPC().assign_with_profiling(chip, wl, rng)
        p_target = LOW_POWER.p_target(8, chip.n_cores)
        total_corrections = {}
        for sigma in self.SIGMAS:
            total = 0.0
            for seed in self.SEEDS:
                p_rng, i_rng = independent_rngs(2, seed=seed)
                spec = SensorSpec(noise_sigma=sigma, relative=True)
                mgr = LinOpt(LinOptConfig(n_iterations=2),
                             power_sensor=PowerSensor(spec, p_rng),
                             ipc_sensor=IpcSensor(spec, i_rng))
                res = mgr.set_levels(chip, wl, asg, LOW_POWER)
                assert meets_constraints(res.state, p_target,
                                         LOW_POWER.p_core_max)
                total += res.stats["corrections"]
            total_corrections[sigma] = total
        assert (total_corrections[0.0] <= total_corrections[0.05]
                <= total_corrections[0.2])
        assert total_corrections[0.2] > total_corrections[0.0]


class TestLinOptBehaviour:
    def test_slow_memory_threads_get_lower_voltage(self, chip, rng):
        """LinOpt's core idea: memory-bound low-IPC threads give up
        voltage so compute-bound threads can keep it."""
        wl = Workload((get_app("vortex"), get_app("crafty"),
                       get_app("mcf"), get_app("apsi")))
        asg = VarFAppIPC().assign_with_profiling(chip, wl, rng)
        res = LinOpt().set_levels(chip, wl, asg, LOW_POWER)
        levels = dict(zip((a.name for a in wl), res.levels))
        assert (levels["mcf"] + levels["apsi"]
                <= levels["vortex"] + levels["crafty"])

    def test_power_close_to_target(self, chip, rng):
        """Section 4.3.1: the solutions satisfy the power constraint
        'with little slack'."""
        wl = make_workload(16, rng)
        asg = VarFAppIPC().assign_with_profiling(chip, wl, rng)
        res = LinOpt().set_levels(chip, wl, asg, LOW_POWER)
        p_target = LOW_POWER.p_target(16, chip.n_cores)
        assert res.state.total_power <= p_target + 1e-6
        assert res.state.total_power >= 0.93 * p_target

    def test_iteration_count_respected(self, chip, pair):
        wl, asg = pair
        res1 = LinOpt(LinOptConfig(n_iterations=1)).set_levels(
            chip, wl, asg, COST_PERFORMANCE)
        res3 = LinOpt(LinOptConfig(n_iterations=3)).set_levels(
            chip, wl, asg, COST_PERFORMANCE)
        # More passes solve more LPs. (Pivot counts are no longer a
        # proxy for solve counts: the warm-started default backend
        # finishes re-solves in ~0 pivots.)
        solves1 = res1.stats["lp_warm_solves"] + res1.stats["lp_cold_solves"]
        solves3 = res3.stats["lp_warm_solves"] + res3.stats["lp_cold_solves"]
        assert solves3 > solves1
        assert res3.stats["lp_pivots"] >= res1.stats["lp_pivots"]

    def test_phase_multipliers_shift_allocation(self, chip, rng):
        """Online adaptivity: boosting one thread's phase IPC should
        never *lower* its allocated level."""
        wl = Workload((get_app("gzip"), get_app("gzip"),
                       get_app("gzip"), get_app("gzip")))
        asg = Assignment((0, 1, 2, 3))
        base = LinOpt().set_levels(chip, wl, asg, LOW_POWER)
        boosted = LinOpt().set_levels(
            chip, wl, asg, LOW_POWER,
            ipc_multipliers=[3.0, 1.0, 1.0, 1.0])
        assert boosted.levels[0] >= base.levels[0]


class TestLinOptConfigValidation:
    def test_zero_profile_span_still_decides(self, daemon_chip):
        """A zero-width local window still profiles: it widens to the
        two levels a one-level span around the top level covers."""
        wl = make_workload(4, np.random.default_rng(1))
        asg = Assignment((0, 1, 2, 3))
        tops = [daemon_chip.cores[c].vf_table.n_levels - 1
                for c in asg.core_of]
        temps = np.full(daemon_chip.n_cores, 350.0)
        fits = [fit_power_lines(EvalKernel(daemon_chip, wl, asg), temps,
                                3, PowerSensor(), center_levels=tops,
                                span_levels=span)
                for span in (0, 1)]
        np.testing.assert_array_equal(fits[0].slope, fits[1].slope)
        np.testing.assert_array_equal(fits[0].intercept,
                                      fits[1].intercept)
        assert np.all(fits[0].slope > 0)


@pytest.fixture(scope="module")
def daemon_chip():
    """A daemon tenant's die: 4 cores at 35 mm^2 per core."""
    arch = ArchConfig(n_cores=4, die_area_mm2=140.0, grid_resolution=8)
    return characterize_dies(DieBatch(DEFAULT_TECH, arch, n_dies=1,
                                      seed=5)[:1], DEFAULT_TECH, arch)[0]


#: Budgets that bind on the 4-core die (it draws 20-25 W at its top
#: operating points), so its decisions quantise, correct and refill.
TIGHT = PowerEnvironment("Tight", 15.0, p_core_max=5.0)
TIGHTER = PowerEnvironment("Tighter", 12.0, p_core_max=4.5)


class _Bypass(linopt.StateMemo):
    """No memo: every evaluation is a fresh kernel row, the schedule
    LinOpt ran before it kept one."""

    def evaluate_batch(self, levels_matrix, errors="raise"):
        return self.kernel.evaluate_levels_batch(
            [list(row) for row in levels_matrix], errors=errors)


def _assert_state_bitwise(a, b):
    for field in dataclasses.fields(a):
        assert (np.asarray(getattr(a, field.name)).tobytes()
                == np.asarray(getattr(b, field.name)).tobytes()), field.name


def _algorithm_stats(stats):
    """Stats that describe the decision, not the evaluation work."""
    return {k: v for k, v in stats.items()
            if not k.startswith("kernel_") and k != "state_memo_hits"}


def _assert_same_decisions(got, ref):
    assert len(got) == len(ref)
    for a, b in zip(got, ref):
        assert a.levels == b.levels
        _assert_state_bitwise(a.state, b.state)
        assert a.evaluations == b.evaluations
        assert _algorithm_stats(a.stats) == _algorithm_stats(b.stats)


class _OnLpEngine:
    """Runs a test class's LinOpt decisions on one LP engine: the
    default bounded one here, the other two in the subclasses below
    the class (different engines reach different quantised paths, so
    LinOpt's refill walk reaches different points)."""

    engine = BoundedSimplexBackend

    def linopt(self, config=None, **sensors):
        """A LinOpt (3 passes unless ``config`` says otherwise) on a
        fresh instance of the class's LP engine."""
        return LinOpt(config or LinOptConfig(n_iterations=3),
                      lp_backend=self.engine(), **sensors)


class TestLinOptStateMemo(_OnLpEngine):
    """The per-decision state memo changes how many kernel rows a
    decision pays for, nothing else: levels, states, evaluation counts
    and LP statistics are bit for bit those of the memo-less schedule,
    whichever LP backend runs."""

    @staticmethod
    def _chain(make_manager, chip, wl, asg, env, phases):
        """Successive decisions of one manager, each warm-started from
        the previous result as the simulation stepper does; each phase
        is a pair of (IPC, Ceff) multipliers, so every warm start is
        stale."""
        manager = make_manager()
        results, prev = [], None
        for ipc_m, ceff_m in phases:
            warm = ({} if prev is None else
                    dict(initial_levels=prev.levels,
                         initial_state=prev.state))
            prev = manager.set_levels(chip, wl, asg, env,
                                      ipc_multipliers=ipc_m,
                                      ceff_multipliers=ceff_m, **warm)
            results.append(prev)
        return results

    def _compare(self, monkeypatch, make_manager, chip, wl, asg, env,
                 phases):
        memo = self._chain(make_manager, chip, wl, asg, env, phases)
        with monkeypatch.context() as patch:
            patch.setattr(linopt, "StateMemo", _Bypass)
            bypass = self._chain(make_manager, chip, wl, asg, env, phases)
        _assert_same_decisions(memo, bypass)
        for got, ref in zip(memo, bypass):
            assert ref.stats["state_memo_hits"] == 0.0
            # Every evaluation is a kernel row or a memo hit, and the
            # memo saves exactly the rows it served.
            assert (got.stats["kernel_evaluations"]
                    + got.stats["state_memo_hits"]
                    == ref.stats["kernel_evaluations"])
        return memo

    @staticmethod
    def _phases(n_threads, n_decisions, seed):
        rng = np.random.default_rng(seed)
        phases = [(None, None)]
        for _ in range(n_decisions - 1):
            phases.append((rng.uniform(0.7, 1.3, n_threads),
                           rng.uniform(0.8, 1.2, n_threads)))
        return phases

    @staticmethod
    def _daemon_case(chip, seed):
        rng = np.random.default_rng(seed)
        return make_workload(4, rng), Assignment((0, 1, 2, 3))

    @pytest.mark.parametrize("env", [COST_PERFORMANCE, TIGHT, TIGHTER],
                             ids=["cost-perf", "tight", "tighter"])
    def test_daemon_shape(self, daemon_chip, env, monkeypatch):
        wl, asg = self._daemon_case(daemon_chip, 1)
        results = self._compare(
            monkeypatch, self.linopt,
            daemon_chip, wl, asg, env, self._phases(4, 6, 2))
        # The passes of a converging decision revisit its points, so
        # it pays for fewer kernel rows than it examines.
        assert any(r.stats["kernel_evaluations"] < r.evaluations
                   for r in results)
        assert sum(r.stats["state_memo_hits"] for r in results) > 0

    def test_weighted_objective(self, daemon_chip, monkeypatch):
        wl, asg = self._daemon_case(daemon_chip, 3)
        self._compare(
            monkeypatch,
            lambda: self.linopt(LinOptConfig(n_iterations=3,
                                             objective="weighted")),
            daemon_chip, wl, asg, TIGHT, self._phases(4, 5, 4))

    def test_noisy_sensor_bank(self, daemon_chip, monkeypatch):
        wl, asg = self._daemon_case(daemon_chip, 5)
        spec = SensorSpec(noise_sigma=0.05, relative=True)
        results = self._compare(
            monkeypatch,
            lambda: self.linopt(
                power_sensor=SensorBank(4, spec=spec, seed=6),
                ipc_sensor=IpcSensor(spec, np.random.default_rng(7))),
            daemon_chip, wl, asg, TIGHTER, self._phases(4, 5, 8))
        assert sum(r.stats["corrections"] for r in results) > 0

    def test_fig11_decision(self, chip, monkeypatch):
        """20 threads on the 20-core die, cold and then warm."""
        rng = np.random.default_rng(9)
        wl = make_workload(20, rng)
        asg = Assignment(tuple(int(c) for c in rng.permutation(20)))
        self._compare(monkeypatch,
                      self.linopt,
                      chip, wl, asg, COST_PERFORMANCE,
                      self._phases(20, 2, 10))

    def test_stale_initial_state_never_served(self, daemon_chip,
                                              monkeypatch):
        """A warm start evaluated under other phase multipliers is not
        an evaluation of this decision: when a pass lands back on the
        warm-start levels, the memo evaluates them afresh."""
        wl, asg = self._daemon_case(daemon_chip, 11)
        env = TIGHT
        first = self.linopt().set_levels(
            daemon_chip, wl, asg, env)
        memos = self._record_memos(monkeypatch)
        ipc_m = [1.25, 0.8, 1.1, 0.9]
        result = self.linopt().set_levels(
            daemon_chip, wl, asg, env, initial_levels=first.levels,
            initial_state=first.state, ipc_multipliers=ipc_m)
        (memo,) = memos
        assert all(state is not first.state
                   for state in memo.states.values())
        revisited = memo.states[first.levels]
        fresh = EvalKernel(daemon_chip, wl, asg,
                           ipc_multipliers=ipc_m).evaluate_levels(
                               first.levels)
        _assert_state_bitwise(revisited, fresh)
        assert revisited.ipcs.tobytes() != first.state.ipcs.tobytes()
        assert result.state is not first.state

    def test_non_integer_levels_raise_on_hit_and_miss(self, daemon_chip):
        """A float level row is the kernel's error, never its
        truncation: on a memo hit as on a miss."""
        wl, asg = self._daemon_case(daemon_chip, 1)
        kernel = EvalKernel(daemon_chip, wl, asg)
        memo = linopt.StateMemo(kernel)
        memo.evaluate([2, 1, 1, 1])
        with pytest.raises(ValueError) as ref:
            kernel.evaluate_levels([2.5, 1, 1, 1])
        assert str(ref.value) == "levels must be integers, not float64"
        for row in ([2.5, 1, 1, 1], [1.5, 1, 1, 1]):  # hit, miss
            with pytest.raises(ValueError) as got:
                memo.evaluate(row)
            assert str(got.value) == str(ref.value)
            with pytest.raises(ValueError) as got:
                memo.evaluate_batch([[2, 1, 1, 1], row], errors="isolate")
            assert str(got.value) == str(ref.value)
        with pytest.raises(ValueError) as got:
            memo.seed([2.5, 1, 1, 1], memo.states[(2, 1, 1, 1)])
        assert str(got.value) == str(ref.value)
        assert memo.hits == 0
        assert list(memo.states) == [(2, 1, 1, 1)]

    @staticmethod
    def _record_memos(monkeypatch):
        """Make LinOpt's memos inspectable; returns the list every new
        decision's memo is appended to."""
        memos = []

        class Recording(linopt.StateMemo):
            def __init__(self, kernel):
                super().__init__(kernel)
                memos.append(self)

        monkeypatch.setattr(linopt, "StateMemo", Recording)
        return memos

    @staticmethod
    def _poison(monkeypatch, poisoned):
        """Make every kernel row in ``poisoned`` fail, as a diverging
        fixed point does: per row, whatever its batch neighbours."""
        real = EvalKernel.evaluate_levels_batch

        def evaluate_levels_batch(self, levels_matrix, errors="raise"):
            keys = [tuple(int(lv) for lv in row) for row in levels_matrix]
            out = [RuntimeError(f"diverged at {key}") if key in poisoned
                   else state for key, state in zip(
                       keys, real(self, levels_matrix, errors="isolate"))]
            if errors == "raise":
                for state in out:
                    if isinstance(state, Exception):
                        raise state
            return out

        monkeypatch.setattr(EvalKernel, "evaluate_levels_batch",
                            evaluate_levels_batch)

    def test_failing_refill_trial(self, daemon_chip, monkeypatch):
        """A refill trial that fails under ``errors="isolate"`` is not
        stored: a trial the walk reaches raises as it did without the
        memo, and a discarded speculative one changes nothing."""
        wl, asg = self._daemon_case(daemon_chip, 1)
        phases = self._phases(4, 3, 2)
        trials = []
        real = EvalKernel.evaluate_levels_batch

        def recording(self, levels_matrix, errors="raise"):
            if errors == "isolate":
                trials.extend(tuple(int(lv) for lv in row)
                              for row in levels_matrix)
            return real(self, levels_matrix, errors=errors)

        with monkeypatch.context() as patch:
            patch.setattr(EvalKernel, "evaluate_levels_batch", recording)
            self._chain(self.linopt,
                        daemon_chip, wl, asg, TIGHT, phases)
        outcomes = []
        for trial in dict.fromkeys(trials):
            runs = []
            for bypass in (False, True):
                with monkeypatch.context() as patch:
                    self._poison(patch, {trial})
                    memos = self._record_memos(patch)
                    if bypass:
                        patch.setattr(linopt, "StateMemo", _Bypass)
                    try:
                        runs.append(self._chain(
                            self.linopt,
                            daemon_chip, wl, asg, TIGHT, phases))
                    except RuntimeError as exc:
                        runs.append(str(exc))
                assert not any(trial in memo.states for memo in memos)
            got, ref = runs
            if isinstance(ref, str):
                assert got == ref
            else:
                _assert_same_decisions(got, ref)
            outcomes.append(isinstance(ref, str))
        # Some poisoned trials are reached, some only speculated.
        assert any(outcomes) and not all(outcomes)


class TestLinOptStateMemoReference(TestLinOptStateMemo):
    """Every memo case on the reference engine (and, below, HiGHS).
    Poisoning each refill trial in turn reruns ~90 chains, 2-3 s per
    engine, so on these two engines that case carries the
    ``lp_engines`` mark: tier-1 deselects it, CI's lp-backends job
    runs it."""

    engine = ReferenceSimplexBackend

    @pytest.mark.lp_engines
    def test_failing_refill_trial(self, daemon_chip, monkeypatch):
        super().test_failing_refill_trial(daemon_chip, monkeypatch)


class TestLinOptStateMemoHighs(TestLinOptStateMemoReference):
    engine = HighsBackend


@pytest.fixture(scope="module")
def daemon_chip2():
    """A second die of the daemon tenants' design."""
    arch = ArchConfig(n_cores=4, die_area_mm2=140.0, grid_resolution=8)
    return characterize_dies(DieBatch(DEFAULT_TECH, arch, n_dies=1,
                                      seed=6)[:1], DEFAULT_TECH, arch)[0]


class _NoSeed(linopt.StateMemo):
    """A memo that never adopts the caller's warm start."""

    def seed(self, levels, state):
        pass


def _per_decision_memo(self, chip, workload, assignment, ipc_multipliers,
                       ceff_multipliers):
    """The per-decision bypass: a fresh kernel and an unseeded memo for
    every decision, as LinOpt evaluated before it carried them."""
    return _NoSeed(EvalKernel(chip, workload, assignment,
                              ipc_multipliers=ipc_multipliers,
                              ceff_multipliers=ceff_multipliers))


def _state_bytes(state):
    return tuple(np.asarray(getattr(state, f.name)).tobytes()
                 for f in dataclasses.fields(state))


class TestLinOptPhaseCarry(_OnLpEngine):
    """LinOpt carries the last decision's kernel and memo into the next
    one with the same inputs (anything else builds a new kernel) and
    seeds the memo with a warm start the kernel proves current. That
    changes how many kernel rows and builds a run of decisions pays
    for, nothing else: levels, states, evaluation counts and LP
    statistics are bit for bit those of a fresh kernel and memo per
    decision, whichever LP backend runs."""

    @staticmethod
    def _runs(n_threads, lengths, seed):
        """Phase multipliers for runs of decisions: run ``k`` repeats
        one (IPC, Ceff) draw ``lengths[k]`` times; the first run has
        none (all ones)."""
        rng = np.random.default_rng(seed)
        phases = []
        for k, length in enumerate(lengths):
            phase = ((None, None) if k == 0 else
                     (rng.uniform(0.7, 1.3, n_threads),
                      rng.uniform(0.8, 1.2, n_threads)))
            phases += [phase] * length
        return phases

    @staticmethod
    def _steps(chip, wl, asg, phases):
        return [(chip, wl, asg, phase) for phase in phases]

    @staticmethod
    def _decide(manager, env, step, prev=None):
        """One decision, warm-started from ``prev`` = (step, result),
        as the simulation stepper does, unless the die, workload or
        thread map changed."""
        chip, wl, asg, (ipc_m, ceff_m) = step
        warm = {}
        if prev is not None and all(
                a is b for a, b in zip(prev[0][:2], (chip, wl))) and (
                prev[0][2] == asg):
            warm = dict(initial_levels=prev[1].levels,
                        initial_state=prev[1].state)
        return manager.set_levels(chip, wl, asg, env,
                                  ipc_multipliers=ipc_m,
                                  ceff_multipliers=ceff_m, **warm)

    def _run(self, manager, env, steps):
        """Successive warm-started decisions of one manager."""
        results, prev = [], None
        for step in steps:
            prev = (step, self._decide(manager, env, step, prev))
            results.append(prev[1])
        return results

    @staticmethod
    def _count(monkeypatch):
        """Count kernel builds and computed rows."""
        counts = {"builds": 0, "rows": 0}
        init = EvalKernel.__init__
        batch = EvalKernel.evaluate_levels_batch

        def counting_init(self, *args, **kwargs):
            counts["builds"] += 1
            init(self, *args, **kwargs)

        def counting_batch(self, levels_matrix, errors="raise"):
            counts["rows"] += len(levels_matrix)
            return batch(self, levels_matrix, errors=errors)

        monkeypatch.setattr(EvalKernel, "__init__", counting_init)
        monkeypatch.setattr(EvalKernel, "evaluate_levels_batch",
                            counting_batch)
        return counts

    def _compare(self, monkeypatch, make_manager, env, steps):
        """Run ``steps`` carried and through the per-decision bypass;
        returns (carried results, their counts, bypass results, its
        counts)."""
        with monkeypatch.context() as patch:
            counts = self._count(patch)
            carried = self._run(make_manager(), env, steps)
        with monkeypatch.context() as patch:
            patch.setattr(linopt.LinOpt, "_decision_memo",
                          _per_decision_memo)
            ref_counts = self._count(patch)
            ref = self._run(make_manager(), env, steps)
        _assert_same_decisions(carried, ref)
        for got, want in zip(carried, ref):
            # Every evaluation is a kernel row or a memo hit.
            assert (got.stats["kernel_evaluations"]
                    + got.stats["state_memo_hits"]
                    == want.stats["kernel_evaluations"]
                    + want.stats["state_memo_hits"])
        assert counts["rows"] == sum(r.stats["kernel_evaluations"]
                                     for r in carried)
        return carried, counts, ref, ref_counts

    @pytest.mark.parametrize("env", [COST_PERFORMANCE, TIGHT, TIGHTER],
                             ids=["cost-perf", "tight", "tighter"])
    def test_runs_of_decisions_in_one_phase(self, daemon_chip, env,
                                            monkeypatch):
        wl, asg = TestLinOptStateMemo._daemon_case(daemon_chip, 1)
        steps = self._steps(daemon_chip, wl, asg,
                            self._runs(4, [3, 1, 4, 2], 2))
        carried, counts, _, ref_counts = self._compare(
            monkeypatch, self.linopt,
            env, steps)
        # One build per phase.
        assert counts["builds"] == 4
        assert ref_counts["builds"] == len(steps)
        assert counts["rows"] < ref_counts["rows"]

    def test_assignment_change_builds_a_kernel(self, daemon_chip,
                                               monkeypatch):
        wl, _ = TestLinOptStateMemo._daemon_case(daemon_chip, 3)
        phases = self._runs(4, [5], 0)
        steps = (self._steps(daemon_chip, wl, Assignment((0, 1, 2, 3)),
                             phases[:3])
                 + self._steps(daemon_chip, wl, Assignment((3, 2, 1, 0)),
                               phases[3:]))
        _, counts, _, _ = self._compare(
            monkeypatch, self.linopt,
            TIGHT, steps)
        assert counts["builds"] == 2

    def test_chip_or_workload_swap_builds_a_kernel(
            self, daemon_chip, daemon_chip2, monkeypatch):
        wl, asg = TestLinOptStateMemo._daemon_case(daemon_chip, 4)
        wl2, _ = TestLinOptStateMemo._daemon_case(daemon_chip, 5)
        phase = self._runs(4, [1, 1], 6)[1]
        steps = [(daemon_chip, wl, asg, phase)] * 2 + [
            (daemon_chip2, wl, asg, phase)] * 2 + [
            (daemon_chip2, wl2, asg, phase)] * 2 + [
            (daemon_chip, wl, asg, phase)]
        _, counts, _, _ = self._compare(
            monkeypatch, self.linopt,
            TIGHT, steps)
        assert counts["builds"] == 4

    def test_weighted_objective(self, daemon_chip, monkeypatch):
        wl, asg = TestLinOptStateMemo._daemon_case(daemon_chip, 3)
        self._compare(
            monkeypatch,
            lambda: self.linopt(LinOptConfig(n_iterations=3,
                                             objective="weighted")),
            TIGHT, self._steps(daemon_chip, wl, asg,
                               self._runs(4, [2, 3, 2], 4)))

    def test_noisy_sensor_bank(self, daemon_chip, monkeypatch):
        wl, asg = TestLinOptStateMemo._daemon_case(daemon_chip, 5)
        spec = SensorSpec(noise_sigma=0.05, relative=True)
        carried, _, _, _ = self._compare(
            monkeypatch,
            lambda: self.linopt(
                power_sensor=SensorBank(4, spec=spec, seed=6),
                ipc_sensor=IpcSensor(spec, np.random.default_rng(7))),
            TIGHTER, self._steps(daemon_chip, wl, asg,
                                 self._runs(4, [3, 3], 8)))
        assert sum(r.stats["corrections"] for r in carried) > 0

    def test_stale_warm_start_is_not_seeded(self, daemon_chip,
                                            monkeypatch):
        """A warm start evaluated under other phase multipliers fails
        the kernel's check and is never served."""
        wl, asg = TestLinOptStateMemo._daemon_case(daemon_chip, 11)
        phases = self._runs(4, [1, 1], 12)
        self._compare(monkeypatch,
                      self.linopt,
                      TIGHT, self._steps(daemon_chip, wl, asg, phases))
        manager = self.linopt()
        first, second = self._run(manager, TIGHT, self._steps(
            daemon_chip, wl, asg, phases))
        memo = manager._carry
        assert not memo.kernel.tabulates(first.levels, first.state)
        assert all(state is not first.state
                   for state in memo.states.values())
        memo.seed(first.levels, first.state)
        assert memo.states.get(first.levels) is not first.state
        assert second.state is not first.state

    def test_current_warm_start_is_seeded(self, daemon_chip,
                                          monkeypatch):
        """The stepper's own evaluation of the current operating point
        is the kernel's row there: the memo adopts it and a pass that
        lands on it pays no kernel row. The decision hands back a copy,
        never the caller's object."""
        wl, asg = TestLinOptStateMemo._daemon_case(daemon_chip, 1)
        ipc_m, ceff_m = self._runs(4, [1, 1], 13)[1]
        levels = self.linopt().set_levels(
            daemon_chip, wl, asg, COST_PERFORMANCE, ipc_multipliers=ipc_m,
            ceff_multipliers=ceff_m).levels
        warm = evaluate_levels(daemon_chip, wl, asg, list(levels),
                               ipc_multipliers=ipc_m,
                               ceff_multipliers=ceff_m)
        results = {}
        for bypass in (False, True):
            with monkeypatch.context() as patch:
                if bypass:
                    patch.setattr(linopt.LinOpt, "_decision_memo",
                                  _per_decision_memo)
                manager = self.linopt()
                results[bypass] = manager.set_levels(
                    daemon_chip, wl, asg, COST_PERFORMANCE,
                    initial_levels=levels, initial_state=warm,
                    ipc_multipliers=ipc_m, ceff_multipliers=ceff_m)
                if not bypass:
                    assert manager._carry.states[levels] is warm
        got, ref = results[False], results[True]
        _assert_same_decisions([got], [ref])
        assert got.levels == levels
        assert got.state is not warm
        _assert_state_bitwise(got.state, warm)
        assert (got.stats["kernel_evaluations"]
                < ref.stats["kernel_evaluations"])

    def test_multiplier_buffer_updated_in_place(self, daemon_chip,
                                                monkeypatch):
        """A caller that writes every phase into one pair of buffers
        decides as the per-decision bypass does: the kernel holds its
        own copy of the multipliers, so a rewritten buffer is a new
        phase, never the carried one."""
        wl, asg = TestLinOptStateMemo._daemon_case(daemon_chip, 1)
        phases = self._runs(4, [2, 2, 3], 15)

        def run(manager):
            ipc_buf, ceff_buf = np.ones(4), np.ones(4)
            results, prev = [], None
            for ipc_m, ceff_m in phases:
                ipc_buf[:] = 1.0 if ipc_m is None else ipc_m
                ceff_buf[:] = 1.0 if ceff_m is None else ceff_m
                step = (daemon_chip, wl, asg, (ipc_buf, ceff_buf))
                prev = (step, self._decide(manager, TIGHT, step, prev))
                results.append(prev[1])
            return results

        with monkeypatch.context() as patch:
            counts = self._count(patch)
            carried = run(self.linopt())
        with monkeypatch.context() as patch:
            patch.setattr(linopt.LinOpt, "_decision_memo",
                          _per_decision_memo)
            ref = run(self.linopt())
        _assert_same_decisions(carried, ref)
        assert counts["builds"] == 3

    def test_failing_refill_trials(self, daemon_chip, monkeypatch):
        """A refill trial that fails under ``errors="isolate"`` is never
        carried: a trial the walk reaches raises as it does without the
        carry, and a discarded speculative one changes nothing."""
        wl, asg = TestLinOptStateMemo._daemon_case(daemon_chip, 1)
        steps = self._steps(daemon_chip, wl, asg,
                            self._runs(4, [2, 2], 2))
        trials = []
        real = EvalKernel.evaluate_levels_batch

        def recording(self, levels_matrix, errors="raise"):
            if errors == "isolate":
                trials.extend(tuple(int(lv) for lv in row)
                              for row in levels_matrix)
            return real(self, levels_matrix, errors=errors)

        with monkeypatch.context() as patch:
            patch.setattr(EvalKernel, "evaluate_levels_batch", recording)
            self._run(self.linopt(), TIGHT, steps)
        outcomes = []
        for trial in dict.fromkeys(trials):
            runs = []
            for bypass in (False, True):
                with monkeypatch.context() as patch:
                    TestLinOptStateMemo._poison(patch, {trial})
                    memos = TestLinOptStateMemo._record_memos(patch)
                    if bypass:
                        patch.setattr(linopt.LinOpt, "_decision_memo",
                                      _per_decision_memo)
                    try:
                        runs.append(self._run(
                            self.linopt(), TIGHT,
                            steps))
                    except RuntimeError as exc:
                        runs.append(str(exc))
                assert not any(trial in memo.states for memo in memos)
            got, ref = runs
            if isinstance(ref, str):
                assert got == ref
            else:
                _assert_same_decisions(got, ref)
            outcomes.append(isinstance(ref, str))
        # Some poisoned trials are reached, some only speculated.
        assert any(outcomes) and not all(outcomes)

    def test_kernel_stats_cover_one_decision(self, daemon_chip,
                                             monkeypatch):
        wl, asg = TestLinOptStateMemo._daemon_case(daemon_chip, 1)
        steps = self._steps(daemon_chip, wl, asg,
                            self._runs(4, [4, 3], 2))
        calls = []
        real = EvalKernel.evaluate_levels_batch

        def recording(self, levels_matrix, errors="raise"):
            calls[-1].append(len(levels_matrix))
            return real(self, levels_matrix, errors=errors)

        monkeypatch.setattr(EvalKernel, "evaluate_levels_batch",
                            recording)
        manager = self.linopt()
        prev = None
        for step in steps:
            calls.append([])
            result = self._decide(manager, TIGHT, step, prev)
            prev = (step, result)
            assert result.stats["kernel_evaluations"] == sum(calls[-1])
            assert result.stats["kernel_batches"] == len(calls[-1])
        assert any(not rows for rows in calls[1:])  # a row-free decision

    def test_carried_states_are_never_mutated(self, daemon_chip):
        wl, asg = TestLinOptStateMemo._daemon_case(daemon_chip, 1)
        manager = self.linopt()
        seen = {}
        prev = None
        steps = self._steps(daemon_chip, wl, asg, self._runs(4, [3, 3], 2))
        for step in steps:
            prev = (step, self._decide(manager, TIGHTER, step, prev))
            for state in [*manager._carry.states.values(), prev[1].state]:
                seen.setdefault(id(state), (state, _state_bytes(state)))
        assert len(seen) > len(steps)
        for state, snapshot in seen.values():
            assert _state_bytes(state) == snapshot

    def test_oversized_carry_starts_afresh(self, daemon_chip,
                                                 monkeypatch):
        wl, asg = TestLinOptStateMemo._daemon_case(daemon_chip, 1)
        steps = self._steps(daemon_chip, wl, asg, self._runs(4, [4], 2))
        monkeypatch.setattr(linopt, "_CARRY_MAX_STATES", 0)
        _, counts, _, _ = self._compare(
            monkeypatch, self.linopt,
            TIGHT, steps)
        assert counts["builds"] == len(steps)

    def test_pickle_drops_the_carry(self, daemon_chip):
        """A restored manager starts cold and decides identically."""
        wl, asg = TestLinOptStateMemo._daemon_case(daemon_chip, 1)
        steps = self._steps(daemon_chip, wl, asg, self._runs(4, [3], 2))
        warm = self.linopt()
        prev = (steps[0], self._decide(warm, TIGHT, steps[0]))
        assert warm._carry is not None
        blob = pickle.dumps(warm)
        assert b"EvalKernel" not in blob and b"StateMemo" not in blob
        cold = pickle.loads(blob)
        assert cold._carry is None
        rows = []
        for step in steps[1:]:
            a = self._decide(warm, TIGHT, step, prev)
            b = self._decide(cold, TIGHT, step, prev)
            _assert_same_decisions([a], [b])
            rows.append((a.stats["kernel_evaluations"],
                         b.stats["kernel_evaluations"]))
            prev = (step, a)
        assert rows[0][0] < rows[0][1]  # only the cold one re-evaluates


class TestLinOptPhaseCarryReference(TestLinOptPhaseCarry):
    """Every carry case on the reference engine (and, below, HiGHS);
    the poisoned-refill case is marked as for the memo."""

    engine = ReferenceSimplexBackend

    @pytest.mark.lp_engines
    def test_failing_refill_trials(self, daemon_chip, monkeypatch):
        super().test_failing_refill_trials(daemon_chip, monkeypatch)


class TestLinOptPhaseCarryHighs(TestLinOptPhaseCarryReference):
    engine = HighsBackend
