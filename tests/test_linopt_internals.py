"""White-box tests for LinOpt's building blocks (Section 4.3.1)."""

import dataclasses

import numpy as np
import pytest

from repro.config import COST_PERFORMANCE, LOW_POWER
from repro.pm import (LinOpt, LinOptConfig, fit_power_lines,
                      meets_constraints)
from repro.faults import SensorBank
from repro.power import (IpcSensor, PowerSensor, SensorSpec, core_reader,
                         independent_rngs)
from repro.runtime import Assignment
from repro.runtime.kernel import EvalKernel
from repro.sched import VarFAppIPC
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
