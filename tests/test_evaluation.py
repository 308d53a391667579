"""Tests for repro.runtime.evaluation (system-state evaluation)."""

import numpy as np
import pytest

from repro.runtime import (
    Assignment,
    evaluate_levels,
    evaluate_max_levels,
    evaluate_uniform_frequency,
)
from repro.workloads import Workload, get_app


@pytest.fixture()
def workload4():
    return Workload((get_app("bzip2"), get_app("mcf"),
                     get_app("vortex"), get_app("swim")))


@pytest.fixture()
def assignment4():
    return Assignment(core_of=(0, 5, 10, 19))


class TestAssignment:
    def test_properties(self, assignment4):
        assert assignment4.n_threads == 4
        assert assignment4.core_of == (0, 5, 10, 19)

    def test_rejects_duplicate_cores(self):
        with pytest.raises(ValueError):
            Assignment(core_of=(1, 1))

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            Assignment(core_of=())

    def test_rejects_negative_core(self):
        with pytest.raises(ValueError):
            Assignment(core_of=(-1,))


class TestEvaluateLevels:
    def test_max_levels_shape(self, chip, workload4, assignment4):
        state = evaluate_max_levels(chip, workload4, assignment4)
        assert state.voltages.shape == (4,)
        assert state.freqs.shape == (4,)
        assert state.total_power > 0
        assert state.throughput_mips > 0

    def test_throughput_is_sum_of_threads(self, chip, workload4,
                                          assignment4):
        state = evaluate_max_levels(chip, workload4, assignment4)
        assert state.throughput_mips == pytest.approx(
            (state.ipcs * state.freqs / 1e6).sum())

    def test_lower_levels_use_less_power(self, chip, workload4,
                                         assignment4):
        hi = evaluate_levels(chip, workload4, assignment4, [8, 8, 8, 8])
        lo = evaluate_levels(chip, workload4, assignment4, [0, 0, 0, 0])
        assert lo.total_power < hi.total_power
        assert lo.throughput_mips < hi.throughput_mips

    def test_level_out_of_range(self, chip, workload4, assignment4):
        with pytest.raises(ValueError):
            evaluate_levels(chip, workload4, assignment4, [0, 0, 0, 99])

    def test_wrong_level_count(self, chip, workload4, assignment4):
        with pytest.raises(ValueError):
            evaluate_levels(chip, workload4, assignment4, [0, 0])

    def test_core_beyond_die_rejected(self, chip, workload4):
        asg = Assignment(core_of=(0, 1, 2, 77))
        with pytest.raises(ValueError):
            evaluate_max_levels(chip, workload4, asg)

    def test_idle_cores_are_powered_off(self, chip):
        # One thread's total power must be far below four threads'.
        wl1 = Workload((get_app("bzip2"),))
        s1 = evaluate_max_levels(chip, wl1, Assignment((0,)))
        wl4 = Workload(tuple(get_app("bzip2") for _ in range(4)))
        s4 = evaluate_max_levels(chip, wl4,
                                 Assignment((0, 1, 2, 3)))
        assert s4.total_power > 2 * s1.total_power

    def test_phase_multipliers_scale_results(self, chip, workload4,
                                             assignment4):
        base = evaluate_max_levels(chip, workload4, assignment4)
        boosted = evaluate_levels(
            chip, workload4, assignment4, [8] * 4,
            ipc_multipliers=[2.0] * 4)
        np.testing.assert_allclose(boosted.ipcs, 2 * base.ipcs)

    def test_ceff_multiplier_raises_power(self, chip, workload4,
                                          assignment4):
        base = evaluate_max_levels(chip, workload4, assignment4)
        hot = evaluate_levels(chip, workload4, assignment4, [8] * 4,
                              ceff_multipliers=[1.5] * 4)
        assert hot.total_power > base.total_power

    def test_temperatures_above_ambient(self, chip, workload4,
                                        assignment4):
        state = evaluate_max_levels(chip, workload4, assignment4)
        assert np.all(state.block_temps >= chip.thermal.ambient_k - 1e-6)

    def test_active_core_hotter_than_idle(self, chip, workload4):
        asg = Assignment(core_of=(0, 1, 2, 3))
        state = evaluate_max_levels(chip, workload4, asg)
        active_t = state.block_temps[0]
        idle_t = state.block_temps[19]
        assert active_t > idle_t


class TestUniformFrequency:
    def test_all_threads_at_chip_frequency(self, chip, workload4,
                                           assignment4):
        state = evaluate_uniform_frequency(chip, workload4, assignment4)
        np.testing.assert_allclose(state.freqs, chip.min_fmax)
        np.testing.assert_allclose(state.voltages, 1.0)

    def test_nunifreq_beats_unifreq_throughput(self, chip, workload4,
                                               assignment4):
        uni = evaluate_uniform_frequency(chip, workload4, assignment4)
        nuni = evaluate_max_levels(chip, workload4, assignment4)
        assert nuni.throughput_mips >= uni.throughput_mips


class TestMetrics:
    def test_ed2_formula(self, chip, workload4, assignment4):
        state = evaluate_max_levels(chip, workload4, assignment4)
        assert state.ed2_relative == pytest.approx(
            state.total_power / state.throughput_mips ** 3)

    def test_weighted_throughput_equal_weighting(self, chip):
        # A single thread at reference conditions has weighted TP 1.
        wl = Workload((get_app("bzip2"),))
        asg = Assignment((0,))
        state = evaluate_max_levels(chip, wl, asg)
        expected = (state.ipcs[0] * state.freqs[0]
                    / get_app("bzip2").throughput_at(4e9))
        assert state.weighted_throughput(wl) == pytest.approx(expected)

    def test_weighted_mismatch_rejected(self, chip, workload4,
                                        assignment4):
        state = evaluate_max_levels(chip, workload4, assignment4)
        with pytest.raises(ValueError):
            state.weighted_throughput(Workload((get_app("mcf"),)))

    def test_core_power_is_dyn_plus_leak(self, chip, workload4,
                                         assignment4):
        state = evaluate_max_levels(chip, workload4, assignment4)
        np.testing.assert_allclose(
            state.core_power, state.core_dynamic + state.core_leakage)

    def test_total_includes_l2(self, chip, workload4, assignment4):
        state = evaluate_max_levels(chip, workload4, assignment4)
        cores = state.core_power.sum()
        assert state.total_power == pytest.approx(cores + state.l2_power)
        assert state.l2_power > 0
