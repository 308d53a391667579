"""Tests for the Section 8 extensions: parallel apps, barrier-aware
DVFS, and NBTI wearout."""

import numpy as np
import pytest

from repro.aging import (
    AgingState,
    NbtiParams,
    SECONDS_PER_MONTH,
    aged_chip,
    delta_vth,
    equivalent_stress_time,
)
from repro.config import COST_PERFORMANCE, PowerEnvironment
from repro.pm import BarrierAwarePm
from repro.pm.barrier import levels_for_pace
from repro.runtime import evaluate_max_levels
from repro.sched import VarF
from repro.workloads import ParallelApplication, Workload, get_app


@pytest.fixture()
def papp():
    return ParallelApplication(worker=get_app("crafty"), n_threads=4)


class TestParallelApplication:
    def test_iteration_time_set_by_slowest(self, papp):
        uniform = papp.iteration_time_s([3e9] * 4)
        skewed = papp.iteration_time_s([3e9, 3e9, 3e9, 2e9])
        assert skewed > uniform
        assert skewed == pytest.approx(
            papp.worker_time_s(2e9) + papp.barrier_overhead_s)

    def test_throughput_scales_with_workers(self):
        small = ParallelApplication(get_app("crafty"), n_threads=2)
        big = ParallelApplication(get_app("crafty"), n_threads=4)
        tp2 = small.throughput_ips([3e9] * 2)
        tp4 = big.throughput_ips([3e9] * 4)
        assert tp4 == pytest.approx(2 * tp2, rel=1e-9)

    def test_slack_zero_when_uniform(self, papp):
        assert papp.slack_fraction([2.5e9] * 4) == pytest.approx(0.0)

    def test_slack_positive_when_skewed(self, papp):
        assert papp.slack_fraction([3e9, 3e9, 3e9, 2e9]) > 0.05

    def test_validation(self):
        with pytest.raises(ValueError):
            ParallelApplication(get_app("crafty"), n_threads=0)
        with pytest.raises(ValueError):
            ParallelApplication(get_app("crafty"), 4,
                                instructions_per_barrier=0)
        papp = ParallelApplication(get_app("crafty"), 2)
        with pytest.raises(ValueError):
            papp.iteration_time_s([3e9])  # wrong worker count
        with pytest.raises(ValueError):
            papp.worker_time_s(0.0)


class TestBarrierAwarePm:
    @pytest.fixture()
    def setup(self, chip, rng):
        wl = Workload(tuple(get_app("crafty") for _ in range(8)))
        asg = VarF().assign(chip, wl, rng)
        return wl, asg

    def test_levels_for_pace_monotone(self, chip, setup):
        _, asg = setup
        slow = levels_for_pace(chip, asg, 1.0e9)
        fast = levels_for_pace(chip, asg, 3.0e9)
        assert all(a <= b for a, b in zip(slow, fast))

    def test_unreachable_pace_pins_to_top(self, chip, setup):
        _, asg = setup
        levels = levels_for_pace(chip, asg, 100e9)
        tops = [chip.cores[c].vf_table.n_levels - 1
                for c in asg.core_of]
        assert levels == tops

    def test_meets_budget(self, chip, setup):
        wl, asg = setup
        res = BarrierAwarePm().set_levels(chip, wl, asg,
                                          COST_PERFORMANCE)
        p_target = COST_PERFORMANCE.p_target(8, chip.n_cores)
        assert res.state.total_power <= p_target + 1e-6

    def test_equalises_pace_with_generous_budget(self, chip, setup):
        wl, asg = setup
        generous = PowerEnvironment("Generous", 400.0, p_core_max=50.0)
        res = BarrierAwarePm().set_levels(chip, wl, asg, generous)
        papp = ParallelApplication(get_app("crafty"), n_threads=8)
        slack = papp.slack_fraction(res.state.freqs)
        # Frequencies quantised to table levels: small residual slack.
        assert slack < 0.06

    def test_saves_power_vs_max_levels(self, chip, setup):
        wl, asg = setup
        generous = PowerEnvironment("Generous", 400.0, p_core_max=50.0)
        res = BarrierAwarePm().set_levels(chip, wl, asg, generous)
        maxed = evaluate_max_levels(chip, wl, asg)
        assert res.state.total_power < maxed.total_power


class TestNbtiModel:
    def test_shift_grows_sublinearly_with_time(self):
        a = delta_vth(SECONDS_PER_MONTH, 360.0, 1.0, 1.0)
        b = delta_vth(4 * SECONDS_PER_MONTH, 360.0, 1.0, 1.0)
        assert a < b < 4 * a

    def test_hotter_ages_faster(self):
        cool = delta_vth(SECONDS_PER_MONTH, 330.0, 1.0, 1.0)
        hot = delta_vth(SECONDS_PER_MONTH, 380.0, 1.0, 1.0)
        assert hot > cool

    def test_higher_voltage_ages_faster(self):
        lo = delta_vth(SECONDS_PER_MONTH, 360.0, 0.8, 1.0)
        hi = delta_vth(SECONDS_PER_MONTH, 360.0, 1.0, 1.0)
        assert hi > lo

    def test_zero_duty_no_aging(self):
        assert delta_vth(SECONDS_PER_MONTH, 360.0, 1.0, 0.0) == 0.0

    def test_three_year_guard_band_scale(self):
        # Calibration anchor: ~30 mV after 3 years at reference stress.
        shift = delta_vth(36 * SECONDS_PER_MONTH, 353.15, 1.0, 1.0)
        assert 0.02 < shift < 0.045

    def test_equivalent_time_round_trip(self):
        shift = delta_vth(7 * SECONDS_PER_MONTH, 365.0, 0.95, 0.8)
        t_eq = equivalent_stress_time(shift, 365.0, 0.95, 0.8)
        assert t_eq == pytest.approx(7 * SECONDS_PER_MONTH, rel=1e-6)

    def test_accumulation_is_order_consistent(self):
        # One long epoch equals two half epochs at equal conditions.
        one = AgingState(1)
        one.apply_epoch(10 * SECONDS_PER_MONTH, [1.0], [365.0], [1.0])
        two = AgingState(1)
        for _ in range(2):
            two.apply_epoch(5 * SECONDS_PER_MONTH, [1.0], [365.0],
                            [1.0])
        assert one.shifts[0] == pytest.approx(two.shifts[0], rel=1e-6)

    def test_validation(self):
        with pytest.raises(ValueError):
            delta_vth(-1.0, 360.0, 1.0, 1.0)
        with pytest.raises(ValueError):
            delta_vth(1.0, 360.0, 1.0, 1.5)
        with pytest.raises(ValueError):
            AgingState(0)
        with pytest.raises(ValueError):
            NbtiParams(amplitude=-1.0)


class TestAgedChip:
    def test_aging_slows_and_unleaks(self, chip):
        shifts = np.full(chip.n_cores, 0.030)
        old = aged_chip(chip, shifts)
        assert np.all(old.fmax_array < chip.fmax_array)
        assert np.all(old.static_rated_array
                      < chip.static_rated_array)

    def test_zero_shift_is_identity(self, chip):
        same = aged_chip(chip, np.zeros(chip.n_cores))
        np.testing.assert_allclose(same.fmax_array, chip.fmax_array)

    def test_selective_aging_levels_the_spread(self, chip):
        # Age only the fastest half of the cores: spread must shrink.
        shifts = np.zeros(chip.n_cores)
        fast_half = np.argsort(chip.fmax_array)[::-1][: chip.n_cores // 2]
        shifts[fast_half] = 0.030
        old = aged_chip(chip, shifts)
        new_ratio = old.fmax_array.max() / old.fmax_array.min()
        orig_ratio = chip.fmax_array.max() / chip.fmax_array.min()
        assert new_ratio < orig_ratio

    def test_rejects_negative_shift(self, chip):
        shifts = np.zeros(chip.n_cores)
        shifts[0] = -0.01
        with pytest.raises(ValueError):
            aged_chip(chip, shifts)

    def test_rejects_wrong_length(self, chip):
        with pytest.raises(ValueError):
            aged_chip(chip, np.zeros(3))


class TestAgingPlusAbb:
    """Field-recalibration scenario: an aged chip is re-levelled with
    body bias, recovering part of the lost frequency floor."""

    def test_abb_recovers_aged_floor(self, chip):
        from repro.mitigation import (biased_chip,
                                      frequency_levelling_biases)
        shifts = np.full(chip.n_cores, 0.020)
        old = aged_chip(chip, shifts)
        assert old.min_fmax < chip.min_fmax
        biases = frequency_levelling_biases(old)
        recovered = biased_chip(old, biases)
        # Forward bias on the slow cores lifts the UniFreq floor back.
        assert recovered.min_fmax > old.min_fmax

    def test_selective_aging_then_levelling_is_tightest(self, chip):
        from repro.mitigation import (biased_chip,
                                      frequency_levelling_biases)
        # Age the fast half (the VarF usage pattern), then level.
        shifts = np.zeros(chip.n_cores)
        fast = np.argsort(chip.fmax_array)[::-1][: chip.n_cores // 2]
        shifts[fast] = 0.020
        old = aged_chip(chip, shifts)
        levelled = biased_chip(old, frequency_levelling_biases(old))
        ratios = [
            chip.fmax_array.max() / chip.fmax_array.min(),
            old.fmax_array.max() / old.fmax_array.min(),
            levelled.fmax_array.max() / levelled.fmax_array.min(),
        ]
        # fresh > aged > aged+ABB in spread.
        assert ratios[0] > ratios[1] > ratios[2]
