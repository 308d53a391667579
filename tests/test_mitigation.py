"""Tests for the adaptive-body-bias mitigation module."""

import numpy as np
import pytest

from repro.mitigation import (
    AbbParams,
    bias_for_target_frequency,
    biased_chip,
    frequency_levelling_biases,
)


class TestAbbParams:
    def test_defaults(self):
        p = AbbParams()
        assert p.vth_shift_per_volt * p.max_bias == pytest.approx(0.05)

    def test_validation(self):
        with pytest.raises(ValueError):
            AbbParams(vth_shift_per_volt=0.0)
        with pytest.raises(ValueError):
            AbbParams(max_bias=-1.0)


class TestBiasedChip:
    def test_forward_bias_speeds_up_and_leaks(self, chip):
        biases = np.full(chip.n_cores, 0.5)  # full forward
        fast = biased_chip(chip, biases)
        assert np.all(fast.fmax_array > chip.fmax_array)
        assert np.all(fast.static_rated_array
                      > chip.static_rated_array)

    def test_reverse_bias_slows_and_saves(self, chip):
        biases = np.full(chip.n_cores, -0.5)
        slow = biased_chip(chip, biases)
        assert np.all(slow.fmax_array < chip.fmax_array)
        assert np.all(slow.static_rated_array
                      < chip.static_rated_array)

    def test_zero_bias_is_identity(self, chip):
        same = biased_chip(chip, np.zeros(chip.n_cores))
        np.testing.assert_allclose(same.fmax_array, chip.fmax_array)

    def test_out_of_range_rejected(self, chip):
        biases = np.zeros(chip.n_cores)
        biases[3] = 0.6
        with pytest.raises(ValueError):
            biased_chip(chip, biases)

    def test_wrong_length_rejected(self, chip):
        with pytest.raises(ValueError):
            biased_chip(chip, np.zeros(3))


class TestBiasForTarget:
    def test_hits_reachable_target(self, chip):
        core = chip.cores[0]
        target = core.fmax * 0.95
        bias = bias_for_target_frequency(core, target,
                                         chip.tech.vdd_max)
        dv = -AbbParams().vth_shift_per_volt * bias
        achieved = core.freq_model.shifted(dv).fmax(chip.tech.vdd_max)
        assert achieved == pytest.approx(target, rel=0.01)

    def test_unreachable_target_clips_forward(self, chip):
        core = chip.cores[0]
        bias = bias_for_target_frequency(core, 100e9,
                                         chip.tech.vdd_max)
        assert bias == pytest.approx(AbbParams().max_bias)

    def test_trivial_target_clips_reverse(self, chip):
        core = chip.cores[0]
        bias = bias_for_target_frequency(core, 1e6,
                                         chip.tech.vdd_max)
        assert bias == pytest.approx(-AbbParams().max_bias)

    def test_rejects_bad_target(self, chip):
        with pytest.raises(ValueError):
            bias_for_target_frequency(chip.cores[0], -1.0,
                                      chip.tech.vdd_max)


class TestFrequencyLevelling:
    def test_shrinks_spread(self, chip):
        biases = frequency_levelling_biases(chip)
        levelled = biased_chip(chip, biases)
        before = chip.fmax_array.max() / chip.fmax_array.min()
        after = levelled.fmax_array.max() / levelled.fmax_array.min()
        assert after < before

    def test_slow_cores_get_forward_bias(self, chip):
        biases = frequency_levelling_biases(chip)
        slowest = int(np.argmin(chip.fmax_array))
        fastest = int(np.argmax(chip.fmax_array))
        assert biases[slowest] > 0
        assert biases[fastest] < 0

    def test_cores_land_near_median(self, chip):
        target = float(np.median(chip.fmax_array))
        biases = frequency_levelling_biases(chip)
        levelled = biased_chip(chip, biases)
        # Most cores should now sit near the target (within bias range).
        close = np.abs(levelled.fmax_array - target) / target < 0.05
        assert close.mean() > 0.5
