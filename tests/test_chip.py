"""Tests for repro.chip (die characterisation)."""

import numpy as np
import pytest

from repro.chip import characterize_dies
from repro.config import ArchConfig, DEFAULT_ARCH, DEFAULT_TECH, T_REF_K
from repro.floorplan import build_floorplan


class TestChipProfile:
    def test_core_count(self, chip):
        assert chip.n_cores == 20
        assert len(chip.cores) == 20

    def test_fmax_spread_in_paper_band(self, chip, chip2):
        # Section 7.1: frequency ratio mostly 1.2-1.5 at sigma/mu 0.12.
        for c in (chip, chip2):
            ratio = c.fmax_array.max() / c.fmax_array.min()
            assert 1.10 < ratio < 1.65

    def test_fmax_below_nominal(self, chip):
        assert np.all(chip.fmax_array <= DEFAULT_ARCH.freq_nominal_hz)

    def test_min_fmax(self, chip):
        assert chip.min_fmax == pytest.approx(chip.fmax_array.min())

    def test_static_ratings_positive_and_spread(self, chip):
        rated = chip.static_rated_array
        assert np.all(rated > 0)
        assert rated.max() / rated.min() > 1.5  # variation is visible

    def test_vf_tables_consistent_with_fmax(self, chip):
        for core in chip.cores:
            assert core.fmax == core.vf_table.fmax

    def test_static_power_at_voltage_monotone(self, chip):
        core = chip.cores[0]
        p_lo = core.static_power_at(0.6)
        p_hi = core.static_power_at(1.0)
        assert p_hi > p_lo

    def test_rated_matches_leakage_model(self, chip):
        core = chip.cores[3]
        assert core.static_power_rated == pytest.approx(
            core.leakage.power(DEFAULT_TECH.vdd_max, T_REF_K))

    def test_characterisation_deterministic(self, die_batch):
        a = characterize_dies([die_batch[0]], DEFAULT_TECH, DEFAULT_ARCH)[0]
        b = characterize_dies([die_batch[0]], DEFAULT_TECH, DEFAULT_ARCH)[0]
        np.testing.assert_array_equal(a.fmax_array, b.fmax_array)
        np.testing.assert_array_equal(a.static_rated_array,
                                      b.static_rated_array)

    def test_dies_differ(self, chip, chip2):
        assert not np.array_equal(chip.fmax_array, chip2.fmax_array)

    def test_fmax_array_cached_and_readonly(self, chip):
        first = chip.fmax_array
        assert chip.fmax_array is first  # built once, reused
        assert not first.flags.writeable
        np.testing.assert_array_equal(
            first, np.array([c.fmax for c in chip.cores]))

    def test_static_rated_array_cached_and_readonly(self, chip):
        first = chip.static_rated_array
        assert chip.static_rated_array is first
        assert not first.flags.writeable
        np.testing.assert_array_equal(
            first,
            np.array([c.static_power_rated for c in chip.cores]))

    def test_mismatched_floorplan_rejected(self, die_batch):
        small_fp = build_floorplan(ArchConfig(n_cores=8,
                                              die_area_mm2=140.0))
        with pytest.raises(ValueError):
            characterize_dies([die_batch[0]], DEFAULT_TECH, DEFAULT_ARCH,
                              floorplan=small_fp)

    def test_lower_sigma_gives_tighter_spread(self, die_batch):
        tight_tech = DEFAULT_TECH.with_sigma_over_mu(0.03)
        from repro.variation import DieBatch
        tight_batch = DieBatch(tight_tech, DEFAULT_ARCH, 1, seed=1234)
        tight = characterize_dies([tight_batch[0]], tight_tech,
                                  DEFAULT_ARCH)[0]
        loose = characterize_dies([die_batch[0]], DEFAULT_TECH,
                                  DEFAULT_ARCH)[0]
        tight_ratio = tight.fmax_array.max() / tight.fmax_array.min()
        loose_ratio = loose.fmax_array.max() / loose.fmax_array.min()
        assert tight_ratio < loose_ratio
