"""Tests for repro.config."""

import dataclasses

import pytest

from repro.config import (
    ArchConfig,
    COST_PERFORMANCE,
    DEFAULT_ARCH,
    DEFAULT_TECH,
    HIGH_PERFORMANCE,
    LOW_POWER,
    POWER_ENVIRONMENTS,
    PowerEnvironment,
    TechParams,
    celsius,
)


class TestTemperatureHelpers:
    def test_kelvin_roundtrip(self):
        assert celsius(60.0 + 273.15) == pytest.approx(60.0)

    def test_kelvin_of_zero_celsius(self):
        assert celsius(273.15) == pytest.approx(0.0)


class TestTechParams:
    def test_defaults_match_table4(self):
        t = DEFAULT_TECH
        assert t.node_nm == 32.0
        assert t.vdd_min == 0.6
        assert t.vdd_max == 1.0
        assert t.vth_mean == pytest.approx(0.250)
        assert t.vth_sigma_over_mu == pytest.approx(0.12)
        assert t.phi_fraction == pytest.approx(0.5)

    def test_leff_sigma_is_half_of_vth(self):
        assert DEFAULT_TECH.leff_sigma_over_mu == pytest.approx(
            0.5 * DEFAULT_TECH.vth_sigma_over_mu)

    def test_vth_sigma_absolute(self):
        t = DEFAULT_TECH
        assert t.vth_sigma == pytest.approx(t.vth_mean * 0.12)

    def test_with_sigma_over_mu_scales_both(self):
        t = DEFAULT_TECH.with_sigma_over_mu(0.06)
        assert t.vth_sigma_over_mu == pytest.approx(0.06)
        assert t.leff_sigma_over_mu == pytest.approx(0.03)

    def test_with_sigma_over_mu_preserves_other_fields(self):
        t = DEFAULT_TECH.with_sigma_over_mu(0.06)
        assert t.vth_mean == DEFAULT_TECH.vth_mean
        assert t.alpha_power == DEFAULT_TECH.alpha_power

    def test_rejects_negative_sigma(self):
        with pytest.raises(ValueError):
            TechParams(vth_sigma_over_mu=-0.1)

    def test_rejects_inverted_vdd_range(self):
        with pytest.raises(ValueError):
            TechParams(vdd_min=1.1, vdd_max=1.0)

    def test_rejects_vth_above_vdd_min(self):
        with pytest.raises(ValueError):
            TechParams(vth_mean=0.7, vdd_min=0.6)

    def test_rejects_bad_phi(self):
        with pytest.raises(ValueError):
            TechParams(phi_fraction=0.0)
        with pytest.raises(ValueError):
            TechParams(phi_fraction=1.5)

    def test_frozen(self):
        with pytest.raises(dataclasses.FrozenInstanceError):
            DEFAULT_TECH.vdd_max = 1.2


class TestArchConfig:
    def test_defaults_match_table4(self):
        a = DEFAULT_ARCH
        assert a.n_cores == 20
        assert a.freq_nominal_hz == pytest.approx(4.0e9)
        assert a.die_area_mm2 == pytest.approx(340.0)
        assert a.memory_latency_cycles == 400

    def test_die_edge(self):
        assert DEFAULT_ARCH.die_edge_mm == pytest.approx(340.0 ** 0.5)

    def test_rejects_bad_core_count(self):
        with pytest.raises(ValueError):
            ArchConfig(n_cores=0)

    def test_rejects_too_few_levels(self):
        with pytest.raises(ValueError):
            ArchConfig(n_voltage_levels=1)

    def test_rejects_tiny_grid(self):
        with pytest.raises(ValueError):
            ArchConfig(grid_resolution=4)


class TestPowerEnvironment:
    def test_three_environments(self):
        assert [e.p_target_full for e in POWER_ENVIRONMENTS] == [
            50.0, 75.0, 100.0]

    def test_names(self):
        assert LOW_POWER.name == "Low Power"
        assert COST_PERFORMANCE.name == "Cost-Performance"
        assert HIGH_PERFORMANCE.name == "High Performance"

    def test_full_occupancy_budget(self):
        assert COST_PERFORMANCE.p_target(20, 20) == pytest.approx(75.0)

    def test_budget_scales_proportionally(self):
        # Section 7.5: fewer threads -> proportionally smaller budget.
        assert COST_PERFORMANCE.p_target(4, 20) == pytest.approx(15.0)
        assert LOW_POWER.p_target(10, 20) == pytest.approx(25.0)

    def test_rejects_zero_threads(self):
        with pytest.raises(ValueError):
            LOW_POWER.p_target(0, 20)

    def test_rejects_oversubscription(self):
        with pytest.raises(ValueError):
            LOW_POWER.p_target(21, 20)
