"""Tests for repro.power (dynamic, leakage, sensors, scaling)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import DEFAULT_ARCH, DEFAULT_TECH, T_HOT_K, T_REF_K
from repro.floorplan import build_floorplan
from repro.power import (
    CORE_STATIC_NOMINAL_W,
    CoreLeakageModel,
    IpcSensor,
    L2LeakageModel,
    L2_STATIC_NOMINAL_W,
    PowerSensor,
    SensorSpec,
    ceff_from_reference,
    leakage_calibration,
    leakage_factor,
    subthreshold_slope_factor,
)
from repro.variation import generate_variation_maps
from repro.workloads import AppProfile
from tests.references import build_core_leakage


def _app(dynamic_power_ref):
    """A profile whose Table 5 power is ``dynamic_power_ref`` W."""
    return AppProfile("x", dynamic_power_ref, 1.0, 0.1)


class TestDynamicPower:
    """``P = Ceff * V^2 * f`` as the pipeline evaluates it
    (:meth:`AppProfile.dynamic_power_at`)."""

    def test_formula(self):
        app = _app(0.4)
        assert app.ceff == pytest.approx(1e-10)
        assert app.dynamic_power_at(1.0, 4e9) == pytest.approx(0.4)

    def test_quadratic_in_voltage(self):
        p1 = _app(0.4).dynamic_power_at(0.5, 4e9)
        p2 = _app(0.4).dynamic_power_at(1.0, 4e9)
        assert p2 == pytest.approx(4 * p1)

    def test_linear_in_frequency(self):
        p1 = _app(0.4).dynamic_power_at(1.0, 2e9)
        p2 = _app(0.4).dynamic_power_at(1.0, 4e9)
        assert p2 == pytest.approx(2 * p1)

    def test_rejects_negative_ceff(self):
        # Ceff comes from the Table 5 power, which must be positive.
        with pytest.raises(ValueError):
            _app(-0.4)

    def test_ceff_round_trip(self):
        ceff = ceff_from_reference(3.7, 1.0, 4e9)
        assert ceff * 1.0 ** 2 * 4e9 == pytest.approx(3.7)


class TestLeakageFactor:
    def test_increases_with_temperature(self):
        lo = leakage_factor(1.0, 0.25, T_REF_K, DEFAULT_TECH)
        hi = leakage_factor(1.0, 0.25, T_HOT_K, DEFAULT_TECH)
        assert hi > lo

    def test_increases_with_voltage_superlinearly(self):
        # DIBL makes P_static more than linear in V (Section 4.3.1).
        p06 = leakage_factor(0.6, 0.25, T_REF_K, DEFAULT_TECH)
        p10 = leakage_factor(1.0, 0.25, T_REF_K, DEFAULT_TECH)
        assert p10 / p06 > 1.0 / 0.6

    def test_decreases_with_vth(self):
        lo_vth = leakage_factor(1.0, 0.20, T_REF_K, DEFAULT_TECH)
        hi_vth = leakage_factor(1.0, 0.30, T_REF_K, DEFAULT_TECH)
        assert lo_vth > hi_vth

    def test_exponential_vth_sensitivity(self):
        # 30 mV of Vth should change leakage by a large factor.
        a = leakage_factor(1.0, 0.25, T_REF_K, DEFAULT_TECH)
        b = leakage_factor(1.0, 0.22, T_REF_K, DEFAULT_TECH)
        assert b / a > 1.5

    def test_rejects_non_positive_temperature(self):
        with pytest.raises(ValueError):
            leakage_factor(1.0, 0.25, 0.0, DEFAULT_TECH)

    def test_slope_factor_reasonable(self):
        n = subthreshold_slope_factor(DEFAULT_TECH)
        assert 1.0 < n < 2.5

    @given(st.floats(min_value=0.6, max_value=1.0),
           st.floats(min_value=300.0, max_value=400.0))
    @settings(max_examples=30)
    def test_always_positive(self, vdd, t):
        assert leakage_factor(vdd, 0.25, t, DEFAULT_TECH) > 0


class TestCoreLeakageModel:
    def _model(self, vth_values):
        vth = np.asarray(vth_values, dtype=float)
        weights = np.full(vth.size, 1.0 / vth.size)
        calib = leakage_calibration(DEFAULT_TECH)
        return CoreLeakageModel(vth, weights, DEFAULT_TECH, calib)

    def test_nominal_calibration(self):
        model = self._model([DEFAULT_TECH.vth_mean])
        assert model.power(DEFAULT_TECH.vdd_nominal,
                           T_REF_K) == pytest.approx(CORE_STATIC_NOMINAL_W)

    def test_low_vth_core_leaks_more(self):
        low = self._model([0.22])
        high = self._model([0.28])
        assert low.power(1.0, T_REF_K) > high.power(1.0, T_REF_K)

    def test_variation_raises_mean_leakage(self):
        # exp is convex: a symmetric Vth spread leaks more than nominal.
        mu = DEFAULT_TECH.vth_mean
        spread = self._model([mu - 0.03, mu + 0.03])
        nominal = self._model([mu])
        assert spread.power(1.0, T_REF_K) > nominal.power(1.0, T_REF_K)

    def test_weights_respected(self):
        mu = DEFAULT_TECH.vth_mean
        calib = leakage_calibration(DEFAULT_TECH)
        vth = np.array([mu - 0.03, mu + 0.03])
        heavy_low = CoreLeakageModel(vth, np.array([0.9, 0.1]),
                                     DEFAULT_TECH, calib)
        heavy_high = CoreLeakageModel(vth, np.array([0.1, 0.9]),
                                      DEFAULT_TECH, calib)
        assert heavy_low.power(1.0, T_REF_K) > heavy_high.power(1.0, T_REF_K)

    def test_rejects_empty_units(self):
        with pytest.raises(ValueError):
            CoreLeakageModel(np.array([]), np.array([]), DEFAULT_TECH, 1.0)

    def test_rejects_empty_cells(self):
        # Every cell needs a weight: a cell array and a weight array
        # of different lengths (or ranks) is not a core.
        with pytest.raises(ValueError):
            CoreLeakageModel(np.array([0.25, 0.26]), np.array([1.0]),
                             DEFAULT_TECH, 1.0)
        with pytest.raises(ValueError):
            CoreLeakageModel(np.ones((2, 2)), np.ones((2, 2)),
                             DEFAULT_TECH, 1.0)

    def test_rejects_non_positive_calibration(self):
        with pytest.raises(ValueError):
            CoreLeakageModel(np.array([0.25]), np.array([1.0]),
                             DEFAULT_TECH, 0.0)

    def test_shifted_keeps_weights_and_moves_every_cell(self):
        model = self._model([0.24, 0.26])
        shifted = model.shifted(0.01)
        assert shifted.cell_weights is model.cell_weights
        np.testing.assert_array_equal(shifted.cell_vth,
                                      model.cell_vth + 0.01)
        assert shifted.power(1.0, T_REF_K) < model.power(1.0, T_REF_K)


class TestBuiltLeakageModels:
    @pytest.fixture(scope="class")
    def vmap(self):
        return generate_variation_maps(
            DEFAULT_TECH, DEFAULT_ARCH.die_edge_mm, 32,
            [np.random.default_rng(5)])[0]

    @pytest.fixture(scope="class")
    def floorplan(self):
        return build_floorplan(DEFAULT_ARCH)

    def test_core_leakage_in_sane_range(self, vmap, floorplan):
        model = build_core_leakage(vmap, floorplan, 0, DEFAULT_TECH)
        p = model.power(1.0, T_REF_K)
        assert 0.1 * CORE_STATIC_NOMINAL_W < p < 10 * CORE_STATIC_NOMINAL_W

    def test_cores_differ(self, vmap, floorplan):
        p = [build_core_leakage(vmap, floorplan, c,
                                DEFAULT_TECH).power(1.0, T_REF_K)
             for c in range(4)]
        assert max(p) > min(p)

    def test_l2_blocks_sum_to_uniform_total(self, vmap, floorplan):
        l2 = L2LeakageModel(vmap, floorplan, DEFAULT_TECH)
        total = l2.power_per_block(np.full(l2.n_blocks, T_REF_K)).sum()
        # Each block leaks at its own temperature: read block i from a
        # call that heats every other block.
        per_block = []
        for i in range(l2.n_blocks):
            temps = np.full(l2.n_blocks, T_REF_K + 30.0)
            temps[i] = T_REF_K
            per_block.append(l2.power_per_block(temps)[i])
        assert sum(per_block) == pytest.approx(total)

    def test_l2_nominal_scale(self, vmap, floorplan):
        l2 = L2LeakageModel(vmap, floorplan, DEFAULT_TECH)
        p = l2.power_per_block(np.full(l2.n_blocks, T_REF_K)).sum()
        assert 0.3 * L2_STATIC_NOMINAL_W < p < 5 * L2_STATIC_NOMINAL_W

    def test_l2_block_count_validation(self, vmap, floorplan):
        l2 = L2LeakageModel(vmap, floorplan, DEFAULT_TECH)
        with pytest.raises(ValueError):
            l2.power_per_block(np.array([T_REF_K]))


class TestSensors:
    def test_noise_free_transparent(self):
        assert PowerSensor().read(3.14) == pytest.approx(3.14)
        assert IpcSensor().read(0.7) == pytest.approx(0.7)

    def test_quantisation(self):
        s = PowerSensor(SensorSpec(quantum=0.5))
        assert s.read(3.14) == pytest.approx(3.0)
        assert s.read(3.30) == pytest.approx(3.5)

    def test_noise_is_reproducible(self):
        a = PowerSensor(SensorSpec(noise_sigma=0.1),
                        np.random.default_rng(3))
        b = PowerSensor(SensorSpec(noise_sigma=0.1),
                        np.random.default_rng(3))
        assert a.read(5.0) == b.read(5.0)

    def test_noise_changes_reading(self):
        s = PowerSensor(SensorSpec(noise_sigma=0.5),
                        np.random.default_rng(4))
        readings = {s.read(5.0) for _ in range(5)}
        assert len(readings) > 1

    def test_power_sensor_clamps_at_zero(self):
        s = PowerSensor(SensorSpec(noise_sigma=10.0),
                        np.random.default_rng(0))
        assert min(s.read(0.01) for _ in range(50)) >= 0.0

    def test_rejects_negative_spec(self):
        with pytest.raises(ValueError):
            SensorSpec(noise_sigma=-1.0)
