"""Tests for repro.freq (alpha-power delay, SRAM, critical paths,
V/f tables)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import DEFAULT_ARCH, DEFAULT_TECH, T_HOT_K, T_REF_K
from repro.freq import (
    CoreFrequencyModel,
    FREQ_QUANTUM_HZ,
    PathSet,
    VFTable,
    build_vf_table,
    frequency_calibration,
    gate_delay,
    mobility_factor,
    pareto_prune,
    vth_at_temperature,
    worst_cell_quantile,
)
from repro.floorplan import build_floorplan
from repro.variation import generate_variation_maps
from tests.references import extract_core_paths


class TestAlphaPower:
    def test_delay_decreases_with_voltage(self):
        t = DEFAULT_TECH
        d_lo = gate_delay(0.7, t.vth_mean, t.leff_mean, t)
        d_hi = gate_delay(1.0, t.vth_mean, t.leff_mean, t)
        assert d_hi < d_lo

    def test_delay_increases_with_vth(self):
        t = DEFAULT_TECH
        assert gate_delay(1.0, 0.30, t.leff_mean, t) > gate_delay(
            1.0, 0.25, t.leff_mean, t)

    def test_delay_proportional_to_leff(self):
        t = DEFAULT_TECH
        d1 = gate_delay(1.0, t.vth_mean, 32e-9, t)
        d2 = gate_delay(1.0, t.vth_mean, 64e-9, t)
        assert d2 == pytest.approx(2 * d1)

    def test_hotter_is_slower(self):
        # Mobility loss dominates the Vth drop at V >> Vth.
        t = DEFAULT_TECH
        d_cold = gate_delay(1.0, t.vth_mean, t.leff_mean, t, T_REF_K)
        d_hot = gate_delay(1.0, t.vth_mean, t.leff_mean, t, T_HOT_K)
        assert d_hot > d_cold

    def test_subthreshold_rejected(self):
        t = DEFAULT_TECH
        with pytest.raises(ValueError):
            gate_delay(0.2, 0.25, t.leff_mean, t)

    def test_vth_falls_with_temperature(self):
        t = DEFAULT_TECH
        assert vth_at_temperature(0.25, T_HOT_K, t) < 0.25

    def test_mobility_factor_reference(self):
        assert mobility_factor(T_REF_K) == pytest.approx(1.0)
        assert mobility_factor(T_HOT_K) > 1.0

    def test_broadcasting(self):
        t = DEFAULT_TECH
        d = gate_delay(np.array([0.8, 0.9, 1.0]), t.vth_mean,
                       t.leff_mean, t)
        assert d.shape == (3,)
        assert np.all(np.diff(d) < 0)


class TestSram:
    def test_worst_cell_quantile_monotone(self):
        assert worst_cell_quantile(100) < worst_cell_quantile(10_000)

    def test_worst_cell_quantile_single_cell(self):
        # E[max of 1 draw] ~ Phi^-1(0.5) = 0
        assert worst_cell_quantile(1) == pytest.approx(0.0, abs=1e-9)

    def test_rejects_zero_cells(self):
        with pytest.raises(ValueError):
            worst_cell_quantile(0)

    def test_sram_slower_than_plain_gate(self):
        t = DEFAULT_TECH
        plain = gate_delay(1.0, t.vth_mean, t.leff_mean, t, T_HOT_K)
        # An SRAM stage is a gate at its weakest cell's Vth, as the
        # binning kernel builds it.
        vth_worst = t.vth_mean + worst_cell_quantile() * (
            t.vth_sigma / np.sqrt(2.0))
        sram = gate_delay(1.0, vth_worst, t.leff_mean, t, T_HOT_K)
        assert sram > plain


class TestPathSet:
    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            PathSet(vth=np.array([]), leff=np.array([]))

    def test_rejects_mismatched(self):
        with pytest.raises(ValueError):
            PathSet(vth=np.array([0.25]), leff=np.array([32e-9, 33e-9]))


class TestParetoPrune:
    def test_prunes_dominated(self):
        paths = PathSet(vth=np.array([0.25, 0.30, 0.20]),
                        leff=np.array([30e-9, 35e-9, 20e-9]))
        pruned = pareto_prune(paths)
        # (0.30, 35n) dominates both others.
        assert pruned.vth.size == 1
        assert pruned.vth[0] == pytest.approx(0.30)

    def test_keeps_incomparable(self):
        paths = PathSet(vth=np.array([0.30, 0.20]),
                        leff=np.array([20e-9, 40e-9]))
        pruned = pareto_prune(paths)
        assert pruned.vth.size == 2

    @staticmethod
    def _loop_reference(paths: PathSet) -> PathSet:
        """The original per-path loop, kept as the regression oracle
        for the vectorised keep-mask implementation."""
        order = np.argsort(paths.vth)[::-1]
        vth = paths.vth[order]
        leff = paths.leff[order]
        keep = []
        best_leff = -np.inf
        for i in range(vth.size):
            if leff[i] > best_leff:
                keep.append(i)
                best_leff = leff[i]
        idx = np.array(keep, dtype=np.intp)
        return PathSet(vth=vth[idx], leff=leff[idx])

    @given(st.integers(min_value=1, max_value=80),
           st.integers(min_value=0, max_value=2000),
           st.booleans())
    @settings(max_examples=60, deadline=None)
    def test_matches_loop_reference(self, n, seed, quantize):
        """Vectorised prune == loop prune, including tie-heavy inputs.

        ``quantize`` rounds values onto a coarse grid so duplicate vth
        (argsort tie-breaking) and duplicate leff (strict-> comparison
        on equal values) both occur often.
        """
        rng = np.random.default_rng(seed)
        vth = 0.25 + 0.03 * rng.standard_normal(n)
        leff = 32e-9 * (1 + 0.1 * rng.standard_normal(n))
        if quantize:
            vth = np.round(vth, 2)
            leff = np.round(leff, 9)
        paths = PathSet(vth=vth, leff=leff)
        expected = self._loop_reference(paths)
        got = pareto_prune(paths)
        np.testing.assert_array_equal(got.vth, expected.vth)
        np.testing.assert_array_equal(got.leff, expected.leff)

    def test_matches_loop_reference_all_equal(self):
        """All-tied input: exactly one survivor, same as the loop."""
        paths = PathSet(vth=np.full(7, 0.25), leff=np.full(7, 32e-9))
        expected = self._loop_reference(paths)
        got = pareto_prune(paths)
        assert got.vth.size == expected.vth.size == 1
        np.testing.assert_array_equal(got.vth, expected.vth)
        np.testing.assert_array_equal(got.leff, expected.leff)

    @given(st.integers(min_value=1, max_value=60),
           st.integers(min_value=0, max_value=1000))
    @settings(max_examples=30, deadline=None)
    def test_pruned_set_preserves_critical_delay(self, n, seed):
        """The pruned set must yield the same max delay at every (V, T)."""
        rng = np.random.default_rng(seed)
        paths = PathSet(
            vth=0.25 + 0.03 * rng.standard_normal(n),
            leff=32e-9 * (1 + 0.1 * rng.standard_normal(n)))
        paths = PathSet(vth=np.clip(paths.vth, 0.05, 0.45),
                        leff=np.clip(paths.leff, 5e-9, 80e-9))
        pruned = pareto_prune(paths)
        for vdd in (0.6, 0.8, 1.0):
            for t_k in (T_REF_K, T_HOT_K):
                full = gate_delay(vdd, paths.vth, paths.leff,
                                  DEFAULT_TECH, t_k).max()
                kept = gate_delay(vdd, pruned.vth, pruned.leff,
                                  DEFAULT_TECH, t_k).max()
                assert kept == pytest.approx(full)


class TestCoreFrequencyModel:
    def _nominal_model(self):
        paths = PathSet(vth=np.array([DEFAULT_TECH.vth_mean]),
                        leff=np.array([DEFAULT_TECH.leff_mean]))
        calib = frequency_calibration(DEFAULT_TECH, DEFAULT_ARCH)
        return CoreFrequencyModel(paths, DEFAULT_TECH, calib)

    def test_variation_free_core_hits_nominal(self):
        model = self._nominal_model()
        assert model.fmax(DEFAULT_TECH.vdd_max) == pytest.approx(
            DEFAULT_ARCH.freq_nominal_hz)

    def test_fmax_increases_with_voltage(self):
        model = self._nominal_model()
        f = model.fmax_many(np.linspace(0.6, 1.0, 9))
        assert np.all(np.diff(f) > 0)

    def test_fmax_many_matches_scalar(self):
        model = self._nominal_model()
        volts = np.array([0.7, 0.9])
        many = model.fmax_many(volts)
        assert many[0] == pytest.approx(model.fmax(0.7))
        assert many[1] == pytest.approx(model.fmax(0.9))

    def test_extracted_cores_slower_than_nominal(self):
        vmap = generate_variation_maps(
            DEFAULT_TECH, DEFAULT_ARCH.die_edge_mm, 32,
            [np.random.default_rng(0)])[0]
        fp = build_floorplan(DEFAULT_ARCH)
        calib = frequency_calibration(DEFAULT_TECH, DEFAULT_ARCH)
        rng = np.random.default_rng(1)
        for core_id in (0, 7):
            paths = extract_core_paths(vmap, fp, core_id,
                                       DEFAULT_TECH, rng)
            model = CoreFrequencyModel(paths, DEFAULT_TECH, calib)
            f = model.fmax(DEFAULT_TECH.vdd_max)
            # Worst-path selection makes real cores slower than nominal.
            assert f < DEFAULT_ARCH.freq_nominal_hz
            assert f > 0.4 * DEFAULT_ARCH.freq_nominal_hz


class TestVFTable:
    def _table(self):
        paths = PathSet(vth=np.array([DEFAULT_TECH.vth_mean]),
                        leff=np.array([DEFAULT_TECH.leff_mean]))
        calib = frequency_calibration(DEFAULT_TECH, DEFAULT_ARCH)
        model = CoreFrequencyModel(paths, DEFAULT_TECH, calib)
        return build_vf_table(model, DEFAULT_TECH, DEFAULT_ARCH)

    def test_level_count(self):
        assert self._table().n_levels == DEFAULT_ARCH.n_voltage_levels

    def test_quantised_to_bins(self):
        table = self._table()
        remainders = np.mod(table.freqs, FREQ_QUANTUM_HZ)
        np.testing.assert_allclose(remainders, 0.0, atol=1e-3)

    def test_monotone(self):
        table = self._table()
        assert np.all(np.diff(table.voltages) > 0)
        assert np.all(np.diff(table.freqs) >= 0)

    def test_fmax_property(self):
        table = self._table()
        assert table.fmax == table.freqs[-1]
        assert table.vmax == pytest.approx(1.0)
        assert table.vmin == pytest.approx(0.6)

    def test_freq_at_and_level_of(self):
        table = self._table()
        v = float(table.voltages[3])
        assert table.level_of(v) == 3
        assert table.freqs[table.level_of(v)] == table.freqs[3]

    def test_level_of_rejects_non_grid_voltage(self):
        table = self._table()
        with pytest.raises(ValueError):
            table.level_of(0.61234)

    def test_nearest_level_at_most(self):
        table = self._table()
        assert table.nearest_level_at_most(2.0) == table.n_levels - 1
        assert table.nearest_level_at_most(0.0) == 0
        v2 = float(table.voltages[2])
        assert table.nearest_level_at_most(v2 + 1e-6) == 2

    def test_linear_fit_slope_positive(self):
        slope, intercept = self._table().linear_fit()
        assert slope > 0

    def test_validation_rejects_descending_freq(self):
        with pytest.raises(ValueError):
            VFTable(voltages=np.array([0.6, 0.8, 1.0]),
                    freqs=np.array([2e9, 1.5e9, 3e9]))

    def test_validation_rejects_single_point(self):
        with pytest.raises(ValueError):
            VFTable(voltages=np.array([0.6]), freqs=np.array([2e9]))
