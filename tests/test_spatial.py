"""Tests for repro.variation.spatial (correlation + field samplers)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.variation.spatial import (
    CholeskyFieldSampler,
    CirculantFieldSampler,
    grid_coordinates,
    make_field_sampler,
    spherical_correlation,
)


class TestSphericalCorrelation:
    def test_one_at_zero(self):
        assert spherical_correlation(np.array(0.0), 2.0) == pytest.approx(1.0)

    def test_zero_at_and_beyond_phi(self):
        rho = spherical_correlation(np.array([2.0, 3.0, 10.0]), 2.0)
        assert np.all(rho == 0.0)

    def test_known_midpoint_value(self):
        # rho(phi/2) = 1 - 1.5*0.5 + 0.5*0.125 = 0.3125
        assert spherical_correlation(np.array(1.0), 2.0) == pytest.approx(
            0.3125)

    def test_rejects_negative_distance(self):
        with pytest.raises(ValueError):
            spherical_correlation(np.array(-1.0), 2.0)

    def test_rejects_non_positive_phi(self):
        with pytest.raises(ValueError):
            spherical_correlation(np.array(1.0), 0.0)

    @given(st.floats(min_value=0.0, max_value=100.0),
           st.floats(min_value=1e-3, max_value=100.0))
    def test_bounded_in_unit_interval(self, r, phi):
        rho = float(spherical_correlation(np.array(r), phi))
        assert 0.0 <= rho <= 1.0

    @given(st.floats(min_value=1e-3, max_value=10.0))
    @settings(max_examples=25)
    def test_monotone_decreasing(self, phi):
        r = np.linspace(0, phi, 50)
        rho = spherical_correlation(r, phi)
        assert np.all(np.diff(rho) <= 1e-12)


class TestGridCoordinates:
    def test_cell_centres(self):
        xs, ys = grid_coordinates(4, 8.0)
        assert xs.tolist() == [1.0, 3.0, 5.0, 7.0]
        assert ys.tolist() == xs.tolist()

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            grid_coordinates(0, 8.0)
        with pytest.raises(ValueError):
            grid_coordinates(4, -1.0)


class TestSamplers:
    def test_cholesky_shape_and_determinism(self):
        s = CholeskyFieldSampler(8, 10.0, 5.0)
        a = s.sample_batch([np.random.default_rng(1)])[0, 0]
        b = s.sample_batch([np.random.default_rng(1)])[0, 0]
        assert a.shape == (8, 8)
        np.testing.assert_array_equal(a, b)

    def test_fft_shape_and_determinism(self):
        s = CirculantFieldSampler(16, 10.0, 5.0)
        a = s.sample_batch([np.random.default_rng(1)])[0, 0]
        b = s.sample_batch([np.random.default_rng(1)])[0, 0]
        assert a.shape == (16, 16)
        np.testing.assert_array_equal(a, b)

    @pytest.mark.parametrize("cls", [CholeskyFieldSampler,
                                     CirculantFieldSampler])
    def test_unit_marginal_variance(self, cls):
        sampler = cls(16, 10.0, 5.0)
        rng = np.random.default_rng(7)
        samples = sampler.sample_batch([rng], count=200)[0]
        var = samples.var()
        assert var == pytest.approx(1.0, rel=0.1)

    @pytest.mark.parametrize("cls", [CholeskyFieldSampler,
                                     CirculantFieldSampler])
    def test_zero_mean(self, cls):
        sampler = cls(12, 10.0, 5.0)
        rng = np.random.default_rng(11)
        samples = sampler.sample_batch([rng], count=300)[0]
        assert abs(samples.mean()) < 0.05

    def test_neighbouring_cells_correlated(self):
        # With phi spanning half the grid, adjacent cells must be
        # strongly correlated and far cells weakly.
        sampler = CirculantFieldSampler(16, 16.0, 8.0)
        rng = np.random.default_rng(3)
        fields = sampler.sample_batch([rng], count=400)[0]
        near = np.corrcoef(fields[:, 0, 0], fields[:, 0, 1])[0, 1]
        far = np.corrcoef(fields[:, 0, 0], fields[:, 15, 15])[0, 1]
        assert near > 0.7
        assert abs(far) < 0.3

    def test_fft_matches_cholesky_statistics(self):
        # The two samplers implement the same covariance; compare the
        # empirical near-neighbour correlation.
        rng1 = np.random.default_rng(5)
        rng2 = np.random.default_rng(5)
        chol = CholeskyFieldSampler(12, 12.0, 6.0)
        fft = CirculantFieldSampler(12, 12.0, 6.0)
        f1 = chol.sample_batch([rng1], count=400)[0]
        f2 = fft.sample_batch([rng2], count=400)[0]
        c1 = np.corrcoef(f1[:, 4, 4], f1[:, 4, 5])[0, 1]
        c2 = np.corrcoef(f2[:, 4, 4], f2[:, 4, 5])[0, 1]
        assert c1 == pytest.approx(c2, abs=0.12)

    def test_make_field_sampler_auto_selection(self):
        assert isinstance(make_field_sampler(16, 10.0, 5.0),
                          CholeskyFieldSampler)
        assert isinstance(make_field_sampler(64, 10.0, 5.0),
                          CirculantFieldSampler)
