"""Tests for variogram estimation and spherical-model fitting."""

import numpy as np
import pytest

from tests.variogram import (
    empirical_variogram,
    fit_spherical,
    pooled_variogram,
)
from repro.variation.spatial import CirculantFieldSampler


@pytest.fixture(scope="module")
def fields():
    sampler = CirculantFieldSampler(40, 18.0, 9.0)
    rng = np.random.default_rng(7)
    return list(sampler.sample_batch([rng], count=20)[0])


class TestEmpiricalVariogram:
    def test_shapes_and_counts(self, fields):
        vg = empirical_variogram(fields[0], 18.0, n_bins=12)
        assert vg.lags.size == vg.gamma.size == vg.counts.size
        assert vg.lags.size <= 12
        assert np.all(vg.counts > 0)

    def test_gamma_non_negative(self, fields):
        vg = empirical_variogram(fields[0], 18.0)
        assert np.all(vg.gamma >= 0)

    def test_gamma_increases_from_origin(self, fields):
        # Short lags are strongly correlated: semivariance small there,
        # larger at long lags.
        vg = pooled_variogram(fields, 18.0)
        assert vg.gamma[0] < vg.gamma[-1]

    def test_constant_field_has_zero_gamma(self):
        # A constant field is degenerate for the *sampler* but fine
        # for the estimator.
        field = np.ones((16, 16))
        vg = empirical_variogram(field, 10.0)
        np.testing.assert_allclose(vg.gamma, 0.0)

    def test_rejects_non_square(self):
        with pytest.raises(ValueError):
            empirical_variogram(np.ones((4, 5)), 10.0)

    def test_rejects_bad_edge(self):
        with pytest.raises(ValueError):
            empirical_variogram(np.ones((4, 4)), -1.0)

    def test_deterministic_given_rng(self, fields):
        a = empirical_variogram(fields[0], 18.0,
                                rng=np.random.default_rng(1))
        b = empirical_variogram(fields[0], 18.0,
                                rng=np.random.default_rng(1))
        np.testing.assert_array_equal(a.gamma, b.gamma)


class TestSphericalFit:
    def test_recovers_generating_range(self, fields):
        vg = pooled_variogram(fields, 18.0)
        fit = fit_spherical(vg, edge_hint=18.0)
        assert fit.phi == pytest.approx(9.0, rel=0.25)
        assert fit.sill == pytest.approx(1.0, rel=0.3)

    def test_fit_on_exact_model_values(self):
        # Noise-free variogram of a known spherical model.
        from tests.variogram import EmpiricalVariogram
        from repro.variation.spatial import spherical_correlation
        lags = np.linspace(0.5, 12.0, 14)
        sill, phi = 2.0, 6.0
        gamma = sill * (1 - spherical_correlation(lags, phi))
        vg = EmpiricalVariogram(lags=lags, gamma=gamma,
                                counts=np.full(14, 100))
        fit = fit_spherical(vg, edge_hint=12.0)
        assert fit.phi == pytest.approx(phi, rel=0.02)
        assert fit.sill == pytest.approx(sill, rel=0.02)
        assert fit.residual < 1e-6 * 100 * 14

    def test_model_gamma_evaluates(self):
        from tests.variogram import SphericalFit
        fit = SphericalFit(sill=1.5, phi=4.0, residual=0.0)
        assert fit.gamma(0.0) == pytest.approx(0.0)
        assert fit.gamma(4.0) == pytest.approx(1.5)
        assert fit.gamma(100.0) == pytest.approx(1.5)

    def test_too_few_bins_rejected(self):
        from tests.variogram import EmpiricalVariogram
        vg = EmpiricalVariogram(lags=np.array([1.0, 2.0]),
                                gamma=np.array([0.1, 0.2]),
                                counts=np.array([5, 5]))
        with pytest.raises(ValueError):
            fit_spherical(vg)

    def test_pooled_requires_fields(self):
        with pytest.raises(ValueError):
            pooled_variogram([], 10.0)
