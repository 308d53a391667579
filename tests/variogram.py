"""Empirical variogram estimation and spherical-model fitting.

The paper's variation maps come from the geoR geostatistics package
(Section 6.1). This module provides the corresponding analysis
tooling: estimate the empirical semivariogram of a generated field and
fit the spherical model's (sill, range) by weighted least squares —
closing the loop on the GRF samplers (a generated map's fitted range
must recover the phi it was generated with).

The semivariogram of a stationary field Z is

    gamma(h) = 0.5 * E[(Z(x) - Z(x + h))^2] = sill * (1 - rho(h))

so for the spherical model gamma rises as 1.5(h/phi) - 0.5(h/phi)^3
toward the sill and flattens at h = phi.

It checks the samplers and is not part of a run. The module name does
not match ``test_*.py``, so pytest does not collect it; tests import
it as ``tests.variogram``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np
from scipy import optimize

from repro.variation.spatial import spherical_correlation


@dataclass(frozen=True)
class EmpiricalVariogram:
    """Binned empirical semivariogram.

    Attributes:
        lags: Bin-centre distances.
        gamma: Semivariance estimate per bin.
        counts: Pairs contributing to each bin.
    """

    lags: np.ndarray
    gamma: np.ndarray
    counts: np.ndarray


@dataclass(frozen=True)
class SphericalFit:
    """Fitted spherical variogram parameters."""

    sill: float
    phi: float
    residual: float

    def gamma(self, h) -> np.ndarray:
        """Model semivariance at distance(s) h."""
        return self.sill * (1.0 - spherical_correlation(
            np.asarray(h, dtype=float), self.phi))


def empirical_variogram(
    field: np.ndarray,
    edge: float,
    n_bins: int = 16,
    max_lag_fraction: float = 0.7,
    max_pairs: int = 200_000,
    rng: Optional[np.random.Generator] = None,
) -> EmpiricalVariogram:
    """Estimate the semivariogram of one grid field.

    Point pairs are subsampled uniformly when the grid would produce
    more than ``max_pairs`` pairs (the classic estimator is O(n^2)).

    Args:
        field: Square 2-D field.
        edge: Physical edge length of the field.
        n_bins: Distance bins.
        max_lag_fraction: Largest lag considered, as a fraction of the
            edge (long lags have few pairs and high variance).
        max_pairs: Point-pair subsample budget.
        rng: Randomness for the subsample.

    Returns:
        An :class:`EmpiricalVariogram`.
    """
    field = np.asarray(field, dtype=float)
    if field.ndim != 2 or field.shape[0] != field.shape[1]:
        raise ValueError("field must be a square 2-D array")
    if edge <= 0 or n_bins < 2:
        raise ValueError("bad edge or bin count")
    rng = rng or np.random.default_rng(0)
    n = field.shape[0]
    step = edge / n
    centres = (np.arange(n) + 0.5) * step
    gx, gy = np.meshgrid(centres, centres, indexing="ij")
    xs = gx.ravel()
    ys = gy.ravel()
    zs = field.ravel()
    n_points = zs.size

    n_sample = int(np.sqrt(2 * max_pairs)) + 1
    if n_points > n_sample:
        idx = rng.choice(n_points, size=n_sample, replace=False)
        xs, ys, zs = xs[idx], ys[idx], zs[idx]

    dx = xs[:, None] - xs[None, :]
    dy = ys[:, None] - ys[None, :]
    dist = np.sqrt(dx ** 2 + dy ** 2)
    dz2 = (zs[:, None] - zs[None, :]) ** 2
    iu = np.triu_indices_from(dist, k=1)
    dist = dist[iu]
    dz2 = dz2[iu]

    max_lag = max_lag_fraction * edge
    mask = dist <= max_lag
    dist = dist[mask]
    dz2 = dz2[mask]
    edges = np.linspace(0.0, max_lag, n_bins + 1)
    which = np.clip(np.digitize(dist, edges) - 1, 0, n_bins - 1)
    gamma = np.zeros(n_bins)
    counts = np.zeros(n_bins, dtype=int)
    for b in range(n_bins):
        sel = which == b
        counts[b] = int(sel.sum())
        if counts[b]:
            gamma[b] = 0.5 * float(dz2[sel].mean())
    lags = 0.5 * (edges[:-1] + edges[1:])
    keep = counts > 0
    return EmpiricalVariogram(lags=lags[keep], gamma=gamma[keep],
                              counts=counts[keep])


def pooled_variogram(
    fields,
    edge: float,
    n_bins: int = 16,
    max_lag_fraction: float = 0.7,
    max_pairs: int = 200_000,
    rng: Optional[np.random.Generator] = None,
) -> EmpiricalVariogram:
    """Pool the empirical variogram over several field realisations.

    A single realisation whose correlation range spans a large part of
    the domain carries very little information about that range; the
    paper-style batch of dies pins it down. Per-bin semivariances are
    averaged weighted by pair counts.
    """
    rng = rng or np.random.default_rng(0)
    acc_gamma = None
    acc_counts = None
    lags = None
    for field in fields:
        vg = empirical_variogram(field, edge, n_bins=n_bins,
                                 max_lag_fraction=max_lag_fraction,
                                 max_pairs=max_pairs, rng=rng)
        if acc_gamma is None:
            lags = vg.lags
            acc_gamma = vg.gamma * vg.counts
            acc_counts = vg.counts.astype(float)
        else:
            if vg.lags.shape != lags.shape:
                raise ValueError("inconsistent variogram binning")
            acc_gamma = acc_gamma + vg.gamma * vg.counts
            acc_counts = acc_counts + vg.counts
    if acc_gamma is None:
        raise ValueError("no fields given")
    keep = acc_counts > 0
    return EmpiricalVariogram(
        lags=lags[keep],
        gamma=acc_gamma[keep] / acc_counts[keep],
        counts=acc_counts[keep].astype(int),
    )


def fit_spherical(variogram: EmpiricalVariogram,
                  edge_hint: Optional[float] = None) -> SphericalFit:
    """Weighted least-squares fit of the spherical model.

    Weights are the per-bin pair counts (Cressie-style). The range is
    searched within (0, 2 * max lag]; the sill is profiled out in
    closed form for each candidate range.
    """
    lags = variogram.lags
    gamma = variogram.gamma
    weights = variogram.counts.astype(float)
    if lags.size < 3:
        raise ValueError("need at least 3 variogram bins to fit")

    def sill_for(phi: float) -> Tuple[float, float]:
        shape = 1.0 - spherical_correlation(lags, phi)
        denom = float(weights @ (shape ** 2))
        if denom <= 0:
            return 0.0, np.inf
        sill = float(weights @ (shape * gamma)) / denom
        sill = max(sill, 1e-12)
        resid = float(weights @ (gamma - sill * shape) ** 2)
        return sill, resid

    hi = 2.0 * float(lags.max()) if edge_hint is None else 2.0 * edge_hint

    def objective(phi: float) -> float:
        return sill_for(phi)[1]

    result = optimize.minimize_scalar(
        objective, bounds=(1e-3 * hi, hi), method="bounded")
    phi = float(result.x)
    sill, resid = sill_for(phi)
    return SphericalFit(sill=sill, phi=phi, residual=resid)
