"""Spatial-correlation machinery for the VARIUS variation model.

Systematic within-die variation is modelled as a stationary Gaussian
random field on a regular grid covering the die, with the *spherical*
correlation function used by VARIUS:

    rho(r) = 1 - 1.5 (r/phi) + 0.5 (r/phi)^3   for r < phi
    rho(r) = 0                                  for r >= phi

where ``phi`` is the distance at which correlation vanishes.

Two samplers are provided, both drawing fields for a whole batch of
dies at once through ``sample_batch``:

* :class:`CholeskyFieldSampler` — exact, O(n^3) setup; fine for grids up
  to roughly 40x40. Used as ground truth in tests.
* :class:`CirculantFieldSampler` — FFT-based circulant embedding; near
  exact and fast for large grids. Negative embedding eigenvalues (the
  spherical covariance is not exactly embeddable on a torus) are clipped
  and the field is rescaled to preserve unit marginal variance.

The one-field-at-a-time forms of both samplers live in
``tests/references.py`` as the oracles ``sample_batch`` is checked
against bit for bit.
"""

from __future__ import annotations

from typing import Sequence, Tuple

import numpy as np


def spherical_correlation(r: np.ndarray, phi: float) -> np.ndarray:
    """Spherical correlation function rho(r) with range ``phi``.

    Args:
        r: Distances (any shape, non-negative).
        phi: Correlation range; rho(phi) = 0 and rho(0) = 1.

    Returns:
        Array of the same shape with values in [0, 1].
    """
    if phi <= 0:
        raise ValueError("phi must be positive")
    r = np.asarray(r, dtype=float)
    if np.any(r < 0):
        raise ValueError("distances must be non-negative")
    x = np.minimum(r / phi, 1.0)
    rho = 1.0 - 1.5 * x + 0.5 * x ** 3
    return np.where(r < phi, rho, 0.0)


def grid_coordinates(resolution: int, edge: float) -> Tuple[np.ndarray, np.ndarray]:
    """Cell-centre coordinates of a ``resolution x resolution`` grid.

    Args:
        resolution: Number of cells per edge.
        edge: Physical edge length of the die.

    Returns:
        ``(xs, ys)`` 1-D arrays of length ``resolution`` with the
        cell-centre positions along each axis.
    """
    if resolution <= 0:
        raise ValueError("resolution must be positive")
    if edge <= 0:
        raise ValueError("edge must be positive")
    step = edge / resolution
    centres = (np.arange(resolution) + 0.5) * step
    return centres, centres.copy()


class CholeskyFieldSampler:
    """Exact Gaussian-field sampler via Cholesky factorisation.

    Builds the full covariance matrix of the grid (so memory is
    O(resolution^4)); intended for small grids and for validating the
    FFT sampler.
    """

    def __init__(self, resolution: int, edge: float, phi: float) -> None:
        self.resolution = resolution
        self.edge = edge
        self.phi = phi
        xs, ys = grid_coordinates(resolution, edge)
        gx, gy = np.meshgrid(xs, ys, indexing="ij")
        points = np.column_stack([gx.ravel(), gy.ravel()])
        diff = points[:, None, :] - points[None, :, :]
        dist = np.sqrt((diff ** 2).sum(axis=2))
        cov = spherical_correlation(dist, phi)
        # Tiny jitter keeps the factorisation stable when phi spans the
        # whole grid and the matrix is near-singular.
        cov[np.diag_indices_from(cov)] += 1e-9
        self._chol = np.linalg.cholesky(cov)

    def sample_batch(self, rngs: Sequence[np.random.Generator],
                     count: int = 1) -> np.ndarray:
        """Draw ``count`` fields per generator, bitwise-identical to
        drawing the fields one at a time from each ``rng``.

        The O(n^3) factorisation is shared across all generators (the
        per-die win), and each generator's draws are coalesced into a
        single ``standard_normal`` call — PCG64 fills arrays from the
        stream left to right, so one draw of ``count * n * n`` values
        sliced per field equals ``count`` separate draws. The
        correlating transform itself stays one matvec per field: BLAS
        gemm accumulates multi-column products in a different order
        than gemv, so a single ``chol @ Z`` would *not* be bitwise-
        equal to one field at a time.

        Returns:
            Array of shape ``(len(rngs), count, n, n)``.
        """
        if count < 1:
            raise ValueError("count must be positive")
        n = self.resolution
        out = np.empty((len(rngs), count, n, n))
        for d, rng in enumerate(rngs):
            z = rng.standard_normal(count * n * n)
            for k in range(count):
                zk = z[k * n * n:(k + 1) * n * n]
                out[d, k] = (self._chol @ zk).reshape(n, n)
        return out


class CirculantFieldSampler:
    """FFT circulant-embedding sampler for the spherical correlation.

    The grid is embedded in a torus of twice the size; the covariance is
    diagonalised by the 2-D DFT. Because the spherical model is not
    exactly embeddable, negative eigenvalues are clipped to zero and the
    output is rescaled to restore unit marginal variance (the clipped
    mass is small for phi <= the die edge).
    """

    def __init__(self, resolution: int, edge: float, phi: float) -> None:
        if resolution <= 0:
            raise ValueError("resolution must be positive")
        self.resolution = resolution
        self.edge = edge
        self.phi = phi
        m = 2 * resolution
        step = edge / resolution
        # Torus distances along one axis: 0, 1, ..., m/2, ..., 1 (cells).
        idx = np.arange(m)
        axis = np.minimum(idx, m - idx) * step
        dx, dy = np.meshgrid(axis, axis, indexing="ij")
        dist = np.sqrt(dx ** 2 + dy ** 2)
        cov = spherical_correlation(dist, phi)
        eigen = np.fft.fft2(cov).real
        clipped = np.maximum(eigen, 0.0)
        self._eigen = clipped
        self._m = m
        # Rescale factor restoring unit variance after clipping.
        mean_var = clipped.sum() / (m * m)
        if mean_var <= 0:
            raise ValueError("degenerate covariance embedding")
        self._scale = 1.0 / np.sqrt(mean_var)

    def sample_batch(self, rngs: Sequence[np.random.Generator],
                     count: int = 1) -> np.ndarray:
        """Draw ``count`` fields per generator, bitwise-identical to
        drawing the fields one at a time from each ``rng``.

        Per-generator noise draws are coalesced into one
        ``standard_normal`` call (stream order preserved: each field
        draws its real plane then its imaginary plane, and shaped
        draws fill in C order exactly like flat draws reshaped), and
        the FFT runs once over the stacked planes — ``np.fft.fft2``
        over trailing axes transforms each plane independently and
        bitwise-identically to per-plane calls.

        Returns:
            Array of shape ``(len(rngs), count, n, n)``.
        """
        if count < 1:
            raise ValueError("count must be positive")
        m = self._m
        n_gen = len(rngs)
        planes = np.empty((n_gen, count, 2, m, m))
        for d, rng in enumerate(rngs):
            z = rng.standard_normal(count * 2 * m * m)
            planes[d] = z.reshape(count, 2, m, m)
        noise = planes[:, :, 0] + 1j * planes[:, :, 1]
        spectrum = np.sqrt(self._eigen / (m * m))
        field = np.fft.fft2(spectrum * noise, axes=(-2, -1))
        n = self.resolution
        return field.real[..., :n, :n] * self._scale


def make_field_sampler(resolution: int, edge: float, phi: float):
    """The field sampler for a grid: Cholesky up to 32 cells per edge,
    the circulant FFT sampler above that.

    Args:
        resolution: Grid cells per edge.
        edge: Die edge length.
        phi: Spherical correlation range (same unit as ``edge``).

    Returns:
        A :class:`CholeskyFieldSampler` or :class:`CirculantFieldSampler`;
        draw fields with its ``sample_batch(rngs, count)``.
    """
    if resolution <= 32:
        return CholeskyFieldSampler(resolution, edge, phi)
    return CirculantFieldSampler(resolution, edge, phi)
