"""VARIUS-style parameter-variation maps (Section 3 and 6.1).

Each die gets a map of the *systematic* component of Vth and Leff on a
regular grid, drawn from a correlated Gaussian field (a batch of dies
at a time, :func:`generate_variation_maps`); the *random*
component is per-transistor and therefore represented by its sigma and
sampled analytically where needed (critical-path sampling).

Per the paper, the random and systematic components have equal variances
(sigma_total^2 = sigma_sys^2 + sigma_ran^2 with sigma_sys = sigma_ran),
Leff's sigma/mu is half of Vth's, and both share phi = 0.5 of the chip
width. The systematic components of Vth and Leff are spatially
correlated with each other because Vth variation is driven largely by
gate-length variation; we model that with a correlation coefficient
``vth_leff_correlation`` applied between the two fields.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Sequence, Tuple

import numpy as np

from ..config import TechParams
from .spatial import make_field_sampler

# Correlation between the systematic Vth and Leff fields.
VTH_LEFF_CORRELATION = 0.85


@dataclass(frozen=True)
class VariationParams:
    """Statistical parameters of one variation component pair.

    ``sigma_sys`` is the systematic component's absolute standard
    deviation (volts for Vth, metres for Leff); the random component
    has the same variance.
    """

    mean: float
    sigma_total: float
    phi: float

    def __post_init__(self) -> None:
        if self.sigma_total < 0:
            raise ValueError("sigma_total must be non-negative")
        if self.phi <= 0:
            raise ValueError("phi must be positive")

    @property
    def sigma_sys(self) -> float:
        """Systematic-component sigma (equal-variance split)."""
        return self.sigma_total / np.sqrt(2.0)


@dataclass(frozen=True)
class VariationMap:
    """Per-die systematic variation maps plus random-component sigmas.

    Attributes:
        vth_sys: Systematic Vth map (V), shape (res, res), centred on
            ``vth.mean``.
        leff_sys: Systematic Leff map (m), same shape.
        vth: Vth statistical parameters.
        leff: Leff statistical parameters.
        edge: Physical die edge length (mm) the grid spans.
    """

    vth_sys: np.ndarray
    leff_sys: np.ndarray
    vth: VariationParams
    leff: VariationParams
    edge: float

    def __post_init__(self) -> None:
        if self.vth_sys.shape != self.leff_sys.shape:
            raise ValueError("Vth and Leff maps must share a shape")
        if self.vth_sys.ndim != 2 or self.vth_sys.shape[0] != self.vth_sys.shape[1]:
            raise ValueError("maps must be square 2-D arrays")

    @property
    def resolution(self) -> int:
        """Grid cells per die edge."""
        return self.vth_sys.shape[0]

    def cell_index(self, x_mm: float, y_mm: float) -> tuple:
        """Grid cell containing physical point (x, y) in mm."""
        if not (0 <= x_mm <= self.edge and 0 <= y_mm <= self.edge):
            raise ValueError("point outside the die")
        step = self.edge / self.resolution
        i = min(int(x_mm / step), self.resolution - 1)
        j = min(int(y_mm / step), self.resolution - 1)
        return i, j

    def region_bounds(self, x0: float, y0: float, x1: float, y1: float,
                      ) -> Tuple[int, int, int, int]:
        """Grid-index bounds ``(i0, i1, j0, j1)`` of a rectangle.

        The half-open index block ``[i0:i1, j0:j1]`` covers every cell
        the rectangle overlaps; degenerate overlaps fall back to the
        single cell under the rectangle centre. This is the shared
        geometry kernel of :meth:`region_cells` — the die-batched
        characterisation pipeline precomputes these bounds once per
        floorplan and gathers the same cells across many dies.
        """
        if not (x0 < x1 and y0 < y1):
            raise ValueError("degenerate rectangle")
        step = self.edge / self.resolution
        i0 = max(int(np.floor(x0 / step)), 0)
        j0 = max(int(np.floor(y0 / step)), 0)
        i1 = min(int(np.ceil(x1 / step)), self.resolution)
        j1 = min(int(np.ceil(y1 / step)), self.resolution)
        if i1 <= i0 or j1 <= j0:
            ci, cj = self.cell_index((x0 + x1) / 2, (y0 + y1) / 2)
            i0, i1, j0, j1 = ci, ci + 1, cj, cj + 1
        return i0, i1, j0, j1

    def region_cells(self, x0: float, y0: float, x1: float, y1: float):
        """Systematic (Vth, Leff) values of all cells in a rectangle.

        Args:
            x0, y0, x1, y1: Rectangle corners in mm, x0 < x1, y0 < y1.

        Returns:
            Tuple of two 1-D arrays (vth values, leff values); at least
            one cell is always returned (the cell under the rectangle
            centre) even for rectangles thinner than a grid cell.
        """
        i0, i1, j0, j1 = self.region_bounds(x0, y0, x1, y1)
        vth = self.vth_sys[i0:i1, j0:j1].ravel()
        leff = self.leff_sys[i0:i1, j0:j1].ravel()
        return vth, leff


def _centre_unit_variance(field: np.ndarray) -> np.ndarray:
    """Remove the spatial mean and rescale to unit variance."""
    centred = field - field.mean()
    std = centred.std()
    if std <= 0:
        raise ValueError("degenerate (constant) variation field")
    return centred / std


def _finalize_variation_map(
    tech: TechParams,
    die_edge_mm: float,
    phi_mm: float,
    base: np.ndarray,
    indep: np.ndarray,
) -> VariationMap:
    """Turn two raw correlated fields into one die's variation map:
    centring, the Vth/Leff mix, the sigma scaling and the physical
    floor, in per-die float expressions.
    """
    # The paper models *within-die* variation only (Section 3): remove
    # each die's spatial mean so no die-to-die offset leaks in, and
    # restore unit variance (centring a correlated field removes the
    # die-mean variance share).
    base = _centre_unit_variance(base)
    indep = _centre_unit_variance(indep)
    rho = VTH_LEFF_CORRELATION
    mixed = rho * base + np.sqrt(1.0 - rho ** 2) * indep

    vth_params = VariationParams(
        mean=tech.vth_mean, sigma_total=tech.vth_sigma, phi=phi_mm)
    leff_params = VariationParams(
        mean=tech.leff_mean, sigma_total=tech.leff_sigma, phi=phi_mm)

    vth_sys = tech.vth_mean + vth_params.sigma_sys * base
    leff_sys = tech.leff_mean + leff_params.sigma_sys * mixed
    # Physical floor: neither parameter may go non-positive even in
    # extreme tails.
    vth_sys = np.maximum(vth_sys, 0.05 * tech.vth_mean)
    leff_sys = np.maximum(leff_sys, 0.05 * tech.leff_mean)
    return VariationMap(
        vth_sys=vth_sys,
        leff_sys=leff_sys,
        vth=vth_params,
        leff=leff_params,
        edge=die_edge_mm,
    )


def generate_variation_maps(
    tech: TechParams,
    die_edge_mm: float,
    resolution: int,
    rngs: Sequence[np.random.Generator],
) -> List[VariationMap]:
    """Generate the systematic Vth/Leff maps of many dies at once.

    Each die draws two correlated fields from its own generator: the
    Vth field, then an independent field that Leff's field mixes with
    it at correlation ``VTH_LEFF_CORRELATION``. The sampler setup —
    the covariance build plus Cholesky factorisation, or the circulant
    embedding — is paid once for the whole batch, and each die's draws
    keep its own stream order (``sample_batch`` of
    :mod:`~repro.variation.spatial`), so a die's map does not depend
    on which other dies share its batch. The one-die oracle in
    ``tests/references.py`` pins this bit for bit.

    Args:
        tech: Technology parameters supplying means, sigmas and phi.
        die_edge_mm: Physical die edge (mm).
        resolution: Grid cells per edge.
        rngs: One generator per die, consumed in order.

    Returns:
        One :class:`VariationMap` per generator, in order.
    """
    rngs = list(rngs)
    if not rngs:
        return []
    phi_mm = tech.phi_fraction * die_edge_mm
    sampler = make_field_sampler(resolution, die_edge_mm, phi_mm)
    fields = sampler.sample_batch(rngs, count=2)
    return [
        _finalize_variation_map(tech, die_edge_mm, phi_mm,
                                fields[d, 0], fields[d, 1])
        for d in range(len(rngs))
    ]
