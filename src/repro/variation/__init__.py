"""Process-variation substrate (VARIUS-style model)."""

from .spatial import (
    CholeskyFieldSampler,
    CirculantFieldSampler,
    grid_coordinates,
    make_field_sampler,
    spherical_correlation,
)
from .varius import (
    VTH_LEFF_CORRELATION,
    VariationMap,
    VariationParams,
    generate_variation_maps,
)
from .die import Die, DieBatch
from .variogram import (
    EmpiricalVariogram,
    SphericalFit,
    empirical_variogram,
    fit_spherical,
    pooled_variogram,
)

__all__ = [
    "CholeskyFieldSampler",
    "CirculantFieldSampler",
    "Die",
    "DieBatch",
    "EmpiricalVariogram",
    "SphericalFit",
    "empirical_variogram",
    "fit_spherical",
    "pooled_variogram",
    "VariationMap",
    "VariationParams",
    "VTH_LEFF_CORRELATION",
    "generate_variation_maps",
    "grid_coordinates",
    "make_field_sampler",
    "spherical_correlation",
]
