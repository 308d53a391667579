"""Process-variation substrate (VARIUS-style model).

The variogram estimator and spherical fit that check the field
samplers' correlation are test support (``tests/variogram.py``).
"""

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

__all__ = [
    "CholeskyFieldSampler",
    "CirculantFieldSampler",
    "Die",
    "DieBatch",
    "VariationMap",
    "VariationParams",
    "VTH_LEFF_CORRELATION",
    "generate_variation_maps",
    "grid_coordinates",
    "make_field_sampler",
    "spherical_correlation",
]
