"""Die characterisation: manufacturer binning of variation-affected dies."""

from .characterize import ChipProfile, CoreDescriptor
from .batch import CharacterizationKernel, characterize_dies

__all__ = [
    "CharacterizationKernel",
    "ChipProfile",
    "CoreDescriptor",
    "characterize_dies",
]
