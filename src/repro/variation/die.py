"""Die and die-batch abstractions.

A :class:`Die` couples a die identifier with its variation map. A
:class:`DieBatch` is a reproducible collection of dies generated from a
single seed, mirroring the paper's batches of 200 dies per experiment
(Section 6.1). Every die it hands out, one at a time or a chunk at a
time, comes from the batched
:func:`~repro.variation.varius.generate_variation_maps`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, List, Optional, Sequence

import numpy as np

from ..config import ArchConfig, TechParams
from .varius import VariationMap, generate_variation_maps


@dataclass(frozen=True)
class Die:
    """One manufactured die: identifier plus variation map."""

    die_id: int
    variation: VariationMap

    def __post_init__(self) -> None:
        if self.die_id < 0:
            raise ValueError("die_id must be non-negative")


class DieBatch(Sequence):
    """A reproducible batch of dies sharing statistical parameters.

    Iterating or indexing yields :class:`Die` objects. Generation is
    lazy and cached: each die is produced on first access from a
    deterministic per-die seed derived from the batch seed, so
    ``batch[5]`` is identical whether or not dies 0-4 were generated.
    """

    def __init__(
        self,
        tech: TechParams,
        arch: ArchConfig,
        n_dies: int,
        seed: int = 0,
    ) -> None:
        if n_dies <= 0:
            raise ValueError("n_dies must be positive")
        self.tech = tech
        self.arch = arch
        self.n_dies = n_dies
        self.seed = seed
        self._cache: List[Optional[Die]] = [None] * n_dies

    def __len__(self) -> int:
        return self.n_dies

    def __getitem__(self, index: int) -> Die:
        if isinstance(index, slice):
            return self.dies_for(range(*index.indices(self.n_dies)))
        return self.dies_for([index])[0]

    def __iter__(self) -> Iterator[Die]:
        for i in range(self.n_dies):
            yield self[i]

    def dies_for(self, indices: Sequence[int]) -> List[Die]:
        """The requested dies, generating any missing ones batched.

        Every die keeps its private ``(seed, index)`` stream, so a die
        is the same whichever chunk generates it, but cache misses
        share one field-sampler setup through
        :func:`~repro.variation.varius.generate_variation_maps`: a
        chunk of dies pays the covariance factorisation (or circulant
        embedding) once instead of once per die. Indexing the batch is
        this call with one index.
        """
        resolved: List[int] = []
        for index in indices:
            index = int(index)
            if index < 0:
                index += self.n_dies
            if not 0 <= index < self.n_dies:
                raise IndexError("die index out of range")
            resolved.append(index)
        missing = [i for i in dict.fromkeys(resolved)
                   if self._cache[i] is None]
        if missing:
            rngs = [np.random.default_rng([self.seed, i]) for i in missing]
            vmaps = generate_variation_maps(
                self.tech,
                self.arch.die_edge_mm,
                self.arch.grid_resolution,
                rngs,
            )
            for i, vmap in zip(missing, vmaps):
                self._cache[i] = Die(die_id=i, variation=vmap)
        return [self._cache[i] for i in resolved]
