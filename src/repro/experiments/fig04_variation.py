"""Figure 4: core-to-core power and frequency variation histograms.

Fig. 4(a): for each die, every application is run alone on every core
at the core's maximum operating point; the per-core average power
(static + dynamic, including L1) is computed across applications, and
the die's statistic is the ratio of the most- to least-power-consuming
core. Fig. 4(b): the ratio between the fastest and slowest core's
maximum frequency, binned at the hottest observed temperature.

Paper reference values (sigma/mu = 0.12): power ratios mostly 1.4-1.7
(average ~1.53); frequency ratios mostly 1.2-1.5 (average ~1.33).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..config import ArchConfig, DEFAULT_ARCH, DEFAULT_TECH, TechParams
from ..fleet.campaign import fleet_die_metrics
from ..floorplan import build_floorplan
from ..parallel import (
    characterize_batch,
    get_default_cache,
    run_sharded,
    shared_cache,
)
from ..settings import settings
from ..thermal import ThermalNetwork
from .common import default_n_dies, format_rows, histogram

#: Dies a shard characterises and analyses at a time: the fleet
#: campaign's default chunk, so memory stays O(chunk) at any worker
#: count.
CHUNK_DIES = 64


def _ratio_shard(tech: TechParams, arch: ArchConfig, seed: int,
                 cache_root: Optional[str], with_power: bool,
                 indices: Sequence[int]) -> List[Tuple[float, float]]:
    """Shard body: ``(power_ratio, freq_ratio)`` for each of ``indices``.

    Characterises the shard's dies :data:`CHUNK_DIES` at a time and
    analyses each chunk with
    :func:`~repro.fleet.campaign.fleet_die_metrics` — the fleet
    campaign's chunk body. NaN stands in for the power ratio when
    ``with_power`` is false.
    """
    cache = shared_cache(cache_root) if cache_root is not None else None
    floorplan = build_floorplan(arch)
    thermal = ThermalNetwork(floorplan)
    pairs: List[Tuple[float, float]] = []
    for lo in range(0, len(indices), CHUNK_DIES):
        chips = characterize_batch(
            tech, arch, seed, indices[lo:lo + CHUNK_DIES], workers=1,
            cache=cache, floorplan=floorplan, thermal=thermal)
        cols = fleet_die_metrics(chips, with_power=with_power)
        power = cols.get("power_ratio",
                         np.full(len(chips), float("nan")))
        pairs.extend((float(p), float(f))
                     for p, f in zip(power, cols["freq_ratio"]))
    return pairs


def die_ratios(n_dies: int, tech: TechParams = DEFAULT_TECH,
               arch: ArchConfig = DEFAULT_ARCH, seed: int = 0,
               workers: Optional[int] = None, with_power: bool = True,
               ) -> List[Tuple[float, float]]:
    """Per-die ``(power_ratio, freq_ratio)`` pairs for dies
    ``0..n_dies-1`` of the ``(tech, arch, seed)`` batch.

    The per-die work — characterisation plus the 4(a)/4(b) ratio
    analysis — is independent, so whole dies shard across ``workers``
    processes (``None`` reads ``settings().workers``) through
    :func:`repro.parallel.run_sharded`, which at ``workers=1`` calls
    the same shard body once in-process. Within a shard the analysis
    is die-batched by :func:`~repro.fleet.campaign.fleet_die_metrics`,
    which is bitwise-identical to the historical per-die loop, so the
    pairs do not depend on the worker count. ``with_power=False``
    skips the expensive 4(a) power analysis and reports NaN for it
    (Figure 5(b) only needs frequencies).
    """
    if workers is None:
        workers = settings().workers
    store = get_default_cache()
    cache_root = str(store.root) if store is not None else None
    fn = functools.partial(_ratio_shard, tech, arch, seed, cache_root,
                           with_power)
    return run_sharded(fn, range(n_dies), workers)


@dataclass(frozen=True)
class Fig04Result:
    """Per-die ratios plus derived histograms."""

    power_ratios: np.ndarray
    freq_ratios: np.ndarray

    @property
    def mean_power_ratio(self) -> float:
        return float(self.power_ratios.mean())

    @property
    def mean_freq_ratio(self) -> float:
        return float(self.freq_ratios.mean())

    def format_table(self) -> str:
        pw_counts, pw_edges = histogram(self.power_ratios)
        fq_counts, fq_edges = histogram(self.freq_ratios)
        rows_a = [[f"{pw_edges[i]:.2f}-{pw_edges[i+1]:.2f}",
                   int(pw_counts[i])] for i in range(pw_counts.size)]
        rows_b = [[f"{fq_edges[i]:.2f}-{fq_edges[i+1]:.2f}",
                   int(fq_counts[i])] for i in range(fq_counts.size)]
        parts = [
            format_rows(["power ratio", "dies"], rows_a,
                        "Figure 4(a): max/min core power ratio histogram"),
            f"mean power ratio: {self.mean_power_ratio:.3f} "
            "(paper: ~1.53, mostly 1.4-1.7)",
            "",
            format_rows(["freq ratio", "dies"], rows_b,
                        "Figure 4(b): max/min core frequency ratio histogram"),
            f"mean frequency ratio: {self.mean_freq_ratio:.3f} "
            "(paper: ~1.33, mostly 1.2-1.5)",
        ]
        return "\n".join(parts)


def run(n_dies: Optional[int] = None,
        workers: Optional[int] = None) -> Fig04Result:
    """Reproduce Figure 4 on a batch of dies."""
    n_dies = n_dies or default_n_dies()
    pairs = die_ratios(n_dies, workers=workers)
    power_ratios, freq_ratios = zip(*pairs)
    return Fig04Result(power_ratios=np.array(power_ratios),
                       freq_ratios=np.array(freq_ratios))
