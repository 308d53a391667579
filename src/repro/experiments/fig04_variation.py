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

from ..chip import ChipProfile
from ..config import ArchConfig, DEFAULT_ARCH, DEFAULT_TECH, TechParams
from ..fleet.campaign import fleet_die_metrics
from ..parallel import (
    CharacterizationCache,
    get_default_cache,
    resolve_workers,
    run_sharded,
)
from ..runtime.evaluation import Assignment, evaluate_max_levels
from ..workloads import SPEC_APPS, Workload
from .common import ChipFactory, default_n_dies, format_rows, histogram


def core_power_ratio(chip: ChipProfile) -> float:
    """Max/min per-core average power across all applications.

    Serial per-die reference; batch paths go through
    :func:`repro.fleet.campaign.fleet_die_metrics`, which computes the
    same statistic die-batched and bitwise-identically (property-
    tested in tests/test_fleet.py).
    """
    mean_power = np.empty(chip.n_cores)
    for core_id in range(chip.n_cores):
        assignment = Assignment(core_of=(core_id,))
        powers = []
        for app in SPEC_APPS:
            state = evaluate_max_levels(chip, Workload((app,)), assignment)
            powers.append(float(state.core_power[0]))
        mean_power[core_id] = np.mean(powers)
    return float(mean_power.max() / mean_power.min())


def core_frequency_ratio(chip: ChipProfile) -> float:
    """Max/min core frequency (binned at the hot temperature)."""
    fmax = chip.fmax_array
    return float(fmax.max() / fmax.min())


def _fleet_pairs(chips: Sequence[ChipProfile],
                 with_power: bool) -> List[Tuple[float, float]]:
    """Die-batched ``(power_ratio, freq_ratio)`` pairs for a fleet."""
    cols = fleet_die_metrics(chips, with_power=with_power)
    freq = cols["freq_ratio"]
    power = cols.get("power_ratio")
    if power is None:
        return [(float("nan"), float(f)) for f in freq]
    return [(float(p), float(f)) for p, f in zip(power, freq)]


def _ratio_shard(tech: TechParams, arch: ArchConfig, seed: int,
                 cache_root: Optional[str], with_power: bool,
                 indices: Sequence[int]) -> List[Tuple[float, float]]:
    """Worker body: characterise a shard of dies and compute ratios."""
    cache = CharacterizationCache(cache_root) if cache_root else None
    factory = ChipFactory(tech=tech, arch=arch, seed=seed,
                          workers=1, cache=cache)
    return _fleet_pairs(factory.chips_for(list(indices)), with_power)


def die_ratios(n_dies: int, tech: TechParams = DEFAULT_TECH,
               arch: ArchConfig = DEFAULT_ARCH, seed: int = 0,
               workers: Optional[int] = None, with_power: bool = True,
               factory: Optional[ChipFactory] = None,
               ) -> List[Tuple[float, float]]:
    """Per-die ``(power_ratio, freq_ratio)`` pairs, sharded.

    The per-die work — characterisation plus the 4(a)/4(b) ratio
    analysis — is independent, so with ``workers > 1`` whole dies
    shard across processes via :func:`repro.parallel.run_sharded`.
    Within a process the analysis is die-batched through
    :class:`~repro.runtime.kernel.EvalKernel` (all dies of the
    shard evaluate each (core, app) point in lockstep), which is
    bitwise-identical to the historical per-die loop. ``with_power=
    False`` skips the expensive 4(a) power analysis and reports NaN
    for it (Figure 5(b) only needs frequencies).
    """
    if factory is not None:
        tech, arch, seed = factory.tech, factory.arch, factory.seed
    workers = resolve_workers(workers)
    if workers <= 1 or n_dies <= 1:
        if factory is not None:
            # Caller-held factory: keep its chip cache warm for reuse.
            return _fleet_pairs(factory.chips(n_dies), with_power)
        factory = ChipFactory(tech=tech, arch=arch, seed=seed)
        pairs: List[Tuple[float, float]] = []
        for chunk in factory.chips_stream(range(n_dies)):
            pairs.extend(_fleet_pairs(chunk, with_power))
        return pairs
    store = get_default_cache()
    cache_root = str(store.root) if store is not None else None
    fn = functools.partial(_ratio_shard, tech, arch, seed,
                           cache_root, with_power)
    return run_sharded(fn, list(range(n_dies)), workers=workers)


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
        factory: Optional[ChipFactory] = None,
        workers: Optional[int] = None) -> Fig04Result:
    """Reproduce Figure 4 on a batch of dies."""
    n_dies = n_dies or default_n_dies()
    pairs = die_ratios(n_dies, factory=factory, workers=workers)
    power_ratios, freq_ratios = zip(*pairs)
    return Fig04Result(power_ratios=np.array(power_ratios),
                       freq_ratios=np.array(freq_ratios))
