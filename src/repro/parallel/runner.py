"""Sharded, cached characterisation of seeded die batches.

:func:`characterize_batch` is the single entry point the experiment
layer uses to turn (tech, arch, seed, die indices) into
:class:`~repro.chip.ChipProfile` objects. It composes the two speed
layers:

* the persistent :mod:`~repro.parallel.cache` — hits skip
  characterisation entirely;
* the sharded process pool from :mod:`~repro.parallel.sharding` —
  cache misses are characterised ``workers`` shards at a time.

Determinism: each die is generated from its own ``(seed, index)``
stream and characterised with a per-die seed, so results are
independent of shard boundaries and worker count. Misses are binned
by the die-batched :func:`~repro.chip.characterize_dies` kernel —
the only binning flow in ``repro``; its one-die oracle lives in
``tests/references.py`` — and payload round-trips preserve arrays
bitwise, so serial, sharded and cached runs are all
bitwise-identical.
"""

from __future__ import annotations

import functools
from typing import Dict, List, Optional, Sequence, Union

from ..chip import ChipProfile, characterize_dies
from ..config import ArchConfig, TechParams
from ..floorplan import Floorplan, build_floorplan
from ..thermal import ThermalNetwork
from ..settings import settings
from ..variation import DieBatch
from .cache import (
    CharacterizationCache,
    Payload,
    cache_key,
    get_default_cache,
    profile_from_payload,
    profile_payload,
)
from .health import RunHealth, get_run_health
from .sharding import run_sharded

CacheArg = Union[None, str, CharacterizationCache]


def _resolve_cache(cache: CacheArg) -> Optional[CharacterizationCache]:
    if cache == "auto":
        return get_default_cache()
    if cache is None or isinstance(cache, CharacterizationCache):
        return cache
    raise TypeError("cache must be 'auto', None, or a "
                    "CharacterizationCache")


def _characterize_shard(tech: TechParams, arch: ArchConfig, seed: int,
                        cache_root: Optional[str],
                        indices: List[int]) -> List[Payload]:
    """Worker body: characterise a shard of dies into payloads.

    Runs in a pool process (or inline for the single-shard fallback).
    Stores into the shared cache directly so the (compressing) writes
    are parallelised too; atomic writes make concurrent stores safe.
    Returns plain array payloads — cheap to pickle back to the parent.
    The shard generates its dies with one shared field sampler and
    bins them through the die-batched
    :func:`~repro.chip.characterize_dies` kernel, so shard boundaries
    never show.
    """
    batch = DieBatch(tech, arch, max(indices) + 1, seed=seed)
    floorplan = build_floorplan(arch)
    thermal = ThermalNetwork(floorplan)
    store = (CharacterizationCache(cache_root)
             if cache_root is not None else None)
    profiles = characterize_dies(batch.dies_for(indices), tech, arch,
                                 floorplan=floorplan, thermal=thermal)
    payloads = []
    for index, profile in zip(indices, profiles):
        payload = profile_payload(profile)
        if store is not None:
            store.store(cache_key(tech, arch, seed, index), payload)
        payloads.append(payload)
    return payloads


def characterize_batch(
    tech: TechParams,
    arch: ArchConfig,
    seed: int,
    die_indices: Sequence[int],
    workers: Optional[int] = None,
    cache: CacheArg = "auto",
    floorplan: Optional[Floorplan] = None,
    thermal: Optional[ThermalNetwork] = None,
    health: Optional[RunHealth] = None,
) -> List[ChipProfile]:
    """Characterise the requested dies of a seeded batch.

    Args:
        tech, arch, seed: The batch identity (die ``i`` is generated
            from the ``(seed, i)`` stream regardless of batch size).
        die_indices: Dies wanted, in the order results are returned.
        workers: Process count for cache misses; ``None`` reads
            ``settings().workers`` (:mod:`repro.settings`). ``1``
            characterises in-process.
        cache: ``"auto"`` (the process-wide default cache), ``None``
            (disabled), or an explicit :class:`CharacterizationCache`.
        floorplan, thermal: Shared structures to attach to the
            profiles (built from ``arch`` when omitted).
        health: :class:`RunHealth` recording recovery actions; by
            default the process-wide collector from
            :func:`~repro.parallel.health.get_run_health`, which
            benchmarks snapshot into ``BENCH_*.json``.

    Returns:
        One :class:`ChipProfile` per entry of ``die_indices``.
    """
    indices = [int(i) for i in die_indices]
    if not indices:
        return []
    if min(indices) < 0:
        raise ValueError("die indices must be non-negative")
    if workers is None:
        workers = settings().workers
    store = _resolve_cache(cache)
    if floorplan is None:
        floorplan = build_floorplan(arch)
    if thermal is None:
        thermal = ThermalNetwork(floorplan)

    profiles: Dict[int, ChipProfile] = {}
    unique = list(dict.fromkeys(indices))
    missing: List[int] = []
    for index in unique:
        payload = (store.load(cache_key(tech, arch, seed, index))
                   if store is not None else None)
        if payload is not None:
            profiles[index] = profile_from_payload(
                payload, tech, arch, floorplan, thermal)
        else:
            missing.append(index)

    if health is None:
        health = get_run_health()
    if missing and workers > 1 and len(missing) > 1:
        fn = functools.partial(
            _characterize_shard, tech, arch, seed,
            str(store.root) if store is not None else None)
        payloads = run_sharded(fn, missing, workers=workers,
                               health=health)
        if store is not None:
            store.stats["stores"] += len(missing)
        for index, payload in zip(missing, payloads):
            profiles[index] = profile_from_payload(
                payload, tech, arch, floorplan, thermal)
    elif missing:
        batch = DieBatch(tech, arch, max(missing) + 1, seed=seed)
        computed = characterize_dies(batch.dies_for(missing), tech, arch,
                                     floorplan=floorplan, thermal=thermal)
        for index, profile in zip(missing, computed):
            if store is not None:
                store.store(cache_key(tech, arch, seed, index),
                            profile_payload(profile))
            profiles[index] = profile

    return [profiles[index] for index in indices]
