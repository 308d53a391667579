"""Persistent, content-addressed characterisation cache.

Characterising a die — sampling its variation map, extracting critical
paths, binning (V, f) tables, calibrating leakage — is deterministic
per (tech, arch, batch seed, die index), so its output can be cached
on disk and shared across every experiment, benchmark and CI run that
asks for the same die.

Entries are compressed npz payloads under a content-addressed path:
the key is a SHA-256 over the full chip configuration (every tech and
arch field), the variation batch seed, the die index, the power
calibration constants, and a code-version tag. Changing *anything*
that could alter characterisation output changes the key, so stale
entries are never read — invalidation is automatic; deleting the
cache directory is always safe.

The payload is the flattened state of a :class:`~repro.chip.ChipProfile`
(path sets, V/f tables, leakage cell states), packed into a handful of
flat arrays with offset vectors so a warm load touches few npz members.
Round-tripping is bitwise-exact: a cache hit reconstructs arrays equal
to a cold characterisation.

Integrity (DESIGN.md §14): each entry, ``<key>.sealed``, is the npz
bytes sealed by :func:`repro.storage.write_sealed` under ``{format,
key}``. Loads go through :func:`repro.storage.read_sealed`, so an
entry that is unreadable, fails its digest or was filed under another
key is *quarantined* — moved to ``<root>/quarantine/`` next to a
structured ``<key>.reason.json`` — and counted in a dedicated
``corrupt`` stat (distinct from ``misses``), so silent
re-characterisation never hides corruption. Entries written before
the seal (``<key>.npz``, schema 1) are not entries at all: their keys
are never looked up and the maintenance commands skip them.
"""

from __future__ import annotations

import dataclasses
import hashlib
import io
import json
import os
import pathlib
import shutil
from typing import Dict, Iterator, List, Mapping, Optional, Union

import numpy as np

from ..chip import ChipProfile, CoreDescriptor
from ..config import ArchConfig, TechParams
from ..floorplan import Floorplan, build_floorplan
from ..freq import CoreFrequencyModel, VFTable
from ..freq.critical_path import PathSet
from ..metrics import Metrics
from ..power import CoreLeakageModel, L2LeakageModel
from ..power import scaling
from ..settings import settings
from ..storage import read_sealed, write_sealed
from ..thermal import ThermalNetwork

# Entry layout version: bump when the npz schema or the sealed
# container changes. Part of the content key, so bumping it turns
# every existing entry into a miss. v2 sealed the npz bytes.
CACHE_SCHEMA_VERSION = 2

#: The ``format`` identity field of each entry's sealed header.
_FORMAT = "characterization-cache"

# Code-version tag: bump whenever the characterisation pipeline
# (variation sampling, path extraction, binning, leakage calibration)
# changes its outputs. Old entries then become unreachable.
CHARACTERIZATION_TAG = "characterize-v1"

Payload = Dict[str, np.ndarray]

#: What a cache counts: ``hits`` (entries loaded), ``misses`` (absent
#: entries), ``corrupt`` (entries quarantined on load) and ``stores``.
CACHE_COUNTERS = ("hits", "misses", "corrupt", "stores")


# ---------------------------------------------------------------------------
# Content addressing


def cache_key(tech: TechParams, arch: ArchConfig, seed: int,
              die_index: int) -> str:
    """Content hash identifying one die's characterisation output."""
    parts = [
        f"schema={CACHE_SCHEMA_VERSION}",
        f"code={CHARACTERIZATION_TAG}",
        f"numpy={np.__version__}",
        "tech=" + repr(sorted(dataclasses.asdict(tech).items())),
        "arch=" + repr(sorted(dataclasses.asdict(arch).items())),
        f"core_static_nominal={scaling.CORE_STATIC_NOMINAL_W!r}",
        f"l2_static_nominal={scaling.L2_STATIC_NOMINAL_W!r}",
        f"l2_vdd={scaling.L2_VDD!r}",
        f"seed={int(seed)}",
        f"die={int(die_index)}",
    ]
    return hashlib.sha256("\n".join(parts).encode("utf-8")).hexdigest()


# ---------------------------------------------------------------------------
# Payload (de)serialisation


def _ragged_pack(arrays: List[np.ndarray]) -> Dict[str, np.ndarray]:
    flat = (np.concatenate(arrays) if arrays
            else np.empty(0, dtype=float))
    offsets = np.zeros(len(arrays) + 1, dtype=np.int64)
    np.cumsum([a.size for a in arrays], out=offsets[1:])
    return {"flat": flat, "offsets": offsets}


def _ragged_unpack(flat: np.ndarray, offsets: np.ndarray,
                   i: int) -> np.ndarray:
    return flat[int(offsets[i]):int(offsets[i + 1])]


def profile_payload(profile: ChipProfile) -> Payload:
    """Flatten a characterised die into npz-ready arrays."""
    cores = profile.cores
    paths_vth = _ragged_pack([c.freq_model.paths.vth for c in cores])
    paths_leff = [c.freq_model.paths.leff for c in cores]
    leak_vth = _ragged_pack([c.leakage.cell_vth for c in cores])
    leak_w = [c.leakage.cell_weights for c in cores]
    l2 = profile.l2_leakage
    l2_vth = _ragged_pack(l2.block_vth)
    return {
        "schema": np.int64(CACHE_SCHEMA_VERSION),
        "die_id": np.int64(profile.die_id),
        "n_cores": np.int64(profile.n_cores),
        "vf_voltages": cores[0].vf_table.voltages,
        "vf_freqs": np.stack([c.vf_table.freqs for c in cores]),
        "path_vth": paths_vth["flat"],
        "path_leff": np.concatenate(paths_leff),
        "path_offsets": paths_vth["offsets"],
        "leak_vth": leak_vth["flat"],
        "leak_weights": np.concatenate(leak_w),
        "leak_offsets": leak_vth["offsets"],
        "static_rated": profile.static_rated_array,
        "freq_calibration": np.float64(cores[0].freq_model.calibration),
        "leak_calibration": np.array(
            [c.leakage.calibration for c in cores]),
        "l2_vth": l2_vth["flat"],
        "l2_offsets": l2_vth["offsets"],
        "l2_share": l2.block_share,
        "l2_calibration": np.float64(l2.calibration),
    }


def profile_from_payload(
    payload: Payload,
    tech: TechParams,
    arch: ArchConfig,
    floorplan: Optional[Floorplan] = None,
    thermal: Optional[ThermalNetwork] = None,
) -> ChipProfile:
    """Rebuild a :class:`ChipProfile` from a cached payload.

    ``floorplan``/``thermal`` are deterministic functions of ``arch``
    and are *shared* structures on the profile; pass the caller's
    instances to keep experiments sharing one thermal network.
    """
    if int(payload["schema"]) != CACHE_SCHEMA_VERSION:
        raise ValueError("payload schema mismatch")
    n_cores = int(payload["n_cores"])
    if n_cores != arch.n_cores:
        raise ValueError("payload core count does not match arch")
    if floorplan is None:
        floorplan = build_floorplan(arch)
    if thermal is None:
        thermal = ThermalNetwork(floorplan)
    freq_calib = float(payload["freq_calibration"])
    leak_calib = np.asarray(payload["leak_calibration"], dtype=float)
    static = np.asarray(payload["static_rated"], dtype=float)
    voltages = payload["vf_voltages"]
    cores = []
    for i in range(n_cores):
        paths = PathSet(
            vth=_ragged_unpack(payload["path_vth"],
                               payload["path_offsets"], i),
            leff=_ragged_unpack(payload["path_leff"],
                                payload["path_offsets"], i))
        leakage = CoreLeakageModel(
            _ragged_unpack(payload["leak_vth"],
                           payload["leak_offsets"], i),
            _ragged_unpack(payload["leak_weights"],
                           payload["leak_offsets"], i),
            tech, float(leak_calib[i]))
        cores.append(CoreDescriptor(
            core_id=i,
            vf_table=VFTable(voltages=voltages,
                             freqs=payload["vf_freqs"][i]),
            freq_model=CoreFrequencyModel(paths, tech, freq_calib),
            leakage=leakage,
            static_power_rated=float(static[i]),
        ))
    n_blocks = int(payload["l2_offsets"].size) - 1
    l2 = L2LeakageModel.from_arrays(
        [_ragged_unpack(payload["l2_vth"], payload["l2_offsets"], j)
         for j in range(n_blocks)],
        payload["l2_share"], tech, float(payload["l2_calibration"]))
    return ChipProfile(
        die_id=int(payload["die_id"]),
        tech=tech,
        arch=arch,
        floorplan=floorplan,
        cores=tuple(cores),
        l2_leakage=l2,
        thermal=thermal,
    )


# ---------------------------------------------------------------------------
# npz packing
#
# An npz member costs a zip-entry open plus a header parse on every
# load; a payload has ~18 members, which dominates warm-read latency.
# Entries are therefore stored as exactly three data members — a JSON
# layout header plus one float64 and one int64 blob — and sliced back
# into the payload dict on load.


def _pack_payload(payload: Payload) -> Dict[str, np.ndarray]:
    layout = []
    f64_parts: List[np.ndarray] = []
    i64_parts: List[np.ndarray] = []
    for name in sorted(payload):
        arr = np.asarray(payload[name])
        if np.issubdtype(arr.dtype, np.integer):
            kind, parts = "i", i64_parts
            arr = arr.astype(np.int64, copy=False)
        else:
            kind, parts = "f", f64_parts
            arr = arr.astype(np.float64, copy=False)
        layout.append([name, kind, list(arr.shape)])
        parts.append(arr.ravel())
    header = np.frombuffer(json.dumps(layout).encode("utf-8"),
                           dtype=np.uint8)
    cat = (lambda parts, dtype:
           np.concatenate(parts) if parts else np.empty(0, dtype=dtype))
    return {"layout": header,
            "f64": cat(f64_parts, np.float64),
            "i64": cat(i64_parts, np.int64)}


def _unpack_payload(packed: Mapping[str, np.ndarray]) -> Payload:
    layout = json.loads(bytes(packed["layout"]).decode("utf-8"))
    blobs = {"f": packed["f64"], "i": packed["i64"]}
    starts = {"f": 0, "i": 0}
    payload: Payload = {}
    for name, kind, shape in layout:
        size = int(np.prod(shape)) if shape else 1
        start = starts[kind]
        chunk = blobs[kind][start:start + size]
        starts[kind] = start + size
        payload[name] = (chunk.reshape(shape) if shape
                         else chunk.reshape(()))
    return payload


# ---------------------------------------------------------------------------
# The on-disk store


class CharacterizationCache:
    """Content-addressed npz store with integrity verification.

    Writes are atomic (:func:`repro.storage.write_sealed`), so
    concurrent workers — process-pool shards or parallel pytest/CI
    jobs — can share one cache directory without corrupting entries.
    An entry that exists but fails :func:`repro.storage.read_sealed`
    is quarantined (not silently re-characterised): the file moves to
    ``<root>/quarantine/`` with a ``*.reason.json`` describing why,
    and the ``corrupt`` counter — distinct from ``misses``, which
    counts genuinely absent entries — increments.
    """

    QUARANTINE_DIR = "quarantine"

    def __init__(self, root: Union[str, pathlib.Path]) -> None:
        self.root = pathlib.Path(root)
        self.stats = Metrics(CACHE_COUNTERS)

    def path_for(self, key: str) -> pathlib.Path:
        return self.root / key[:2] / f"{key}.sealed"

    @property
    def quarantine_root(self) -> pathlib.Path:
        return self.root / self.QUARANTINE_DIR

    def load(self, key: str) -> Optional[Payload]:
        """The payload stored under ``key``, or None.

        An absent entry counts a miss; an entry that exists but fails
        verification is quarantined, counts ``corrupt``, and also
        returns None (the caller re-characterises either way).
        """
        path = self.path_for(key)
        try:
            blob = read_sealed(path, self.quarantine_root, key,
                               dict(key=key, entry=path.name,
                                    numpy=np.__version__),
                               format=_FORMAT, key=key)
        except FileNotFoundError:
            self.stats.incr("misses")
            return None
        if blob is None:
            self.stats.incr("corrupt")
            return None
        with np.load(io.BytesIO(blob)) as npz:
            payload = _unpack_payload(npz)
        self.stats.incr("hits")
        return payload

    def store(self, key: str, payload: Payload) -> None:
        """Atomically persist a payload under ``key``."""
        buf = io.BytesIO()
        np.savez_compressed(buf, **_pack_payload(payload))
        write_sealed(self.path_for(key), buf.getvalue(),
                     format=_FORMAT, key=key)
        self.stats.incr("stores")

    def clear(self) -> None:
        """Delete every entry (always safe: entries are pure caches)."""
        shutil.rmtree(self.root, ignore_errors=True)

    def snapshot(self) -> Dict[str, int]:
        """A copy of the hit/miss/corrupt/store counters."""
        return self.stats.snapshot()["counters"]

    # -- maintenance (the ``repro cache`` CLI subcommand) ------------

    def entries(self) -> Iterator[pathlib.Path]:
        """Entry files currently in the store (quarantine excluded)."""
        if not self.root.is_dir():
            return
        for bucket in sorted(p for p in self.root.iterdir()
                             if p.is_dir() and p.name != self.QUARANTINE_DIR):
            yield from sorted(bucket.glob("*.sealed"))

    def usage(self) -> Dict[str, int]:
        """Entry/byte counts for ``repro cache stats``."""
        n_entries = total = 0
        for path in self.entries():
            n_entries += 1
            try:
                total += path.stat().st_size
            except OSError:
                pass
        quarantined = (len(list(self.quarantine_root.glob("*.sealed")))
                       if self.quarantine_root.is_dir() else 0)
        return {"entries": n_entries, "bytes": total,
                "quarantined": quarantined}

    def verify_all(self) -> Dict[str, List[str]]:
        """Verify every entry; corrupt ones are quarantined.

        Returns the keys that verified (``ok``) and the keys that were
        quarantined by this pass (``corrupt``).
        """
        ok: List[str] = []
        corrupt: List[str] = []
        for path in list(self.entries()):
            key = path.stem
            before = self.stats.get("corrupt")
            payload = self.load(key)
            if payload is not None:
                ok.append(key)
            elif self.stats.get("corrupt") > before:
                corrupt.append(key)
        return {"ok": ok, "corrupt": corrupt}

    def gc(self, max_bytes: int) -> List[pathlib.Path]:
        """Evict least-recently-used entries until ``<= max_bytes``.

        LRU is approximated by file mtime (atomic stores refresh it;
        loads do not touch it, so this is closer to least-recently-
        *stored* — good enough for a content-addressed cache whose
        entries are all equally re-creatable). Returns removed paths.
        """
        if max_bytes < 0:
            raise ValueError("max_bytes must be non-negative")
        stamped = []
        total = 0
        for path in self.entries():
            try:
                stat = path.stat()
            except OSError:
                continue
            stamped.append((stat.st_mtime, path, stat.st_size))
            total += stat.st_size
        removed: List[pathlib.Path] = []
        for mtime, path, size in sorted(stamped):
            if total <= max_bytes:
                break
            try:
                os.unlink(path)
            except OSError:
                continue
            total -= size
            removed.append(path)
        return removed


# ---------------------------------------------------------------------------
# Process-wide default cache

_cache_instances: Dict[pathlib.Path, CharacterizationCache] = {}


def shared_cache(root: Union[str, pathlib.Path]) -> CharacterizationCache:
    """This process's one cache instance for ``root``.

    One instance is shared per root directory so hit/miss counters
    aggregate across every caller in the process — and survive a
    temporary root switch (e.g. a test pointing ``parallel_config``
    at a scratch directory) instead of resetting to zero.
    """
    root = pathlib.Path(root)
    if root not in _cache_instances:
        _cache_instances[root] = CharacterizationCache(root)
    return _cache_instances[root]


def get_default_cache() -> Optional[CharacterizationCache]:
    """The process-wide cache instance, or None when disabled."""
    current = settings()
    if not current.cache_enabled:
        return None
    return shared_cache(current.cache_root)
