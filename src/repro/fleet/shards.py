"""Columnar append-only result shards for fleet campaigns.

A campaign never holds per-die results for the whole fleet in memory:
each chunk of dies is written out as one compressed npz *shard* —
aligned 1-D columns (``die`` plus one column per metric) covering a
contiguous, half-open die range — under ``results/<run>/shards/``.
Shards are immutable once written and replaced whole through
:func:`repro.storage.write_atomic`, so a reader (or a resumed run)
never observes a torn file, and re-writing a shard from journaled
results is an atomic replace.

File naming is the range: ``shard-<start>-<end>.npz`` with zero-padded
8-digit bounds, so a plain lexicographic directory listing is already
die order and coverage/gap analysis needs no index file.

Integrity (format v2): every shard embeds a sha256 digest over its
column *data* (names, dtypes, shapes, bytes — not the zip container,
whose member timestamps make file bytes unstable across runs).
:func:`load_shard` verifies the digest and *quarantines* a corrupt
shard — moves it to ``<shard_dir>/quarantine/`` beside a structured
``<name>.reason.json`` (:func:`repro.storage.quarantine`) — so the
range reads as a coverage gap and a resumed campaign recomputes it
instead of folding silent bit rot into fleet statistics. v1 shards
(no digest member) load transparently, unverified.
"""

from __future__ import annotations

import hashlib
import io
import pathlib
import re
import zipfile
from dataclasses import dataclass
from typing import Dict, Iterator, List, Tuple, Union

import numpy as np

from ..storage import quarantine, write_atomic

__all__ = [
    "SHARD_FORMAT",
    "ShardInfo",
    "ShardIntegrityError",
    "coverage_ranges",
    "iter_shards",
    "load_shard",
    "missing_ranges",
    "quarantine_shard",
    "shard_digest",
    "shard_name",
    "write_shard",
]

#: Shard container format. v1 had no integrity members; v2 adds the
#: ``__format__`` and ``__digest__`` members checked on load.
SHARD_FORMAT = 2

#: npz members that carry metadata rather than per-die columns.
_META_MEMBERS = ("__format__", "__digest__")

_SHARD_RE = re.compile(r"^shard-(\d{8})-(\d{8})\.npz$")

PathLike = Union[str, pathlib.Path]


class ShardIntegrityError(RuntimeError):
    """A shard failed its digest (it has been quarantined)."""


def shard_name(start: int, end: int) -> str:
    """Canonical filename for the half-open die range [start, end)."""
    if not 0 <= start < end:
        raise ValueError("need 0 <= start < end")
    if end > 10 ** 8:
        raise ValueError("die index exceeds the 8-digit shard naming")
    return f"shard-{start:08d}-{end:08d}.npz"


@dataclass(frozen=True)
class ShardInfo:
    """One shard file and the die range it covers."""

    path: pathlib.Path
    start: int
    end: int

    @property
    def n_dies(self) -> int:
        return self.end - self.start


def shard_digest(arrays: Dict[str, np.ndarray]) -> str:
    """Canonical sha256 over column data (container-independent).

    Hashes sorted names with each column's dtype, shape and raw
    C-order bytes, so the digest survives re-zipping (npz member
    timestamps) and pins exactly what the statistics consume.
    """
    h = hashlib.sha256(b"fleet-shard-v2\n")
    for name in sorted(arrays):
        if name in _META_MEMBERS:
            continue
        arr = np.ascontiguousarray(arrays[name])
        h.update(f"{name}\n{arr.dtype.str}\n{arr.shape}\n".encode())
        h.update(arr.tobytes())
    return h.hexdigest()


def quarantine_shard(path: PathLike, reason: str) -> pathlib.Path:
    """Move a corrupt shard aside with a structured reason record.

    The shard lands in ``<shard_dir>/quarantine/`` next to a
    ``<name>.reason.json``; its die range becomes a coverage gap that
    :func:`missing_ranges` reports and a resumed campaign recomputes.
    """
    path = pathlib.Path(path)
    return quarantine(path, path.parent / "quarantine", path.name,
                      reason, shard=path.name)


def write_shard(shard_dir: PathLike, start: int, end: int,
                columns: Dict[str, np.ndarray]) -> pathlib.Path:
    """Atomically write one columnar shard for dies [start, end).

    Every column must be 1-D with exactly ``end - start`` entries; a
    ``die`` column holding the absolute die indices is added
    automatically. The npz is built in memory and replaced whole with
    :func:`repro.storage.write_atomic` — crash-safe and
    last-writer-wins. Note npz is a zip container with member
    timestamps, so two byte-wise comparisons of *files* from different
    runs will differ; equality checks must compare loaded arrays
    (see :func:`load_shard` and the nightly resume check).
    """
    shard_dir = pathlib.Path(shard_dir)
    n = end - start
    arrays: Dict[str, np.ndarray] = {
        "die": np.arange(start, end, dtype=np.int64)}
    for name, col in columns.items():
        arr = np.asarray(col)
        if arr.ndim != 1 or arr.size != n:
            raise ValueError(
                f"column {name!r} has shape {arr.shape}, expected "
                f"({n},) for die range [{start}, {end})")
        if name == "die":
            raise ValueError("'die' is the implicit index column")
        if name in _META_MEMBERS:
            raise ValueError(f"{name!r} is a reserved member name")
        arrays[name] = arr
    arrays["__format__"] = np.int64(SHARD_FORMAT)
    arrays["__digest__"] = np.array(shard_digest(arrays))
    buf = io.BytesIO()
    np.savez_compressed(buf, **arrays)
    return write_atomic(shard_dir / shard_name(start, end),
                        buf.getvalue())


def load_shard(path: PathLike,
               verify: bool = True) -> Dict[str, np.ndarray]:
    """Load one shard's columns as plain in-memory arrays.

    A v2 shard is digest-verified (``verify=False`` skips it); one
    that is unreadable or fails its digest is quarantined via
    :func:`quarantine_shard` and raised as
    :class:`ShardIntegrityError`. A v1 shard — no digest member —
    loads transparently, unverified.
    """
    path = pathlib.Path(path)
    try:
        with np.load(path) as data:
            arrays = {name: data[name].copy() for name in data.files}
    except (OSError, ValueError, zipfile.BadZipFile, EOFError) as exc:
        quarantine_shard(path, f"unreadable: {type(exc).__name__}: "
                               f"{exc}")
        raise ShardIntegrityError(
            f"{path.name} is unreadable and was quarantined: "
            f"{exc}") from exc
    stored = arrays.pop("__digest__", None)
    arrays.pop("__format__", None)
    if verify and stored is not None:
        expect = str(stored)
        actual = shard_digest(arrays)
        if actual != expect:
            quarantine_shard(
                path, f"digest mismatch: stored {expect}, "
                      f"computed {actual}")
            raise ShardIntegrityError(
                f"{path.name} failed its content digest and was "
                f"quarantined")
    return arrays


def iter_shards(shard_dir: PathLike) -> Iterator[ShardInfo]:
    """Shards in die order (their names sort by range)."""
    shard_dir = pathlib.Path(shard_dir)
    if not shard_dir.is_dir():
        return
    for entry in sorted(shard_dir.iterdir()):
        m = _SHARD_RE.match(entry.name)
        if m:
            yield ShardInfo(path=entry, start=int(m.group(1)),
                            end=int(m.group(2)))


def coverage_ranges(shard_dir: PathLike) -> List[Tuple[int, int]]:
    """Merged, sorted die ranges covered by the shards on disk.

    Raises if two shards overlap — overlapping ranges mean two writers
    disagreed about chunking and the campaign must not silently pick
    one.
    """
    merged: List[Tuple[int, int]] = []
    for info in iter_shards(shard_dir):
        if merged and info.start < merged[-1][1]:
            raise ValueError(
                f"overlapping shards at die {info.start}: "
                f"{merged[-1]} vs ({info.start}, {info.end})")
        if merged and info.start == merged[-1][1]:
            merged[-1] = (merged[-1][0], info.end)
        else:
            merged.append((info.start, info.end))
    return merged


def missing_ranges(shard_dir: PathLike, start: int,
                   end: int) -> List[Tuple[int, int]]:
    """Gaps in shard coverage over the die range [start, end)."""
    gaps: List[Tuple[int, int]] = []
    cursor = start
    for lo, hi in coverage_ranges(shard_dir):
        if hi <= cursor:
            continue
        if lo >= end:
            break
        if lo > cursor:
            gaps.append((cursor, min(lo, end)))
        cursor = max(cursor, hi)
        if cursor >= end:
            break
    if cursor < end:
        gaps.append((cursor, end))
    return gaps
