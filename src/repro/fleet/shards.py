"""Columnar append-only result shards for fleet campaigns.

A campaign never holds per-die results for the whole fleet in memory:
each chunk of dies is written out as one compressed npz *shard* —
aligned 1-D columns (``die`` plus one column per metric) covering a
contiguous, half-open die range — under ``results/<run>/shards/``.
Shards are immutable once written and replaced whole through
:func:`repro.storage.write_sealed`, so a reader (or a resumed run)
never observes a torn file, and re-writing a shard from journaled
results is an atomic replace.

File naming is the range: ``shard-<start>-<end>.sealed`` with
zero-padded 8-digit bounds, so a plain lexicographic directory
listing is already die order and coverage/gap analysis needs no index
file.

Integrity: each file is the npz bytes sealed under ``{format, start,
end}``. :func:`load_shard` reads it through
:func:`repro.storage.read_sealed`, which *quarantines* a shard that
is unreadable, fails its digest or was renamed to another range —
moves it to ``<shard_dir>/quarantine/`` beside a structured
``<name>.reason.json`` — so the range reads as a coverage gap and a
resumed campaign recomputes it instead of folding silent bit rot into
fleet statistics. Shards written before the container (``.npz``
names) are not shards to :func:`iter_shards`; a resumed campaign
rewrites them from its journal.
"""

from __future__ import annotations

import io
import pathlib
import re
from dataclasses import dataclass
from typing import Dict, Iterator, Union

import numpy as np

from ..storage import IntegrityError, read_sealed, write_sealed

__all__ = [
    "ShardInfo",
    "iter_shards",
    "load_shard",
    "shard_name",
    "write_shard",
]

#: The ``format`` identity field of each shard's sealed header.
_FORMAT = "fleet-shard"

_SHARD_RE = re.compile(r"^shard-(\d{8})-(\d{8})\.sealed$")

PathLike = Union[str, pathlib.Path]


def shard_name(start: int, end: int) -> str:
    """Canonical filename for the half-open die range [start, end)."""
    if not 0 <= start < end:
        raise ValueError("need 0 <= start < end")
    if end > 10 ** 8:
        raise ValueError("die index exceeds the 8-digit shard naming")
    return f"shard-{start:08d}-{end:08d}.sealed"


@dataclass(frozen=True)
class ShardInfo:
    """One shard file and the die range it covers."""

    path: pathlib.Path
    start: int
    end: int


def write_shard(shard_dir: PathLike, start: int, end: int,
                columns: Dict[str, np.ndarray]) -> pathlib.Path:
    """Atomically write one columnar shard for dies [start, end).

    Every column must be 1-D with exactly ``end - start`` entries; a
    ``die`` column holding the absolute die indices is added
    automatically. The npz is built in memory and sealed whole with
    :func:`repro.storage.write_sealed` — crash-safe and
    last-writer-wins. Note npz is a zip container with member
    timestamps, so two byte-wise comparisons of *files* from different
    runs will differ; equality checks must compare loaded arrays
    (see :func:`load_shard` and the nightly resume check).
    """
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
        arrays[name] = arr
    buf = io.BytesIO()
    np.savez_compressed(buf, **arrays)
    return write_sealed(pathlib.Path(shard_dir) / shard_name(start, end),
                        buf.getvalue(), format=_FORMAT, start=start,
                        end=end)


def load_shard(path: PathLike) -> Dict[str, np.ndarray]:
    """Load one shard's columns as plain in-memory arrays.

    The die range its name claims is the identity its header must
    carry. A shard that fails :func:`repro.storage.read_sealed` has
    been quarantined and raises :class:`repro.storage.IntegrityError`.
    """
    path = pathlib.Path(path)
    m = _SHARD_RE.match(path.name)
    if m is None:
        raise ValueError(f"{path.name} is not a shard name")
    blob = read_sealed(path, path.parent / "quarantine", path.name,
                       {"shard": path.name}, format=_FORMAT,
                       start=int(m.group(1)), end=int(m.group(2)))
    if blob is None:
        raise IntegrityError(
            f"{path.name} failed verification and was quarantined")
    with np.load(io.BytesIO(blob)) as data:
        return {name: data[name] for name in data.files}


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
