"""Multi-host campaign manifests: who runs which dies.

A fleet campaign scales past one machine by partitioning the die
range: a :class:`ShardManifest` names the campaign (one
:class:`~repro.fleet.campaign.FleetPlan`-shaped parameter block) and
assigns each host a contiguous, disjoint slice ``[start, end)`` of
the fleet. Dies are generated from the ``(seed, die_index)`` stream
independently of the slice bounds, so the partitioning is purely an
execution concern — any host layout produces the same per-die
results, and ``repro fleet merge`` reassembles the hosts' journals
and shards into the single-campaign layout.

The manifest is a plain JSON file, replaced atomically
(:func:`repro.storage.write_atomic`) and checked into whatever
orchestrates the hosts (CI matrix, mpirun wrapper, humans with ssh).
"""

from __future__ import annotations

import json
import pathlib
from dataclasses import dataclass
from typing import Any, Dict, List, Sequence, Tuple, Union

from ..storage import write_atomic

__all__ = ["HostSlice", "ShardManifest"]

PathLike = Union[str, pathlib.Path]

MANIFEST_TAG = "fleet-manifest-v1"


@dataclass(frozen=True)
class HostSlice:
    """One host's contiguous die range ``[start, end)``."""

    host: str
    start: int
    end: int

    @property
    def n_dies(self) -> int:
        return self.end - self.start

    def to_dict(self) -> Dict[str, Any]:
        return {"host": self.host, "start": self.start, "end": self.end}

    @classmethod
    def from_dict(cls, d: Dict[str, Any]) -> "HostSlice":
        return cls(host=str(d["host"]), start=int(d["start"]),
                   end=int(d["end"]))


@dataclass(frozen=True)
class ShardManifest:
    """A campaign parameter block plus its host partitioning.

    ``params`` is the full-campaign :meth:`FleetPlan.to_dict` payload
    (``start`` 0, ``n_dies`` the whole fleet); each host derives its
    own plan via :meth:`host_plan_params`, differing only in the die
    range. Slices must be disjoint, in order, and tile the full range
    exactly — a manifest that under- or over-covers the fleet is a
    configuration bug worth failing loudly on at *plan* time, not at
    merge time.
    """

    params: Dict[str, Any]
    hosts: Tuple[HostSlice, ...]

    def __post_init__(self) -> None:
        n_dies = int(self.params["n_dies"])
        start = int(self.params.get("start", 0))
        if not self.hosts:
            raise ValueError("manifest needs at least one host")
        names = [h.host for h in self.hosts]
        if len(set(names)) != len(names):
            raise ValueError("manifest host names must be unique")
        cursor = start
        for h in self.hosts:
            if h.start != cursor:
                raise ValueError(
                    f"host {h.host!r} starts at die {h.start}, expected "
                    f"{cursor}: slices must tile the range in order "
                    "with no gaps or overlaps")
            if h.end <= h.start:
                raise ValueError(f"host {h.host!r} has an empty slice")
            cursor = h.end
        if cursor != start + n_dies:
            raise ValueError(
                f"host slices cover up to die {cursor}, but the "
                f"campaign ends at {start + n_dies}")

    # -- construction --------------------------------------------------

    @classmethod
    def partition(cls, params: Dict[str, Any],
                  hosts: Sequence[str]) -> "ShardManifest":
        """Split the campaign evenly across ``hosts`` (in order).

        Slice boundaries are aligned to the plan's ``chunk_dies`` so
        every host cuts the same chunk grid the single-host run would
        — merged journals/shards are then bit-compatible with a
        single-host campaign over the full range.
        """
        if not hosts:
            raise ValueError("need at least one host")
        n_dies = int(params["n_dies"])
        start = int(params.get("start", 0))
        chunk = int(params.get("chunk_dies", 64))
        n_hosts = len(hosts)
        if n_dies < n_hosts:
            raise ValueError("more hosts than dies")
        slices: List[HostSlice] = []
        cursor = start
        for i, host in enumerate(hosts):
            if i == n_hosts - 1:
                end = start + n_dies
            else:
                ideal = start + (n_dies * (i + 1)) // n_hosts
                end = max(cursor + 1,
                          ((ideal + chunk // 2) // chunk) * chunk)
                end = min(end, start + n_dies - (n_hosts - 1 - i))
            slices.append(HostSlice(host=str(host), start=cursor,
                                    end=end))
            cursor = end
        return cls(params=dict(params), hosts=tuple(slices))

    # -- queries -------------------------------------------------------

    @property
    def n_dies(self) -> int:
        return int(self.params["n_dies"])

    @property
    def name(self) -> str:
        return str(self.params["name"])

    def host_slice(self, host: str) -> HostSlice:
        for h in self.hosts:
            if h.host == host:
                return h
        raise KeyError(f"host {host!r} is not in the manifest "
                       f"({[h.host for h in self.hosts]})")

    def host_die_range(self, host: str) -> Tuple[int, int]:
        """The half-open die range assigned to ``host``."""
        h = self.host_slice(host)
        return (h.start, h.end)

    def host_plan_params(self, host: str) -> Dict[str, Any]:
        """``FleetPlan.from_dict`` payload for one host's slice."""
        h = self.host_slice(host)
        params = dict(self.params)
        params["start"] = h.start
        params["n_dies"] = h.n_dies
        return params

    # -- persistence ---------------------------------------------------

    def to_dict(self) -> Dict[str, Any]:
        return {
            "tag": MANIFEST_TAG,
            "params": dict(self.params),
            "hosts": [h.to_dict() for h in self.hosts],
        }

    def write(self, path: PathLike) -> pathlib.Path:
        payload = json.dumps(self.to_dict(), sort_keys=True,
                             indent=2) + "\n"
        return write_atomic(path, payload.encode("utf-8"))

    @classmethod
    def load(cls, path: PathLike) -> "ShardManifest":
        with open(pathlib.Path(path), encoding="utf-8") as fh:
            d = json.load(fh)
        if d.get("tag") != MANIFEST_TAG:
            raise ValueError(
                f"{path} is not a fleet manifest (tag {d.get('tag')!r})")
        return cls(params=dict(d["params"]),
                   hosts=tuple(HostSlice.from_dict(h)
                               for h in d["hosts"]))
