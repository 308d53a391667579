"""Chunked, journaled, streaming fleet campaigns (fig04-shaped).

:func:`run_fleet_campaign` is the 10^5+-die driver: the die range is
cut into chunks; each chunk is characterised (optionally across
worker processes), pushed through the die-batched
:class:`~repro.runtime.kernel.EvalKernel` for the Figure-4 per-die
metrics, streamed to one columnar shard
(:func:`repro.fleet.shards.write_shard`), folded into the online
:class:`~repro.fleet.quantiles.FleetAccumulator`, and journaled.
Peak memory is O(chunk), never O(fleet).

Crash-safety rides the campaign journal
(:class:`~repro.parallel.journal.RunJournal`): every chunk's per-die
metric columns are recorded under a content key that pins tech/arch/
seed/chunk bounds, so ``--resume`` replays completed chunks from the
journal (JSON floats round-trip repr-exact, hence bitwise) and only
computes the tail. Shards (:func:`repro.storage.write_sealed`) and
the summary (:func:`repro.storage.write_atomic`) are replaced
atomically. A resumed campaign
therefore produces bitwise-identical shards and a byte-identical
``summary.json`` — the nightly CI job kills a campaign mid-run and
asserts exactly that.
"""

from __future__ import annotations

import dataclasses
import json
import pathlib
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Union

import numpy as np

from ..chip import ChipProfile
from ..config import ArchConfig, DEFAULT_TECH, TechParams
from ..floorplan import build_floorplan
from ..parallel import characterize_batch
from ..parallel.journal import RunJournal, merge_journals, unit_key
from ..parallel.manifest import ShardManifest
from ..parallel.runner import CacheArg
from ..runtime.evaluation import Assignment
from ..runtime.kernel import EvalKernel
from ..storage import IntegrityError, write_atomic
from ..thermal.hotspot import ThermalNetwork
from ..workloads import SPEC_APPS, Workload
from .quantiles import FleetAccumulator
from .shards import (
    iter_shards,
    load_shard,
    shard_name,
    write_shard,
)

__all__ = [
    "FLEET_ARCH",
    "DEFAULT_METRIC_SPEC",
    "FleetCampaignResult",
    "FleetPlan",
    "fleet_die_metrics",
    "load_summary",
    "merge_campaigns",
    "run_fleet_campaign",
    "summarize_shards",
]

#: Campaign-scale architecture: fig04 physics at a die size/grid that
#: characterises at fleet rates. (DEFAULT_ARCH's 20-core/64-grid dies
#: are for paper-fidelity figures, ~2 s/die; fleet campaigns trade
#: core count for throughput, keeping ~35 mm^2/core so the
#: leakage-temperature loop stays well inside its convergence region.)
FLEET_ARCH = ArchConfig(n_cores=4, die_area_mm2=140.0,
                        grid_resolution=16)

#: Histogram ranges for the fig04 per-die metrics. Paper values sit
#: around 1.5 (power) / 1.33 (freq); the declared ranges leave room
#: for heavy variation tails, and escapees still land in the counted
#: under/overflow bins.
DEFAULT_METRIC_SPEC: Dict[str, tuple] = {
    "power_ratio": (1.0, 4.0),
    "freq_ratio": (1.0, 3.0),
}


def fleet_die_metrics(chips: Sequence[ChipProfile],
                      with_power: bool = True) -> Dict[str, np.ndarray]:
    """Figure-4 per-die metrics for a fleet chunk, die-batched.

    Figure 4's per-die statistics — every app alone on every core at
    max levels, per-core mean power over apps, die ratio max/min, and
    the max/min core frequency — in one :class:`EvalKernel` per core:
    its rows are the chunk's ``n_apps * D`` (die, app) pairs
    (die-major, each die object repeated once per app, one
    single-thread workload per row), so the whole chunk's analysis is
    four kernel builds and four
    :meth:`EvalKernel.evaluate_max_levels_fleet` calls on the 4-core
    fleet die. Each call's ``core_power[:, 0]`` column is read
    directly, no per-row state is built, and the stacked ``(n_cores,
    D, n_apps)`` powers give every per-core app mean in one
    ``mean(axis=2)``: each of its rows is the serial ``np.mean`` over
    that contiguous row of app powers (``TestReductionAssumptions``).
    Max/min are exact, so results are bitwise-identical to a serial
    per-die, per-app loop (the reference in ``tests/references.py``;
    property-tested in tests/test_fleet.py).
    """
    d = len(chips)
    n_cores = chips[0].n_cores
    cols: Dict[str, np.ndarray] = {}
    fmax = np.stack([chip.fmax_array for chip in chips])
    cols["freq_ratio"] = fmax.max(axis=1) / fmax.min(axis=1)
    if not with_power:
        return cols
    n_apps = len(SPEC_APPS)
    rows = [chip for chip in chips for _ in range(n_apps)]
    workloads = [Workload((app,)) for app in SPEC_APPS] * d
    # Only one column of a core's kernel call is kept, so the analysis
    # holds one kernel's working set at a time.
    powers = np.stack([
        EvalKernel(rows, workloads, Assignment(core_of=(core_id,))
                   ).evaluate_max_levels_fleet().core_power[:, 0]
        for core_id in range(n_cores)]).reshape(n_cores, d, n_apps)
    mean_power = powers.mean(axis=2)
    cols["power_ratio"] = mean_power.max(axis=0) / mean_power.min(axis=0)
    return cols


@dataclass(frozen=True)
class FleetPlan:
    """Identity and shape of one fleet campaign (or one host's slice).

    ``start``/``n_dies`` describe the half-open die range
    ``[start, start + n_dies)`` — a multi-host manifest hands each
    host a plan differing only in that range, and die ``i`` is
    generated from the ``(seed, i)`` stream regardless of the range,
    so slicing never changes any die's identity.
    """

    name: str
    n_dies: int
    start: int = 0
    seed: int = 0
    chunk_dies: int = 64
    with_power: bool = True
    tech: TechParams = DEFAULT_TECH
    arch: ArchConfig = field(default_factory=lambda: FLEET_ARCH)

    def __post_init__(self) -> None:
        if self.n_dies < 1:
            raise ValueError("fleet needs at least one die")
        if self.start < 0:
            raise ValueError("die range must start at a non-negative "
                             "index")
        if self.chunk_dies < 1:
            raise ValueError("chunk size must be positive")
        if not self.name or "/" in self.name:
            raise ValueError("plan name must be a non-empty path "
                             "component")

    @property
    def end(self) -> int:
        return self.start + self.n_dies

    def chunks(self) -> List[tuple]:
        """Half-open (start, end) chunk bounds, aligned to multiples
        of ``chunk_dies`` from die 0 so every host of a manifest cuts
        identical chunk boundaries regardless of its range."""
        out = []
        lo = self.start
        while lo < self.end:
            aligned = ((lo // self.chunk_dies) + 1) * self.chunk_dies
            hi = min(aligned, self.end)
            out.append((lo, hi))
            lo = hi
        return out

    def identity(self) -> Dict[str, Any]:
        """Unit-key fields pinning the die population and analysis."""
        return {
            "tech": repr(sorted(dataclasses.asdict(self.tech).items())),
            "arch": repr(sorted(dataclasses.asdict(self.arch).items())),
            "seed": int(self.seed),
            "with_power": bool(self.with_power),
        }

    def metric_spec(self) -> Dict[str, tuple]:
        spec = {"freq_ratio": DEFAULT_METRIC_SPEC["freq_ratio"]}
        if self.with_power:
            spec["power_ratio"] = DEFAULT_METRIC_SPEC["power_ratio"]
        return spec

    def to_dict(self) -> Dict[str, Any]:
        return {
            "name": self.name,
            "n_dies": self.n_dies,
            "start": self.start,
            "seed": self.seed,
            "chunk_dies": self.chunk_dies,
            "with_power": self.with_power,
            "tech": dataclasses.asdict(self.tech),
            "arch": dataclasses.asdict(self.arch),
        }

    @classmethod
    def from_dict(cls, d: Dict[str, Any]) -> "FleetPlan":
        return cls(
            name=str(d["name"]),
            n_dies=int(d["n_dies"]),
            start=int(d.get("start", 0)),
            seed=int(d.get("seed", 0)),
            chunk_dies=int(d.get("chunk_dies", 64)),
            with_power=bool(d.get("with_power", True)),
            tech=TechParams(**d["tech"]),
            arch=ArchConfig(**d["arch"]),
        )


@dataclass
class FleetCampaignResult:
    """What a campaign run returns (perf facts stay out of
    ``summary.json``, which must be byte-deterministic).

    ``n_dies`` counts every die the summary covers; ``computed_dies``
    only those characterised and analysed by this run — chunks
    replayed from the journal, and everything a merge assembles, cost
    no analysis and stay out of :attr:`dies_per_s`.
    """

    plan: FleetPlan
    out_dir: pathlib.Path
    accumulator: FleetAccumulator
    n_dies: int
    n_chunks: int
    resumed_chunks: int
    computed_dies: int
    wall_s: float

    @property
    def dies_per_s(self) -> float:
        """Computed dies per wall-clock second of this run."""
        return self.computed_dies / self.wall_s if self.wall_s > 0 else 0.0

    @property
    def summary_path(self) -> pathlib.Path:
        return self.out_dir / "summary.json"


def _chunk_key(plan: FleetPlan, lo: int, hi: int) -> str:
    return unit_key(scope=f"fleet:{plan.name}", chunk_start=lo,
                    chunk_end=hi, **plan.identity())


def _write_summary(out_dir: pathlib.Path, plan: FleetPlan,
                   acc: FleetAccumulator, n_chunks: int) -> None:
    """Deterministic (sorted keys, fixed separators) ``summary.json``."""
    summary = {"plan": plan.to_dict(), "metrics": acc.summary(),
               "n_chunks": n_chunks}
    write_atomic(out_dir / "summary.json",
                 (json.dumps(summary, sort_keys=True, indent=2,
                             separators=(",", ": ")) + "\n").encode())


def run_fleet_campaign(
    plan: FleetPlan,
    out_root: Union[str, pathlib.Path],
    workers: Optional[int] = None,
    cache: CacheArg = None,
    progress: Optional[Callable[[int, int], None]] = None,
) -> FleetCampaignResult:
    """Run (or resume) one fleet campaign, streaming results to disk.

    Chunk characterisation runs die-batched (one field-sampler setup
    and one lockstep binning pass per chunk; see
    :func:`repro.chip.characterize_dies`); each die keeps its own
    streams, so chunk boundaries never change a die's values.

    Layout under ``<out_root>/<plan.name>/``: ``shards/`` (columnar
    npz per chunk), ``journal.jsonl`` (chunk-level resume journal,
    always on — fleet campaigns are crash-safe by construction, not
    by flag), ``summary.json`` (plan + online statistics; byte-
    deterministic, so an interrupted-then-resumed campaign emits
    exactly the bytes an uninterrupted one does).

    Args:
        plan: Campaign identity/shape; see :class:`FleetPlan`.
        out_root: Results root (``results/`` conventionally).
        workers: Worker processes for chunk characterisation
            (``None`` defers to the process-wide default).
        cache: Characterization cache policy. Defaults to ``None``
            (disabled): at fleet scale the on-disk cache is pure
            write traffic — dies are visited once.
        progress: Optional ``fn(done_dies, total_dies)`` callback,
            invoked after every chunk.

    Returns:
        :class:`FleetCampaignResult` with the online accumulator and
        throughput facts.
    """
    t0 = time.perf_counter()
    out_dir = pathlib.Path(out_root) / plan.name
    shard_dir = out_dir / "shards"
    out_dir.mkdir(parents=True, exist_ok=True)
    journal = RunJournal(out_dir / "journal.jsonl")
    scope = f"fleet:{plan.name}"

    floorplan = build_floorplan(plan.arch)
    thermal = ThermalNetwork(floorplan)
    acc = FleetAccumulator(plan.metric_spec())
    chunks = plan.chunks()
    done = 0
    resumed = 0
    computed = 0
    for lo, hi in chunks:
        key = _chunk_key(plan, lo, hi)
        stored = journal.lookup(key)
        if stored is not None:
            cols = {name: np.asarray(vals, dtype=float)
                    for name, vals in stored.items()}
            resumed += 1
            # Re-create the shard if the crash window hit between
            # journal append and shard write (or the shard dir was
            # lost): journaled floats are repr-exact, so the arrays
            # are bitwise what the original run wrote.
            if not (shard_dir / shard_name(lo, hi)).exists():
                write_shard(shard_dir, lo, hi, cols)
        else:
            chips = characterize_batch(
                plan.tech, plan.arch, plan.seed, list(range(lo, hi)),
                workers=workers, cache=cache,
                floorplan=floorplan, thermal=thermal)
            cols = fleet_die_metrics(chips, with_power=plan.with_power)
            computed += hi - lo
            write_shard(shard_dir, lo, hi, cols)
            journal.record(
                key,
                {"scope": scope, "chunk_start": lo, "chunk_end": hi},
                {name: [float(x) for x in vals]
                 for name, vals in sorted(cols.items())})
        acc.add_dies(cols)
        done += hi - lo
        if progress is not None:
            progress(done, plan.n_dies)
    journal.require_complete(
        [_chunk_key(plan, lo, hi) for lo, hi in chunks], scope=scope)
    journal.mark_complete(scope, len(chunks))
    _write_summary(out_dir, plan, acc, len(chunks))
    wall = time.perf_counter() - t0
    return FleetCampaignResult(
        plan=plan, out_dir=out_dir, accumulator=acc,
        n_dies=plan.n_dies, n_chunks=len(chunks),
        resumed_chunks=resumed, computed_dies=computed, wall_s=wall)


def merge_campaigns(
    manifest: ShardManifest,
    host_dirs: Sequence[Union[str, pathlib.Path]],
    out_root: Union[str, pathlib.Path],
    require_complete: bool = True,
) -> FleetCampaignResult:
    """Merge per-host campaign slices into one full campaign.

    ``host_dirs`` are the hosts' campaign output directories (each a
    ``<out_root>/<name>`` layout with ``journal.jsonl`` + ``shards/``),
    in any order — unit content keys, not directory naming, establish
    which results belong where. The hosts' journals are merged into
    the destination journal (conflicting duplicates refuse the merge),
    each merged chunk's shard is written from its checksummed
    journaled columns (host shard files are never copied, so a host
    shard damaged on disk cannot reach the merge), and the online
    statistics are rebuilt by replaying chunks in die order — so when
    the manifest's host slices are chunk-aligned (the
    :meth:`ShardManifest.partition` default), the merged
    ``summary.json`` is byte-identical to what a single-host run over
    the full range writes.

    With ``require_complete`` (the default), the merge refuses to
    emit a summary unless every chunk of the full die range is
    journaled — :class:`~repro.parallel.journal.IncompleteJournalError`
    names the gap. ``require_complete=False`` produces a best-effort
    partial summary and skips the journal's ``complete`` mark, so a
    later merge (or resume) can finish the campaign.
    """
    t0 = time.perf_counter()
    plan = FleetPlan.from_dict(manifest.params)
    out_dir = pathlib.Path(out_root) / plan.name
    shard_dir = out_dir / "shards"
    out_dir.mkdir(parents=True, exist_ok=True)
    shard_dir.mkdir(parents=True, exist_ok=True)
    dest = RunJournal(out_dir / "journal.jsonl")
    scope = f"fleet:{plan.name}"

    merge_journals(dest, [pathlib.Path(d) / "journal.jsonl"
                          for d in host_dirs
                          if (pathlib.Path(d) / "journal.jsonl").exists()])

    # The merged campaign's chunk grid is the union of the hosts'
    # grids (identical to the full plan's grid when slices are
    # chunk-aligned); completeness and statistics replay over it in
    # die order.
    chunks: List[tuple] = []
    for h in manifest.hosts:
        host_plan = FleetPlan.from_dict(manifest.host_plan_params(h.host))
        chunks.extend(host_plan.chunks())
    keys = [_chunk_key(plan, lo, hi) for lo, hi in chunks]
    if require_complete:
        dest.require_complete(keys, scope=scope)

    acc = FleetAccumulator(plan.metric_spec())
    covered = 0
    for (lo, hi), key in zip(chunks, keys):
        stored = dest.lookup(key)
        if stored is None:
            continue
        cols = {name: np.asarray(vals, dtype=float)
                for name, vals in stored.items()}
        write_shard(shard_dir, lo, hi, cols)
        acc.add_dies(cols)
        covered += hi - lo
    if require_complete:
        dest.mark_complete(scope, len(chunks))
    _write_summary(out_dir, plan, acc, len(chunks))
    return FleetCampaignResult(
        plan=plan, out_dir=out_dir, accumulator=acc,
        n_dies=covered, n_chunks=len(chunks),
        resumed_chunks=len(chunks), computed_dies=0,
        wall_s=time.perf_counter() - t0)


def summarize_shards(shard_dir: Union[str, pathlib.Path],
                     spec: Optional[Dict[str, tuple]] = None,
                     ) -> FleetAccumulator:
    """Rebuild an online accumulator by streaming the shards on disk.

    Used by ``repro fleet stats`` to recompute campaign statistics
    from the shards on disk — one shard in memory at a time (the
    multi-host merge, :func:`merge_campaigns`, replays journals
    instead). Metrics not present in a shard are skipped; ``spec``
    defaults to the ranges the campaign driver uses.
    """
    acc = FleetAccumulator(dict(spec or DEFAULT_METRIC_SPEC))
    for info in iter_shards(shard_dir):
        try:
            cols = load_shard(info.path)
        except IntegrityError:
            # The shard was quarantined by load_shard; its range now
            # reads as a coverage gap for a resumed campaign to
            # recompute rather than a poisoned contribution.
            continue
        acc.add_dies({k: v for k, v in cols.items() if k != "die"})
    return acc


def load_summary(out_dir: Union[str, pathlib.Path]) -> Dict[str, Any]:
    """Parse a campaign's ``summary.json``."""
    path = pathlib.Path(out_dir) / "summary.json"
    with open(path, encoding="utf-8") as fh:
        out = json.load(fh)
    if not isinstance(out, dict) or "metrics" not in out:
        raise ValueError(f"{path} is not a fleet campaign summary")
    return out
