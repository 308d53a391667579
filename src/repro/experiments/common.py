"""Shared infrastructure for the paper-figure experiments.

Every experiment module exposes a ``run(...)`` function returning a
result dataclass with a ``format_table()`` method that prints the same
rows/series the paper's figure or table reports. Experiments default to
reduced batch sizes so they complete in seconds; pass
``n_dies=200, n_trials=20`` (or set the ``REPRO_FULL`` environment
variable) for the paper's full protocol.

:func:`trial_table` is the one trial loop of the paper's Section 6.4
protocol, with journaled resume and prefetch; its callers (the
scheduling and power-management runners, fig09's Section 7.4 ratios,
Fig 14 and the ablations) only say how one (method, die, workload)
unit is measured. :func:`normalise` turns its table into the means,
and :class:`SweepResult` holds and prints the means of a Figs 7-13
sweep.
"""

from __future__ import annotations

import dataclasses
import numbers
import zlib
from typing import (Any, Callable, Dict, Iterator, List, NamedTuple,
                    Optional, Sequence, Tuple)

import numpy as np

from ..chip import ChipProfile
from ..config import ArchConfig, DEFAULT_ARCH, DEFAULT_TECH, TechParams
from ..floorplan import Floorplan, build_floorplan
from ..parallel import characterize_batch
from ..parallel.journal import active_journal, unit_key
from ..parallel.runner import CacheArg
from ..settings import settings
from ..thermal import ThermalNetwork
from ..workloads import Workload, make_workload

# Reduced defaults for interactive runs; the paper uses 200 dies and
# 20 workload trials per experiment.
DEFAULT_N_DIES = 30
DEFAULT_N_TRIALS = 8
PAPER_N_DIES = 200
PAPER_N_TRIALS = 20


def default_n_dies() -> int:
    """Die-batch size: the paper's 200 under REPRO_FULL, else reduced."""
    return PAPER_N_DIES if settings().full else DEFAULT_N_DIES


def default_n_trials() -> int:
    """Workload trials: the paper's 20 under REPRO_FULL, else reduced."""
    return PAPER_N_TRIALS if settings().full else DEFAULT_N_TRIALS


class ChipFactory:
    """Caches floorplan, thermal network and characterised dies.

    Characterisation is deterministic per (tech, arch, seed, die), so
    caching is purely a speed concern — experiments share dies freely.
    Characterisation goes through :func:`repro.parallel
    .characterize_batch`: batch requests shard across ``workers``
    processes, and dies already in the persistent on-disk cache skip
    characterisation entirely. Both layers are bitwise-transparent.

    Args:
        workers: Process count for batch characterisation. ``None``
            defers to the process-wide default (CLI ``--workers`` /
            ``REPRO_WORKERS``), which resolves at call time.
        cache: ``"auto"`` (the shared on-disk cache, unless disabled
            via ``--no-cache`` / ``REPRO_NO_CACHE``), ``None``
            (disabled), or an explicit
            :class:`~repro.parallel.CharacterizationCache`.
    """

    def __init__(self, tech: TechParams = DEFAULT_TECH,
                 arch: ArchConfig = DEFAULT_ARCH, seed: int = 0,
                 workers: Optional[int] = None,
                 cache: CacheArg = "auto") -> None:
        self.tech = tech
        self.arch = arch
        self.seed = seed
        self.workers = workers
        self.cache = cache
        self.floorplan: Floorplan = build_floorplan(arch)
        self.thermal = ThermalNetwork(self.floorplan)
        self._chips: Dict[int, ChipProfile] = {}

    def _characterize(self, die_indices: List[int]) -> None:
        profiles = characterize_batch(
            self.tech, self.arch, self.seed, die_indices,
            workers=self.workers, cache=self.cache,
            floorplan=self.floorplan, thermal=self.thermal)
        self._chips.update(zip(die_indices, profiles))

    def chip(self, die_index: int) -> ChipProfile:
        """Characterised chip for die ``die_index`` (cached)."""
        if die_index not in self._chips:
            self._characterize([die_index])
        return self._chips[die_index]

    def chips(self, n_dies: int) -> List[ChipProfile]:
        """The first ``n_dies`` characterised chips (one sharded run)."""
        return self.chips_for(range(n_dies))

    def chips_for(self, die_indices: Sequence[int]) -> List[ChipProfile]:
        """Characterised chips for arbitrary ``die_indices``."""
        indices = list(die_indices)
        missing = [i for i in indices if i not in self._chips]
        if missing:
            self._characterize(missing)
        return [self._chips[i] for i in indices]

    def prefetch(self, n_dies: int) -> "ChipFactory":
        """Characterise dies ``0..n_dies-1`` up front (one sharded run).

        Runners that walk dies one at a time call this first so cache
        misses are characterised in parallel instead of per-die.
        """
        self.chips(n_dies)
        return self

    def chips_stream(self, die_indices: Sequence[int],
                     chunk_dies: int = 64) -> Iterator[List[ChipProfile]]:
        """Characterised chips in chunks, *without* retaining them.

        The fleet-scale sibling of :meth:`chips_for`: yields one
        chunk of profiles at a time and never populates the in-memory
        chip dict, so walking 10^5+ dies stays O(chunk) in memory.
        Each chunk shares the factory's floorplan/thermal structures
        and is ready for the die-batched
        :class:`~repro.runtime.kernel.EvalKernel`.
        """
        indices = list(die_indices)
        for lo in range(0, len(indices), chunk_dies):
            yield characterize_batch(
                self.tech, self.arch, self.seed,
                indices[lo:lo + chunk_dies],
                workers=self.workers, cache=self.cache,
                floorplan=self.floorplan, thermal=self.thermal)


#: ``measure(method, trial, chip, workload, rng)``: one unit's raw
#: metrics, in the same order for every method.
Measure = Callable[[Any, int, ChipProfile, Workload, np.random.Generator],
                   Sequence[float]]


class Arm(NamedTuple):
    """A named method whose ``spec`` the caller's ``measure`` reads."""

    name: str
    spec: Any


def trial_table(
    factory: ChipFactory,
    methods: Sequence[Any],
    measure: Measure,
    *,
    n_threads: int,
    n_trials: int,
    n_dies: int,
    seed: int,
    workload_tag: int,
    experiment: Optional[str],
    name_field: str,
    key_fields: Dict[str, object],
) -> np.ndarray:
    """Run every method on the same trials; the raw per-trial table.

    Trial ``t`` runs on die ``t % n_dies`` with the workload
    ``make_workload(n_threads, default_rng([seed, t, workload_tag]))``;
    each method (any object with a ``name``) gets its own rng
    ``[seed, t, crc32(name)]``, so methods differ only in what they
    do with the same (die, workload) pair.

    In resume mode (``--resume``/``--fresh``, ``REPRO_RESUME=1``) with
    an ``experiment`` tag, each (trial, method) unit's raw metrics go
    to ``results/<experiment>/journal.jsonl`` under a
    :func:`~repro.parallel.journal.unit_key` over the experiment,
    thread count, trial, seed, die, ``{name_field: name}``,
    ``key_fields`` and the factory's tech, arch and seed. Journaled
    units are replayed instead of measured, and the chip and workload
    of a trial are built only when one of its units is missing. The
    journal must hold every unit before the table is returned.

    Returns:
        float64 array (trials x methods x metrics) of raw metrics.

    Raises:
        ValueError: Two methods share a name, or ``n_trials``/``n_dies``
            is below 1.
    """
    names = [method.name for method in methods]
    if len(set(names)) != len(names):
        raise ValueError(f"method names must be distinct, got {names}")
    if n_trials < 1 or n_dies < 1:
        raise ValueError(f"need n_trials >= 1 and n_dies >= 1, got "
                         f"{n_trials} and {n_dies}")
    journal = active_journal(experiment) if experiment else None
    units = [(trial, name) for trial in range(n_trials) for name in names]
    keys: Dict[Tuple[int, str], str] = {}
    raw: Dict[Tuple[int, str], Optional[List[float]]] = dict.fromkeys(units)
    if journal is not None:
        # Pin the die population so no other tech/arch/batch replays.
        identity = {
            "tech": repr(sorted(dataclasses.asdict(factory.tech).items())),
            "arch": repr(sorted(dataclasses.asdict(factory.arch).items())),
            "factory_seed": int(factory.seed)}
        for trial, name in units:
            keys[trial, name] = unit_key(
                experiment=experiment, n_threads=n_threads, trial=trial,
                seed=seed, die=trial % n_dies, **{name_field: name},
                **key_fields, **identity)
            raw[trial, name] = journal.lookup(keys[trial, name])
    if None in raw.values():
        factory.prefetch(min(n_trials, n_dies))
    for trial in range(n_trials):
        missing = [method for method in methods
                   if raw[trial, method.name] is None]
        if missing:
            chip = factory.chip(trial % n_dies)
            workload = make_workload(
                n_threads, np.random.default_rng([seed, trial, workload_tag]))
        for method in missing:
            # crc32, not hash(): str hashing is randomised per process
            # (PYTHONHASHSEED), which made these trials irreproducible.
            rng = np.random.default_rng(
                [seed, trial, zlib.crc32(method.name.encode())])
            values = raw[trial, method.name] = [
                float(v) for v in measure(method, trial, chip, workload, rng)]
            if journal is not None:
                journal.record(keys[trial, method.name],
                               {"experiment": experiment, "trial": trial,
                                name_field: method.name,
                                "n_threads": n_threads},
                               values)
    if journal is not None:
        # A figure must never be emitted from a partial journal.
        journal.require_complete(keys.values(), scope=experiment)
    return np.array([[raw[trial, name] for name in names]
                     for trial in range(n_trials)], dtype=np.float64)


def require_baseline(names: Sequence[str], baseline: str) -> int:
    """Index of ``baseline`` in ``names`` (ValueError if absent)."""
    if baseline not in names:
        raise ValueError(f"baseline {baseline!r} not among {list(names)}")
    return list(names).index(baseline)


def normalise(table: np.ndarray, names: Sequence[str],
              baseline: str) -> Dict[str, np.ndarray]:
    """Section 6.4 means of a :func:`trial_table` table, per method.

    Each trial is divided by its baseline row and the ratios are
    averaged with ``mean(axis=0)``, which adds the trials in order
    (numpy sums pairwise only along a contiguous axis).
    """
    base = require_baseline(names, baseline)
    ratios = table / table[:, base:base + 1, :]
    return dict(zip(names, ratios.mean(axis=0)))


@dataclasses.dataclass(frozen=True)
class SweepResult:
    """Baseline-normalised means per (point, method) of one figure.

    ``results[point][method]`` holds one averages record (the runner's
    ``PolicyAverages`` or ``PmAverages``) per point of the sweep, in
    row order. :meth:`format_table` prints one table per ``(field,
    title)`` panel: a row per point under ``row_header`` and that
    field of each method, in ``columns`` order.
    """

    results: Dict[Any, Dict[str, Any]]
    row_header: str
    columns: Tuple[str, ...]
    panels: Tuple[Tuple[str, str], ...]

    def format_table(self) -> str:
        header = [self.row_header, *self.columns]
        return "\n\n".join(
            format_rows(header,
                        [[point] + [getattr(per[name], field)
                                    for name in self.columns]
                         for point, per in self.results.items()],
                        title)
            for field, title in self.panels)


def _format_cell(v: object) -> str:
    """Format one table cell: reals get 3 decimals, integrals don't.

    Uses the ``numbers`` tower rather than ``isinstance(v, float)`` so
    numpy scalars (``np.float32``, ``np.float64``, ``np.integer``)
    format exactly like their builtin counterparts and mixed rows stay
    aligned.
    """
    if isinstance(v, numbers.Integral):  # includes bool, np.integer
        return str(int(v)) if not isinstance(v, bool) else str(v)
    if isinstance(v, numbers.Real):
        return f"{float(v):.3f}"
    return str(v)


def format_rows(header: Sequence[str], rows: Sequence[Sequence[object]],
                title: str = "") -> str:
    """Plain-text table formatter used by every experiment."""
    cols = len(header)
    str_rows = [[_format_cell(v) for v in row] for row in rows]
    widths = [max(len(header[c]), *(len(r[c]) for r in str_rows))
              if str_rows else len(header[c]) for c in range(cols)]
    lines = []
    if title:
        lines.append(title)
    lines.append("  ".join(h.ljust(widths[c]) for c, h in enumerate(header)))
    lines.append("  ".join("-" * widths[c] for c in range(cols)))
    for r in str_rows:
        lines.append("  ".join(r[c].ljust(widths[c]) for c in range(cols)))
    return "\n".join(lines)


def histogram(values: np.ndarray, n_bins: int = 8,
              ) -> Tuple[np.ndarray, np.ndarray]:
    """Counts and bin edges for paper-style histograms (Fig 4)."""
    values = np.asarray(values, dtype=float)
    if values.size == 0:
        raise ValueError("no values to histogram")
    return np.histogram(values, bins=n_bins)
