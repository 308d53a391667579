"""Shared infrastructure for the paper-figure experiments.

Every experiment module exposes a ``run(...)`` function returning a
result dataclass with a ``format_table()`` method that prints the same
rows/series the paper's figure or table reports. Experiments default to
reduced batch sizes so they complete in seconds; pass
``n_dies=200, n_trials=20`` (or set the ``REPRO_FULL`` environment
variable) for the paper's full protocol.
"""

from __future__ import annotations

import dataclasses
import numbers
import os
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from ..chip import ChipProfile
from ..config import ArchConfig, DEFAULT_ARCH, DEFAULT_TECH, TechParams
from ..floorplan import Floorplan, build_floorplan
from ..parallel import characterize_batch
from ..parallel.journal import RunJournal, active_journal
from ..parallel.runner import CacheArg
from ..thermal import ThermalNetwork

# Reduced defaults for interactive runs; the paper uses 200 dies and
# 20 workload trials per experiment.
DEFAULT_N_DIES = 30
DEFAULT_N_TRIALS = 8
PAPER_N_DIES = 200
PAPER_N_TRIALS = 20


def full_run() -> bool:
    """Whether the REPRO_FULL environment variable requests full scale."""
    return os.environ.get("REPRO_FULL", "") not in ("", "0")


def default_n_dies() -> int:
    """Die-batch size: the paper's 200 under REPRO_FULL, else reduced."""
    return PAPER_N_DIES if full_run() else DEFAULT_N_DIES


def default_n_trials() -> int:
    """Workload trials: the paper's 20 under REPRO_FULL, else reduced."""
    return PAPER_N_TRIALS if full_run() else DEFAULT_N_TRIALS


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
        batched: Whether cache misses use the die-batched
            characterisation kernel. ``None`` defers to the
            process-wide default (``REPRO_BATCH_CHAR`` /
            ``parallel_config``; default on). Bitwise-identical to
            the serial loop either way.
    """

    def __init__(self, tech: TechParams = DEFAULT_TECH,
                 arch: ArchConfig = DEFAULT_ARCH, seed: int = 0,
                 workers: Optional[int] = None,
                 cache: CacheArg = "auto",
                 batched: Optional[bool] = None) -> None:
        self.tech = tech
        self.arch = arch
        self.seed = seed
        self.workers = workers
        self.cache = cache
        self.batched = batched
        self.floorplan: Floorplan = build_floorplan(arch)
        self.thermal = ThermalNetwork(self.floorplan)
        self._chips: Dict[int, ChipProfile] = {}

    def _characterize(self, die_indices: List[int]) -> None:
        profiles = characterize_batch(
            self.tech, self.arch, self.seed, die_indices,
            workers=self.workers, cache=self.cache,
            floorplan=self.floorplan, thermal=self.thermal,
            batched=self.batched)
        self._chips.update(zip(die_indices, profiles))

    def chip(self, die_index: int, n_dies_hint: int = 1) -> ChipProfile:
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
                floorplan=self.floorplan, thermal=self.thermal,
                batched=self.batched)


def campaign_journal(experiment: Optional[str]) -> Optional[RunJournal]:
    """The checkpoint journal for an experiment's campaign, or None.

    Returns a :class:`~repro.parallel.journal.RunJournal` under
    ``results/<experiment>/journal.jsonl`` when resume mode is active
    (CLI ``--resume``/``--fresh`` or ``REPRO_RESUME=1``) *and* the
    caller passed an experiment tag; otherwise None, in which case
    the trial runners skip all journaling.
    """
    if not experiment:
        return None
    return active_journal(experiment)


def journal_identity(factory: ChipFactory) -> Dict[str, object]:
    """Unit-key fields pinning the die population a unit ran on.

    Folded into every journaled unit's content key so a journal can
    never resurrect results measured on a different tech, arch or die
    batch.
    """
    return {
        "tech": repr(sorted(dataclasses.asdict(factory.tech).items())),
        "arch": repr(sorted(dataclasses.asdict(factory.arch).items())),
        "factory_seed": int(factory.seed),
    }


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
