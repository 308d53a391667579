"""Die-batched characterisation kernel.

:func:`characterize_dies` is the manufacturer's binning flow
(Table 3) and its only implementation in ``repro``: it bins many dies
at once, bitwise-identical to binning each die on its own with the
one-die oracle kept in ``tests/references.py``. It follows the
lockstep recipe proven by ``EvalKernel`` (DESIGN.md §13/§17): every
floating-point expression of the per-die flow is either hoisted (when
it does not depend on the die) or replayed in exact per-die form over
stacked arrays (when IEEE semantics guarantee elementwise/broadcast
equality), and reductions whose accumulation order is
implementation-defined stay in their per-die shape.

Concretely, per chunk of dies sharing a map geometry:

* per-die RNG draws are coalesced into one ``standard_normal`` call per
  die in the per-die stream order (per core, per unit);
* candidate-path (Vth, Leff) values are one stacked gather over a
  precomputed flat cell index plus one broadcast add of the random
  offsets — identical binary ops to a per-unit loop;
* Pareto pruning calls ``pareto_prune`` per (die, core) — its keep-set
  depends on sort order, not accumulation;
* ``gate_delay`` evaluates one ``(levels, total_paths)`` block for the
  whole chunk, with per-(die, core) ragged segments reduced by
  ``np.maximum.reduceat`` (max is order-independent) and V/f binning
  (`floor`/`maximum.accumulate`) running column-batched;
* leakage models are built per die from stacked region-cell gathers
  with per-core weights computed once, and the rated power is the
  model's own ``power()`` call.

Binning raises and never isolates: a die whose paths would push
``gate_delay`` sub-threshold makes the one block evaluation raise
``gate_delay``'s own ``ValueError`` — the only failure the per-die
flow can produce, with the same message.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..config import T_HOT_K, T_REF_K, ArchConfig, TechParams
from ..floorplan import Floorplan, UnitKind, build_floorplan
from ..freq.alpha_power import gate_delay
from ..freq.critical_path import (
    GATES_PER_PATH,
    CoreFrequencyModel,
    PathSet,
    frequency_calibration,
    pareto_prune,
)
from ..freq.sram import worst_cell_quantile
from ..freq.vf_table import FREQ_QUANTUM_HZ, VFTable
from ..power.leakage import (
    CoreLeakageModel,
    L2LeakageModel,
    leakage_calibration,
)
from ..thermal import ThermalNetwork
from ..variation import Die
from .characterize import ChipProfile, CoreDescriptor

__all__ = ["CharacterizationKernel", "characterize_dies"]


@dataclass(frozen=True)
class _BatchGeometry:
    """Per-(floorplan, map-geometry) gather layout, shared by all dies.

    The floorplan is fixed per kernel and every die of a chunk shares
    its grid resolution and edge, so the region-cell index sets, the
    candidate-path layout, the random-draw slot assignment and the
    normalised leakage weights are all die-independent and computed
    once.
    """

    #: Flat (row-major) grid indices of every candidate path's cell,
    #: concatenated core-major in the serial unit order.
    path_idx: np.ndarray
    #: Half-open (start, end) bounds of each core's path segment.
    core_path_bounds: Tuple[Tuple[int, int], ...]
    #: Path positions belonging to LOGIC units (take random draws).
    logic_pos: np.ndarray
    #: Per-logic-position draw slot for the Vth offset.
    vth_slot: np.ndarray
    #: Per-logic-position draw slot for the Leff offset.
    leff_slot: np.ndarray
    #: Path positions belonging to SRAM units (worst-cell quantile).
    sram_pos: np.ndarray
    #: Gaussian draws one die consumes (the serial stream length).
    n_draws: int
    #: Flat grid indices of every leakage cell, concatenated core-major.
    leak_idx: np.ndarray
    #: Half-open (start, end) bounds of each core's leakage segment.
    core_leak_bounds: Tuple[Tuple[int, int], ...]
    #: Per-core normalised leakage weights (read-only, shared).
    leak_weights: Tuple[np.ndarray, ...]


class CharacterizationKernel:
    """Bins batches of dies, bitwise-identically to binning each alone.

    One kernel instance pins (tech, arch, floorplan, thermal) — the
    shared structures every :class:`ChipProfile` it builds attaches —
    and caches the gather geometry per map resolution/edge, so repeated
    :meth:`characterize` calls (e.g. one per fleet chunk) pay the
    layout cost once.
    """

    def __init__(self, tech: TechParams, arch: ArchConfig,
                 floorplan: Optional[Floorplan] = None,
                 thermal: Optional[ThermalNetwork] = None) -> None:
        if floorplan is None:
            floorplan = build_floorplan(arch)
        if floorplan.n_cores != arch.n_cores:
            raise ValueError("floorplan core count does not match arch")
        if thermal is None:
            thermal = ThermalNetwork(floorplan)
        self.tech = tech
        self.arch = arch
        self.floorplan = floorplan
        self.thermal = thermal
        # Die-independent constants, computed with the exact per-die
        # expressions so downstream float ops see identical operands.
        self._calib = frequency_calibration(tech, arch)
        self._sigma_ran_vth = tech.vth_sigma / np.sqrt(2.0)
        self._sigma_ran_leff = tech.leff_sigma / np.sqrt(2.0)
        self._path_sigma_vth = self._sigma_ran_vth / np.sqrt(GATES_PER_PATH)
        self._path_sigma_leff = self._sigma_ran_leff / np.sqrt(GATES_PER_PATH)
        self._z_sram = worst_cell_quantile()
        self._voltages = np.linspace(tech.vdd_min, tech.vdd_max,
                                     arch.n_voltage_levels)
        self._voltages.setflags(write=False)
        self._geometry: Dict[Tuple[int, float], _BatchGeometry] = {}

    # ------------------------------------------------------------------
    # geometry

    def _geometry_for(self, vmap) -> _BatchGeometry:
        key = (vmap.resolution, float(vmap.edge))
        geom = self._geometry.get(key)
        if geom is None:
            geom = self._build_geometry(vmap)
            self._geometry[key] = geom
        return geom

    def _build_geometry(self, vmap) -> _BatchGeometry:
        res = vmap.resolution
        path_idx_parts: List[np.ndarray] = []
        core_path_bounds: List[Tuple[int, int]] = []
        logic_pos: List[np.ndarray] = []
        vth_slot: List[np.ndarray] = []
        leff_slot: List[np.ndarray] = []
        sram_pos: List[np.ndarray] = []
        core_leak_bounds: List[Tuple[int, int]] = []
        leak_weights: List[np.ndarray] = []
        p = 0  # position in the concatenated path layout
        t = 0  # position in the per-die draw stream
        for core_id in range(self.arch.n_cores):
            p0 = p
            weight_parts: List[np.ndarray] = []
            for unit in self.floorplan.core_units(core_id):
                r = unit.rect
                i0, i1, j0, j1 = vmap.region_bounds(r.x0, r.y0, r.x1, r.y1)
                block = (np.arange(i0, i1)[:, None] * res
                         + np.arange(j0, j1)[None, :]).ravel()
                s = block.size
                path_idx_parts.append(block)
                if unit.spec.kind is UnitKind.LOGIC:
                    logic_pos.append(np.arange(p, p + s))
                    vth_slot.append(np.arange(t, t + s))
                    leff_slot.append(np.arange(t + s, t + 2 * s))
                    t += 2 * s
                else:
                    sram_pos.append(np.arange(p, p + s))
                p += s
                # Each unit's weight is split uniformly over its cells,
                # then the core's weights are normalised.
                weight_parts.append(
                    np.full(s, unit.spec.leakage_weight / s))
            core_path_bounds.append((p0, p))
            weights = np.concatenate(weight_parts)
            total = weights.sum()
            if total <= 0:
                raise ValueError("total leakage weight must be positive")
            weights = weights / total
            weights.setflags(write=False)
            leak_weights.append(weights)
            # Leakage cells are the same per-unit regions, so the path
            # layout's per-core bounds double as the leakage bounds.
            core_leak_bounds.append((p0, p))

        def cat(parts: List[np.ndarray]) -> np.ndarray:
            if not parts:
                return np.empty(0, dtype=np.intp)
            return np.concatenate(parts).astype(np.intp)

        path_idx = cat(path_idx_parts)
        return _BatchGeometry(
            path_idx=path_idx,
            core_path_bounds=tuple(core_path_bounds),
            logic_pos=cat(logic_pos),
            vth_slot=cat(vth_slot),
            leff_slot=cat(leff_slot),
            sram_pos=cat(sram_pos),
            n_draws=t,
            leak_idx=path_idx,
            core_leak_bounds=tuple(core_leak_bounds),
            leak_weights=tuple(leak_weights),
        )

    # ------------------------------------------------------------------
    # characterisation

    def characterize(self, dies: Sequence[Die]) -> List[ChipProfile]:
        """Characterise every die, batched.

        Args:
            dies: Dies to bin; dies of mixed map geometry are grouped
                and each group is batched separately.

        Returns:
            One :class:`~repro.chip.ChipProfile` per die, in order.

        Raises:
            ValueError: ``gate_delay``'s sub-threshold error, if any
                die's paths are not super-threshold at the lowest
                table voltage.
        """
        dies = list(dies)
        results: List[Optional[ChipProfile]] = [None] * len(dies)
        groups: Dict[Tuple[int, float], List[int]] = {}
        for i, die in enumerate(dies):
            vmap = die.variation
            groups.setdefault((vmap.resolution, float(vmap.edge)),
                              []).append(i)
        for idxs in groups.values():
            self._characterize_group(dies, idxs, results)
        return results  # type: ignore[return-value]

    def _characterize_group(self, dies: List[Die], idxs: List[int],
                            results: List[Optional[ChipProfile]],
                            ) -> None:
        tech = self.tech
        n_cores = self.arch.n_cores
        geom = self._geometry_for(dies[idxs[0]].variation)
        d_count = len(idxs)
        vth_maps = np.stack(
            [dies[i].variation.vth_sys for i in idxs]).reshape(d_count, -1)

        # One coalesced draw per die, in the per-die stream order (per
        # core, per unit: Vth offsets then Leff offsets).
        draws = np.empty((d_count, geom.n_draws))
        for d, i in enumerate(idxs):
            rng = np.random.default_rng([dies[i].die_id, 0xC0DE])
            draws[d] = rng.standard_normal(geom.n_draws)

        path_vth = vth_maps[:, geom.path_idx]
        leff_maps = np.stack(
            [dies[i].variation.leff_sys for i in idxs]).reshape(d_count, -1)
        path_leff = leff_maps[:, geom.path_idx]
        if geom.logic_pos.size:
            path_vth[:, geom.logic_pos] += (
                self._path_sigma_vth * draws[:, geom.vth_slot])
            path_leff[:, geom.logic_pos] += (
                self._path_sigma_leff * draws[:, geom.leff_slot])
        if geom.sram_pos.size:
            path_vth[:, geom.sram_pos] += self._z_sram * self._sigma_ran_vth

        # Pareto pruning per (die, core), on each core's own values.
        pruned: List[List[PathSet]] = []
        for d in range(d_count):
            row = []
            for p0, p1 in geom.core_path_bounds:
                row.append(pareto_prune(PathSet(vth=path_vth[d, p0:p1],
                                                leff=path_leff[d, p0:p1])))
            pruned.append(row)

        # Ragged-pack every die's pruned paths and evaluate the whole
        # (levels, paths) block at once; gate_delay raises if any path
        # is sub-threshold. Broadcast elementwise ops match per-core
        # fmax_many columns exactly; segment maxima via reduceat equal
        # per-segment .max(axis=1).
        segs = [pruned[d][c] for d in range(d_count)
                for c in range(n_cores)]
        flat_vth = np.concatenate([s.vth for s in segs])
        flat_leff = np.concatenate([s.leff for s in segs])
        seg_sizes = np.array([s.vth.size for s in segs], dtype=np.intp)
        offsets = np.zeros(len(segs), dtype=np.intp)
        np.cumsum(seg_sizes[:-1], out=offsets[1:])
        delays = gate_delay(self._voltages[:, None], flat_vth[None, :],
                            flat_leff[None, :], tech, T_HOT_K)
        maxima = np.maximum.reduceat(delays, offsets, axis=1)
        raw = self._calib / maxima
        freqs = np.floor(raw / FREQ_QUANTUM_HZ) * FREQ_QUANTUM_HZ
        freqs = np.maximum.accumulate(
            np.maximum(freqs, FREQ_QUANTUM_HZ), axis=0)

        # Leakage: stacked region-cell gather, per-die model build.
        leak_calib = leakage_calibration(tech)
        leak_cells = vth_maps[:, geom.leak_idx]
        for d, i in enumerate(idxs):
            cores = []
            for c in range(n_cores):
                seg = d * n_cores + c
                paths = pruned[d][c]
                freq_model = CoreFrequencyModel(paths, tech, self._calib)
                vf_table = VFTable(
                    voltages=self._voltages,
                    freqs=np.ascontiguousarray(freqs[:, seg]))
                q0, q1 = geom.core_leak_bounds[c]
                leakage = CoreLeakageModel(
                    leak_cells[d, q0:q1].copy(), geom.leak_weights[c],
                    tech, leak_calib)
                rated = leakage.power(tech.vdd_max, T_REF_K)
                cores.append(CoreDescriptor(
                    core_id=c,
                    vf_table=vf_table,
                    freq_model=freq_model,
                    leakage=leakage,
                    static_power_rated=rated,
                ))
            l2 = L2LeakageModel(dies[i].variation, self.floorplan, tech)
            results[i] = ChipProfile(
                die_id=dies[i].die_id,
                tech=tech,
                arch=self.arch,
                floorplan=self.floorplan,
                cores=tuple(cores),
                l2_leakage=l2,
                thermal=self.thermal,
            )


def characterize_dies(
    dies: Sequence[Die],
    tech: TechParams,
    arch: ArchConfig,
    floorplan: Optional[Floorplan] = None,
    thermal: Optional[ThermalNetwork] = None,
) -> List[ChipProfile]:
    """Characterise many dies at once.

    The entry point of the binning flow (Table 3): one
    :class:`CharacterizationKernel` is built for (tech, arch) and the
    whole batch runs through the lockstep pipeline. Bin one die with
    ``characterize_dies([die], tech, arch)[0]``. See the module
    docstring for the parity scheme and the one failure it raises.
    """
    kernel = CharacterizationKernel(tech, arch, floorplan=floorplan,
                                    thermal=thermal)
    return kernel.characterize(dies)
