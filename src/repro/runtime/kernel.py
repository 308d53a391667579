"""Batched, vectorized evaluation kernel for the PM search loops.

Every power-management policy in the repro — SAnn's annealing probes
and quench sweeps, ExhaustiveSearch's combination enumeration,
LinOpt's correction/refill trials, Foxton*'s victim descent — funnels
through system evaluations of candidate DVFS operating points, and
the serial path (:func:`repro.runtime.evaluation.evaluate_levels`)
runs a Python per-core leakage loop inside the damped thermal fixed
point for every single candidate. That per-candidate Python overhead,
not the floating-point math, is the wall-clock bottleneck of the
SAnn/exhaustive validation runs (the paper's Table 4 gap).

:class:`EvalKernel` is precomputed once per (dies, workloads,
assignment, phase multipliers): it packs the per-core V/f tables and
the per-level IPC / dynamic-power values into contiguous arrays,
packs every leakage cell the fixed point touches into one size-grouped
row per distinct die (:class:`_CellLayout`), and evaluates many rows
simultaneously — ``B`` candidate operating points on one die, or one
decision on each of ``D`` (die, workload) rows of one design. The
leakage-temperature fixed point runs in lockstep across rows with
per-row convergence masks, so each row sees exactly the serial
iteration schedule and the results are **bitwise identical** to the
serial loop (tests/test_kernel.py and tests/test_fleet.py
property-test this).

Bitwise equality is engineered, not hoped for:

* elementwise work evaluates the *same* expression tree as
  :func:`repro.power.leakage.leakage_factor`; per-block terms are
  computed once per block and copied to cells with ``np.repeat`` —
  copies, and IEEE elementwise ops under broadcasting, are
  value-deterministic;
* reductions whose summation order is implementation-defined (the
  per-core ``weights @ factors`` dot, the per-L2-block ``np.mean``,
  the LU triangular solves) keep exactly the serial summation: cells
  are packed so equal-size segments sit side by side, and one
  ``np.vecdot`` / ``np.add.reduce(axis=2)`` over each equal-size run
  performs the very per-row ``ddot`` / pairwise sum the serial path
  performs. BLAS ``dgemv``, LAPACK multi-RHS ``getrs`` and
  zero-padded ragged rows all round differently, so they are
  deliberately avoided (see DESIGN.md §13);
* converged candidates are frozen and compacted out of the working
  set, so a candidate's iterate sequence never depends on its batch
  neighbours.

A one-row call should pay for arithmetic, not bookkeeping, and three
shortcuts keep it so without moving a bit:

* every row's first iterate is the ambient temperature, so on a kernel
  with one distinct die its leakage depends only on each thread's
  level; the kernel tabulates it once per (thread, level), plus the
  constant L2 blocks, through :meth:`_CellLayout.leakage` itself, and
  iteration 1 looks rows up instead of evaluating them. A lookup is
  the value the row would compute because each row's ``vecdot`` /
  ``reduce`` result does not depend on the other rows of the call
  (``TestReductionAssumptions``). Fleet kernels compute iteration 1;
* each fixed-point guard makes one slab-wide comparison (``min() >
  0``, ``math.isfinite(total.sum())``, ``max() <= RUNAWAY_TEMP_K``)
  and builds the exact per-row mask only when it trips. These trip
  whenever some row's own test does — a finite sum implies finite
  entries — and an overflowing ``total.sum()`` of finite entries just
  falls through to the exact per-row test, so the same rows fail at
  the same iteration;
* :class:`_SlabLeakage` allocates its scratch and builds its per-run
  views once per slab and writes the reductions with ``out=``. The
  DIBL term stays per segment: repeating it into a per-slab ``(rows,
  cells)`` array cost the ``fleet_cold`` benchmark 5–9 % in compaction
  copies.

The kernel reports into the process-global
:data:`repro.runtime.evaluation.EVALUATION_COUNTER` (every candidate
counts as one full evaluation) and into a per-instance
:class:`KernelStats` that policies surface through
``PmResult.stats`` and the BENCH_*.json emitters.

The power managers evaluate through a :class:`StateMemo` over a
one-die kernel: it serves repeated level vectors without a kernel
row, and its :meth:`StateMemo.walk` is the one place a search hands
speculative candidates to the kernel.
"""

from __future__ import annotations

import math
import operator
from collections import abc
from dataclasses import dataclass
from itertools import groupby, islice, repeat
from typing import (Callable, Dict, Iterable, List, Optional, Sequence,
                    Tuple, Union)

import numpy as np

from ..chip import ChipProfile
from ..config import BOLTZMANN_EV, T_REF_K
from ..power.leakage import DIBL_COEFF, subthreshold_slope_factor
from ..power.scaling import L2_DYNAMIC_FRACTION, L2_VDD
from ..thermal.hotspot import (
    DAMPING,
    DEFAULT_TOLERANCE_K,
    MAX_ITERATIONS,
    RUNAWAY_TEMP_K,
    ThermalRunawayError,
)
from ..workloads import Workload
from .evaluation import (EVALUATION_COUNTER, Assignment, KernelStats,
                         SystemState)

# Leakage cells per fixed-point slab: bounds the (rows, cells) working
# matrices (the repeated per-segment terms alone are 4 x _SLAB_CELLS
# doubles, ~3.7 MB). The budget is 16 rows of the 20-core die with
# every core busy (7184 cells), so the managers' slabs keep their
# historical 16-row shape while narrow rows (a 216-cell one-thread
# fleet row) get hundreds per slab. Purely an execution-shaping knob —
# results are independent of it.
_SLAB_CELLS = 16 * 7184


def _libm_square(x: np.ndarray) -> np.ndarray:
    """Elementwise ``x ** 2`` with the serial path's *scalar* semantics.

    A numpy scalar's (or 0-d array's) ``** 2`` resolves to libm
    ``pow()``, which differs from every numpy array square by 1 ulp
    for rare inputs — the one place scalar and array float paths
    genuinely diverge — so the square is mapped through ``math.pow``.
    Where the serial ``** 2`` overflows to ``inf``, ``math.pow`` raises
    instead, so that rare input takes a per-value fallback.
    """
    values = x.ravel().tolist()
    try:
        squares = np.fromiter(map(math.pow, values, repeat(2.0)),
                              dtype=float, count=x.size)
    except OverflowError:
        squares = np.fromiter(map(_pow2_or_inf, values), dtype=float,
                              count=x.size)
    return squares.reshape(x.shape)


def _pow2_or_inf(value: float) -> float:
    """libm ``pow(value, 2)``, ``inf`` where it overflows."""
    try:
        return math.pow(value, 2.0)
    except OverflowError:
        return math.inf


def _scalar_pow_prefactor(temps: np.ndarray, vdd: np.ndarray,
                          out: Optional[np.ndarray] = None) -> np.ndarray:
    """Per-(row, segment) scalar leakage prefactor.

    ``vdd * (t / Tref) ** 2`` computed with the serial path's scalar
    semantics (:func:`_libm_square`). The division and multiply are
    single-rounded IEEE ops, identical either way, so only the ``pow``
    needs the scalar loop — a few dozen scalars per row, not one per
    cell.
    """
    return np.multiply(vdd, _libm_square(temps / T_REF_K), out=out)


def _row_totals(powers: np.ndarray, n_cores: int, core_dyn: np.ndarray,
                core_leak: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Every row's ``(L2 power, total power)``, one reduction per column.

    Entry ``b`` is bitwise the serial path's ``float(powers[b,
    n_cores:].sum())`` and ``float(core_dyn[b].sum() +
    core_leak[b].sum()) + l2_power``: each row of an ``axis=1`` sum is
    that row's own contiguous pairwise sum, and the adds are
    elementwise (``TestReductionAssumptions``). A matrix-vector product
    with a ones vector rounds differently and is deliberately avoided.
    """
    l2_power = powers[:, n_cores:].sum(axis=1)
    return l2_power, (core_dyn.sum(axis=1) + core_leak.sum(axis=1)) + l2_power


def _distinct(objs: Sequence) -> Tuple[list, np.ndarray]:
    """``(distinct objects, slot of each entry)``, by object identity,
    in first-seen order."""
    slot: Dict[int, int] = {}
    uniq: list = []
    index = []
    for obj in objs:
        k = slot.setdefault(id(obj), len(uniq))
        if k == len(uniq):
            uniq.append(obj)
        index.append(k)
    return uniq, np.array(index, dtype=np.intp)


class _CellLayout:
    """Size-grouped packing of the leakage cells of one die design.

    A *segment* is the cell set of one active thread's core (weighted
    sum, ``CoreLeakageModel.power``) or of one L2 block (mean,
    ``L2LeakageModel.power_per_block``). Segments are packed into one
    row, cores first then L2 blocks, each part sorted by cell count,
    so equal-size segments sit side by side and every equal-size run
    reshapes to a ``(rows, n_g, L)`` view whose reductions are single
    ``np.vecdot`` / ``np.add.reduce`` calls with the serial per-row
    summation. Everything per segment — supply, temperature,
    calibration — lives in *pack order*: ``order`` maps pack positions
    to canonical segments (threads ``0..n-1``, then L2 blocks),
    ``threads`` the first ``n_core`` positions to thread indices, and
    ``seg_block`` every position to its thermal block.

    :class:`EvalKernel` packs one row shared by all candidates on one
    die, or one row per distinct die of a fleet.
    """

    def __init__(self, chip: ChipProfile, core_of: Sequence[int]) -> None:
        l2 = chip.l2_leakage
        if l2.n_blocks != chip.thermal.n_blocks - chip.n_cores:
            raise ValueError("L2 leakage blocks do not match the "
                             "thermal network")
        n = len(core_of)
        self.core_of = tuple(core_of)
        self.sizes = ([chip.cores[c].leakage.cell_vth.size for c in core_of]
                      + [v.size for v in l2.block_vth])
        by_size = self.sizes.__getitem__
        self.order = np.array(sorted(range(n), key=by_size)
                              + sorted(range(n, len(self.sizes)),
                                       key=by_size))
        self.n_core = n
        self.threads = self.order[:n]
        self.seg_sizes = np.array(self.sizes)[self.order]
        self.seg_block = np.concatenate(
            [self.core_of, chip.n_cores + np.arange(l2.n_blocks)]
        )[self.order]
        bounds = np.concatenate([[0], np.cumsum(self.seg_sizes)])
        # Equal-size runs as (first seg, end seg, first cell, end cell,
        # size); segments of one run are contiguous in the packed row,
        # and no run straddles the core/L2 boundary.
        runs = []
        k = 0
        kinds = [(j >= n, size)
                 for j, size in enumerate(self.seg_sizes.tolist())]
        for (_, size), group in groupby(kinds):
            k1 = k + len(list(group))
            runs.append((k, k1, int(bounds[k]), int(bounds[k1]), size))
            k = k1
        self.core_runs = [r for r in runs if r[0] < n]
        self.l2_runs = [r for r in runs if r[0] >= n]
        self.cell_bounds = bounds.tolist()
        self.l2_sizes = self.seg_sizes[n:].astype(float)
        # Constants of the leakage-factor expression, hoisted so the
        # flat pass evaluates the *identical* expression tree as
        # :func:`repro.power.leakage.leakage_factor` without its
        # per-call validation/dispatch overhead.
        self._n_slope = subthreshold_slope_factor(chip.tech)
        self._vth_temp_coeff = chip.tech.vth_temp_coeff
        self._vdd_nominal = chip.tech.vdd_nominal

    def pack(self, chip: ChipProfile
             ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``chip``'s packed (cell Vth, core cell weights, segment scale).

        The scale is each segment's calibration: a core's
        ``calibration``, an L2 block's ``calibration * block_share``
        (the serial product, formed once).
        """
        leak = [chip.cores[c].leakage for c in self.core_of]
        l2 = chip.l2_leakage
        parts = [m.cell_vth for m in leak] + l2.block_vth
        if [p.size for p in parts] != self.sizes:
            raise ValueError("fleet dies must share the variation-"
                             "cell layout")
        vth = np.concatenate([parts[s] for s in self.order])
        weights = np.concatenate([leak[s].cell_weights
                                  for s in self.threads])
        scale = np.array([m.calibration for m in leak]
                         + list(l2.calibration * l2.block_share))
        return vth, weights, scale[self.order]

    def supplies(self, volts: np.ndarray
                 ) -> Tuple[np.ndarray, np.ndarray]:
        """Per-segment ``(vdd, DIBL term)`` in pack order.

        Cores take their thread's supply, L2 blocks ``L2_VDD``. The
        DIBL term ``DIBL_COEFF * (vdd - vdd_nominal)`` does not depend
        on temperature, so it is formed once per batch.
        """
        n_l2 = self.order.size - self.n_core
        ext = np.concatenate(
            [volts, np.full((volts.shape[0], n_l2), L2_VDD)], axis=1)
        vdd = ext[:, self.order]
        return vdd, DIBL_COEFF * (vdd - self._vdd_nominal)

    def leakage(self, temps: np.ndarray, vdd: np.ndarray, dib: np.ndarray,
                vth: np.ndarray, weights: np.ndarray,
                scale: np.ndarray) -> np.ndarray:
        """Per-segment leakage power (W), pack order, bitwise-serial.

        One evaluation through a fresh :class:`_SlabLeakage`; the fixed
        point keeps one per slab instead. Evaluates the first ``k =
        vdd.shape[1]`` segments — all of them, or the ``n_core`` core
        segments for the final per-thread recompute.
        """
        return _SlabLeakage(self, vdd, dib, vth, weights, scale)(temps)


class _SlabLeakage:
    """Per-segment leakage of a slab's working rows, scratch built once.

    Holds the packed leakage state of the rows still iterating — per-row
    (2-D) ``vdd``, DIBL term and, for several distinct dies, ``vth`` /
    ``weights`` / ``scale``; 1-D entries are shared by every row — and
    evaluates the first ``k = vdd.shape[1]`` segments of
    :class:`_CellLayout`. Scratch (the per-segment terms, the per-cell
    factor row, the per-segment result) is allocated for the whole
    slab, and the per-run views into it and into the weights are built
    when the slab starts and re-derived only when rows leave
    (:meth:`compact`), never per iteration. The working rows are
    always a prefix of the scratch.

    The per-segment terms of ``leakage_factor``'s expression tree —
    ``(t - Tref) * k``, the DIBL term, ``-(t * k_B) * n`` and the
    libm-``pow`` prefactor — are formed once per segment (the DIBL
    term once per slab: it does not depend on temperature), copied to
    cells by one ``np.repeat``, and combined in one flat five-ufunc
    pass over the packed row. ``x / -y`` is bitwise ``-x / y`` and
    ``x * -n`` bitwise ``-(x * n)`` (IEEE division and multiplication
    are sign-symmetric); the other deviations from the source
    expression are commuted operands. The reductions are one
    ``np.vecdot`` (weighted core sums) or ``np.add.reduce(axis=2)``
    (L2 sums) per equal-size run, each row of which is exactly the
    serial contiguous ``ddot`` / pairwise sum, written with ``out=``
    into the result (tests/test_kernel.py guards both); the L2 means'
    divide and the calibration scale are one ufunc each over all runs.
    """

    def __init__(self, layout: _CellLayout, vdd: np.ndarray,
                 dib: np.ndarray, vth: np.ndarray, weights: np.ndarray,
                 scale: np.ndarray) -> None:
        rows, k = vdd.shape
        n_cells = layout.cell_bounds[k]
        self._n_core = layout.n_core
        self._vth_temp_coeff = layout._vth_temp_coeff
        self._neg_n_slope = -layout._n_slope
        self._seg_block = layout.seg_block[:k]
        self._seg_sizes = layout.seg_sizes[:k]
        self._core_runs = layout.core_runs
        self._l2_runs = layout.l2_runs if k > layout.n_core else []
        self._l2_sizes = layout.l2_sizes
        self._terms = np.empty((4, rows, k))
        self._f = np.empty((rows, n_cells))
        self._out = np.empty((rows, k))
        self._vdd, self._dib = vdd, dib
        self._vth, self._weights = vth[..., :n_cells], weights
        self._scale = scale[..., :k]
        self._bind()

    def compact(self, keep: np.ndarray) -> None:
        """Keep only the ``keep`` rows (a boolean mask over the working
        rows); shared 1-D state is untouched."""
        self._vdd, self._dib, self._vth, self._weights, self._scale = (
            a[keep] if a.ndim == 2 else a
            for a in (self._vdd, self._dib, self._vth, self._weights,
                      self._scale))
        self._bind()

    def _bind(self) -> None:
        """Derive the working-row views of the scratch and the weights."""
        m, k = self._vdd.shape
        self._rows_terms = terms = self._terms[:, :m]
        self._t_shift, dib, self._t_volt, self._t_pre = terms
        dib[...] = self._dib
        self._rows_f = f = self._f[:m]
        self._rows_out = out = self._out[:m]
        w = self._weights
        self._core_views = [
            (w[..., c0:c1].reshape(w.shape[:-1] + (k1 - k0, size)),
             f[:, c0:c1].reshape(m, k1 - k0, size), out[:, k0:k1])
            for k0, k1, c0, c1, size in self._core_runs]
        self._l2_views = [
            (f[:, c0:c1].reshape(m, k1 - k0, size), out[:, k0:k1])
            for k0, k1, c0, c1, size in self._l2_runs]
        self._l2_out = out[:, self._n_core:]

    def __call__(self, temps: np.ndarray) -> np.ndarray:
        """Leakage of the working rows at block temperatures ``temps``
        (one row per working row); a view of the slab's scratch, valid
        until the next call."""
        t = temps[:, self._seg_block]
        shift, volt, pre = self._t_shift, self._t_volt, self._t_pre
        np.subtract(t, T_REF_K, out=shift)
        np.multiply(shift, self._vth_temp_coeff, out=shift)
        np.multiply(t, BOLTZMANN_EV, out=volt)
        np.multiply(volt, self._neg_n_slope, out=volt)
        _scalar_pow_prefactor(t, self._vdd, out=pre)
        cells = np.repeat(self._rows_terms, self._seg_sizes, axis=2)
        f = self._rows_f
        np.add(cells[0], self._vth, out=f)              # vth_eff
        np.subtract(f, cells[1], out=f)
        np.divide(f, cells[2], out=f)
        np.exp(f, out=f)
        np.multiply(f, cells[3], out=f)

        for w, cell_run, out_run in self._core_views:
            np.vecdot(w, cell_run, out=out_run)
        if self._l2_views:
            for cell_run, out_run in self._l2_views:
                np.add.reduce(cell_run, axis=2, out=out_run)
            np.divide(self._l2_out, self._l2_sizes, out=self._l2_out)
        out = self._rows_out
        return np.multiply(out, self._scale, out=out)


class EvalKernel:
    """Batched system evaluation: ``B`` candidates or ``D`` dies per call.

    Precomputes everything that does not depend on the levels — the
    per-(row, thread, level) voltages, frequencies, IPCs and dynamic
    powers, the L2 area-share vector, the packed leakage cell rows —
    once per (dies, workloads, assignment, phase multipliers). Two
    entry points feed rows of levels through one lockstep fixed point:

    * :meth:`evaluate_levels_batch` — ``B`` candidate decisions on a
      one-row kernel (the power managers' search loops);
    * :meth:`evaluate_levels_fleet` — one decision on each of the
      ``D`` rows (the Monte-Carlo axis of Figs 4/5 and the fleet
      campaigns).

    Row ``d`` is the pair ``(chips[d], workloads[d])``: ``workload``
    is either one :class:`~repro.workloads.Workload` run on every die
    or a sequence with one workload per entry of ``chips``, and
    entries of ``chips`` may repeat the same die object — the Fig 4(a)
    analysis evaluates every (app, die) pair of a chunk as one row.
    Level row ``b`` on kernel row ``d`` is bitwise identical to the
    serial ``evaluate_levels(chips[d], workloads[d], assignment,
    levels[b])``, failures included (tests/test_kernel.py,
    tests/test_fleet.py).

    All dies must come off one design: identical
    :class:`~repro.config.TechParams` and
    :class:`~repro.config.ArchConfig`, hence identical floorplans,
    thermal networks, V/f level grids and variation-cell layouts — only
    the *values* (binned frequencies, Vth maps, calibrations) differ.
    The thermal solve uses ``chips[0]``'s network; networks built from
    the same floorplan factor the same matrix, so the shared solve is
    bit-for-bit each die's own. The design checks, the V/f tables and
    the leakage packing run once per *distinct* die (by object
    identity). With one distinct die the packed leakage rows are 1-D
    and shared by every row, so a candidate batch neither copies nor
    compacts them; otherwise they are ``(n_distinct, n_cells)`` and
    each slab gathers its rows' packs.

    Args:
        chips: One characterised die, or a sequence of dies of one
            design (repeats allowed).
        workload: The threads (``workload[i]`` runs on
            ``assignment.core_of[i]`` of every die), or one such
            workload per entry of ``chips``.
        assignment: Thread-to-core mapping, shared by all rows.
        ipc_multipliers: Optional per-thread phase IPC multipliers
            (kept, copied, as the :attr:`ipc_multipliers` array).
        ceff_multipliers: Optional per-thread phase power multipliers
            (kept, copied, as the :attr:`ceff_multipliers` array).
    """

    def __init__(
        self,
        chips: Union[ChipProfile, Sequence[ChipProfile]],
        workload: Union[Workload, Sequence[Workload]],
        assignment: Assignment,
        ipc_multipliers: Optional[Sequence[float]] = None,
        ceff_multipliers: Optional[Sequence[float]] = None,
    ) -> None:
        chips = [chips] if isinstance(chips, ChipProfile) else list(chips)
        if not chips:
            raise ValueError("fleet must contain at least one die")
        workloads = ([workload] * len(chips)
                     if isinstance(workload, Workload) else list(workload))
        if len(workloads) != len(chips):
            raise ValueError("need one workload per die")
        n = assignment.n_threads
        # Row d packs distinct die ``_pack_of[d]`` and runs distinct
        # workload ``wl_of[d]``.
        dies_u, self._pack_of = _distinct(chips)
        wls, wl_of = _distinct(workloads)
        first = dies_u[0]
        for chip in dies_u[1:]:
            if chip.tech != first.tech or chip.arch != first.arch:
                raise ValueError(
                    "fleet dies must share TechParams and ArchConfig")
            if chip.thermal.n_blocks != first.thermal.n_blocks:
                raise ValueError("fleet dies must share the thermal "
                                 "network shape")
            if not np.array_equal(chip.floorplan.l2_area_share,
                                  first.floorplan.l2_area_share):
                raise ValueError("fleet dies must share the floorplan")
        if any(wl.n_threads != n for wl in wls):
            raise ValueError("workload and assignment sizes differ")
        if max(assignment.core_of) >= first.n_cores:
            raise ValueError("assignment references a core beyond the die")
        # Copies: a kernel may outlive the call (LinOpt carries it),
        # and a caller rewriting its buffer in place must not reach it.
        ipc_mult = (np.ones(n) if ipc_multipliers is None
                    else np.array(ipc_multipliers, dtype=float))
        ceff_mult = (np.ones(n) if ceff_multipliers is None
                     else np.array(ceff_multipliers, dtype=float))
        if ipc_mult.shape != (n,) or ceff_mult.shape != (n,):
            raise ValueError("need one multiplier per thread")

        self.chips = chips
        self.workloads = workloads
        self.assignment = assignment
        self.ipc_multipliers = ipc_mult
        self.ceff_multipliers = ceff_mult
        self.stats = KernelStats()
        self._thermal = first.thermal
        self._n = n
        self._thread_ix = np.arange(n)
        self._core_of = np.asarray(assignment.core_of, dtype=int)
        self._n_cores = first.n_cores
        self._n_blocks = first.thermal.n_blocks

        # Per-(row, thread, level) voltage, frequency, IPC and dynamic
        # power, stacked as one (4, D, n, L) table so a slab of rows is
        # a single gather. V/f come from each distinct die's tables;
        # IPC and dynamic power are the serial path's scalar
        # expressions evaluated elementwise — ``1 / (cpi_core + mem_s *
        # f) * mult`` and ``ceff * mult * v ** 2 * f`` in the same
        # operation order, with the square through libm ``pow`` — so
        # a lookup is bit-for-bit the serial computation. Levels past a
        # core's grid are padding that validated levels never reach.
        self._n_levels = np.array(
            [first.cores[c].vf_table.n_levels for c in assignment.core_of])
        vf = np.zeros((2, len(dies_u), n, int(self._n_levels.max())))
        for u, chip in enumerate(dies_u):
            for i, core in enumerate(assignment.core_of):
                table = chip.cores[core].vf_table
                if table.n_levels != self._n_levels[i]:
                    raise ValueError("fleet dies must share the DVFS "
                                     "level grid")
                vf[0, u, i, :table.n_levels] = table.voltages
                vf[1, u, i, :table.n_levels] = table.freqs
        apps = np.array([[(app.cpi_core, app.mem_seconds_per_instr,
                           app.ceff) for app in wl] for wl in wls])
        cpi_core, mem_s, ceff = apps[wl_of].transpose(2, 0, 1)[..., None]
        volts, freqs = vf[:, self._pack_of]
        v_sq = _libm_square(vf[0])[self._pack_of]
        self._tabs = np.stack([
            volts,
            freqs,
            1.0 / (cpi_core + mem_s * freqs) * ipc_mult[:, None],
            ceff * ceff_mult[:, None] * v_sq * freqs,
        ])

        # Packed leakage rows: one shared 1-D set for a single distinct
        # die, one row per distinct die otherwise. The layout itself is
        # shared: same floorplan, same cell counts (checked per die by
        # ``pack``).
        self._layout = _CellLayout(first, assignment.core_of)
        self._l2_dyn_share = first.floorplan.l2_area_share
        packed = [self._layout.pack(chip) for chip in dies_u]
        if len(dies_u) == 1:
            self._vth, self._weights, self._scale = packed[0]
            self._ambient_leak = self._ambient_table(vf[0, 0].T)
        else:
            self._vth, self._weights, self._scale = (
                np.stack(col) for col in zip(*packed))
            self._ambient_leak = None
        self._slab_rows = max(1, _SLAB_CELLS // self._vth.shape[-1])

    def tabulates(self, levels: Sequence[int], state: SystemState) -> bool:
        """Whether ``state`` is this one-die kernel's row at ``levels``.

        True when its voltages, frequencies, IPCs and core dynamic
        powers are bitwise the tables at ``levels`` (validated as a
        row). Every other field follows from those four arrays on the
        kernel's die and assignment, so an evaluation of ``levels``
        made there passes exactly when its phase multipliers were the
        kernel's.
        """
        if self.n_dies != 1:
            raise ValueError("tabulates needs a one-die kernel")
        row = self.check_levels(levels)[0]
        return all(
            got.dtype == want.dtype and got.shape == want.shape
            and got.tobytes() == want.tobytes()
            for got, want in zip(
                (np.asarray(state.voltages), np.asarray(state.freqs),
                 np.asarray(state.ipcs), np.asarray(state.core_dynamic)),
                self._tabs[:, 0, self._thread_ix, row]))

    def _ambient_table(self, volts: np.ndarray
                       ) -> Tuple[np.ndarray, np.ndarray]:
        """Block leakage of the fixed point's first iterate, tabulated.

        Every row's first iterate is the ambient temperature, so on one
        die its leakage depends only on each thread's level. ``volts``
        is ``(L, n)``: table row ``l`` puts every thread at level ``l``
        (levels past a core's grid are padding no row reads). Returns
        ``(core, base)``: ``core[l, i]`` is thread ``i``'s core leakage
        at level ``l``, ``base`` the per-block vector holding the
        constant L2 values (zero on idle cores). The values come out of
        :meth:`_CellLayout.leakage` itself, and its per-row results do
        not depend on the other rows of the call, so a lookup is bitwise
        the iteration-1 leakage the row would compute.
        """
        layout = self._layout
        n_levels, n = volts.shape
        vdd, dib = layout.supplies(volts)
        seg = layout.leakage(
            np.full((n_levels, self._n_blocks), self._thermal.ambient_k),
            vdd, dib, self._vth, self._weights, self._scale)
        core = np.empty((n_levels, n))
        core[:, layout.threads] = seg[:, :n]
        base = np.zeros(self._n_blocks)
        base[layout.seg_block[n:]] = seg[0, n:]
        return core, base

    def core_leakage(self, volts: np.ndarray,
                     core_temps: np.ndarray) -> np.ndarray:
        """Per-thread core leakage (W) at given supplies, one-die kernel.

        ``volts`` is ``(rows, n_threads)``: row ``r`` puts thread ``i``
        at supply ``volts[r, i]``, and every row sees the per-core
        temperatures ``core_temps`` (indexed by core id; a block
        temperature vector works too). Only the core segments of
        :class:`_CellLayout` are evaluated, as in the fixed point's
        final per-thread recompute, so entry ``[r, i]`` is bitwise
        ``CoreLeakageModel.power(volts[r, i], core_temps[core_of[i]])``
        whatever the other rows hold. LinOpt profiles every (thread,
        profiling voltage) pair of a pass in one call.
        """
        if self.n_dies != 1:
            raise ValueError("core_leakage needs a one-die kernel")
        volts = np.asarray(volts, dtype=float)
        core_temps = np.asarray(core_temps, dtype=float)
        temps = np.broadcast_to(core_temps,
                                (volts.shape[0], core_temps.size))
        vdd, dib = self._layout.supplies(volts)
        return self._thread_leakage(temps, vdd, dib, self._vth,
                                    self._weights, self._scale)

    def _thread_leakage(self, temps: np.ndarray, vdd: np.ndarray,
                        dib: np.ndarray, vth: np.ndarray,
                        weights: np.ndarray,
                        scale: np.ndarray) -> np.ndarray:
        """``(rows, n_threads)`` core leakage in thread order, from the
        pack-order supplies of :meth:`_CellLayout.supplies`."""
        layout = self._layout
        n = self._n
        out = np.empty((temps.shape[0], n))
        out[:, layout.threads] = layout.leakage(
            temps, vdd[:, :n], dib[:, :n], vth, weights, scale)
        return out

    @property
    def n_dies(self) -> int:
        return len(self.chips)

    # ------------------------------------------------------------------
    def evaluate_levels(self, levels: Sequence[int]) -> SystemState:
        """Single-candidate convenience wrapper (batch of one)."""
        return self.evaluate_levels_batch([list(levels)])[0]

    def evaluate_levels_batch(
        self, levels_matrix: Sequence[Sequence[int]],
        errors: str = "raise",
    ) -> List[SystemState]:
        """Evaluate ``B`` candidate level vectors on the kernel's die.

        Args:
            levels_matrix: ``(B, n_threads)`` integer array-like; row
                ``b`` is one candidate assignment of per-thread DVFS
                levels.
            errors: ``"raise"`` (default) re-raises the exception of
                the lowest-index failing row — exactly what a serial
                in-order scan of the rows would raise first (all the
                fixed-point error messages are static, so which row
                trips first inside the lockstep iteration cannot leak
                into the raised error). ``"isolate"`` instead returns
                the exception *object* in that row's slot, so a
                speculative batch of candidates a serial search might
                never have evaluated cannot abort on a divergent one.
                The managers speculate only through
                :meth:`StateMemo.walk`, which re-raises a failure the
                search reaches.

        Returns:
            One converged :class:`SystemState` per row, in row order —
            element ``b`` is bitwise-identical to
            ``evaluate_levels(chip, workload, assignment,
            levels_matrix[b])`` (including, under ``"isolate"``, which
            rows raise and with what message).

        Raises:
            ValueError: on a kernel of more than one die, or on levels
                that are not one in-range integer per thread.
        """
        if self.n_dies != 1:
            raise ValueError("evaluate_levels_batch needs a one-die "
                             "kernel; use evaluate_levels_fleet")
        levels = self.check_levels(levels_matrix, errors)
        if levels.shape[0] == 0:
            return []
        return list(self._evaluate_rows(
            np.zeros(levels.shape[0], dtype=np.intp), levels, errors))

    def evaluate_levels_fleet(
        self, levels: Sequence[int],
        errors: str = "raise",
    ) -> StateColumns:
        """Evaluate one decision on every die.

        Args:
            levels: ``(n_threads,)`` per-thread DVFS levels applied to
                every die (the fleet's shared decision), or a
                ``(n_dies, n_threads)`` matrix with one row per die.
            errors: ``"raise"`` (default) re-raises the exception of
                the lowest-index failing die — exactly what a serial
                in-order scan of the dies would raise first.
                ``"isolate"`` returns the exception *object* in that
                die's slot instead, so campaign drivers can record the
                failure and keep streaming the rest of the fleet.

        Returns:
            The call's :class:`StateColumns`: per-die columns with a
            leading die axis, read as a sequence with one entry per
            die, in die order. Entry ``d`` is a :class:`SystemState`
            bitwise-identical to ``evaluate_levels(chips[d],
            workloads[d], assignment, levels[d])``, built when read, or
            under ``"isolate"`` the exception that call raises. A
            caller that needs one quantity of every die reads its
            column instead (``fleet_die_metrics`` reads
            ``core_power[:, 0]``).
        """
        levels = self.check_levels(levels, errors, n_rows=self.n_dies)
        return self._evaluate_rows(np.arange(self.n_dies), levels, errors)

    def evaluate_max_levels_fleet(self,
                                  errors: str = "raise",
                                  ) -> StateColumns:
        """Every die at its cores' top operating points (NUniFreq).

        Returns the :class:`StateColumns` of
        :meth:`evaluate_levels_fleet` at each core's top level.
        """
        return self.evaluate_levels_fleet(self._n_levels - 1,
                                          errors=errors)

    def check_levels(self, levels, errors: str = "raise",
                     n_rows: Optional[int] = None) -> np.ndarray:
        """``levels`` as a validated ``(rows, n_threads)`` int matrix.

        A 1-D vector is one row, repeated on all ``n_rows`` rows when a
        row count is required. Levels must be integers — a float level
        is an error, never truncated — and in range for their core.
        """
        if errors not in ("raise", "isolate"):
            raise ValueError("errors must be 'raise' or 'isolate'")
        lv = np.asarray(levels)
        if lv.ndim == 1:
            lv = np.broadcast_to(lv, (n_rows or 1, lv.size))
        if (lv.ndim != 2 or lv.shape[1] != self._n
                or n_rows not in (None, lv.shape[0])):
            raise ValueError("need one level per thread" + (
                "" if n_rows is None else " (optionally one row per die)"))
        if lv.dtype.kind not in "iu":
            if lv.size:
                raise ValueError(f"levels must be integers, not {lv.dtype}")
            lv = lv.astype(int)
        bad = (lv < 0) | (lv >= self._n_levels[None, :])
        if bad.any():
            b, i = np.argwhere(bad)[0]
            raise ValueError(
                f"level {lv[b, i]} out of range for core "
                f"{self._core_of[i]}")
        return lv

    def _evaluate_rows(self, rows: np.ndarray, levels: np.ndarray,
                       errors: str) -> StateColumns:
        """Evaluate validated level rows, level row ``b`` on kernel row
        ``rows[b]``, into one :class:`StateColumns`.

        Past 16 rows of the 20-core die the (rows, cells) working
        matrices outgrow the L2 cache and per-row cost climbs ~60%, so
        rows are evaluated in slabs of at most ``_SLAB_CELLS`` leakage
        cells, each writing its rows of the call's columns. Rows are
        fully independent (each runs its own serial iteration
        schedule), so slabbing cannot change any result. The row totals
        are then formed for the whole call by :func:`_row_totals`; a
        failed row holds finite placeholders there, never uninitialised
        memory. Under ``errors="raise"`` the lowest-index captured
        exception is re-raised — the one a serial in-order scan would
        hit first.
        """
        n_rows = levels.shape[0]
        shared = self._vth.ndim == 1
        step = self._slab_rows
        volts, freqs, ipcs, core_dyn = self._tabs[
            :, rows[:, None], self._thread_ix, levels]
        temps = np.empty((n_rows, self._n_blocks))
        powers = np.empty((n_rows, self._n_blocks))
        core_leak = np.empty((n_rows, self._n))
        failed: Dict[int, Exception] = {}
        total_iters = 0
        for c0 in range(0, n_rows, step):
            s = slice(c0, c0 + step)
            if shared:
                leak = (self._vth, self._weights, self._scale)
            else:
                p = self._pack_of[rows[s]]
                leak = (self._vth[p], self._weights[p], self._scale[p])
            iters, slab_failed = self._evaluate(
                levels[s], volts[s], core_dyn[s], *leak,
                temps[s], powers[s], core_leak[s])
            total_iters += iters
            if slab_failed:
                failed.update((c0 + r, err)
                              for r, err in slab_failed.items())
        l2_power, total = _row_totals(powers, self._n_cores, core_dyn,
                                      core_leak)
        self.stats.record(n_rows, total_iters)
        EVALUATION_COUNTER.record(n_rows, total_iters)
        if errors == "raise" and failed:
            raise failed[min(failed)]
        return StateColumns(volts, freqs, ipcs, core_dyn, core_leak, temps,
                            l2_power, total, failed)

    def _evaluate(self, levels: np.ndarray, volts: np.ndarray,
                  core_dyn: np.ndarray, vth: np.ndarray,
                  weights: np.ndarray, scale: np.ndarray,
                  temps: np.ndarray, powers: np.ndarray,
                  core_leak: np.ndarray):
        """Evaluate one slab of rows from their gathered table values.

        ``vth``/``weights``/``scale`` are the packed leakage state of
        :meth:`_CellLayout.pack` — shared (1-D) or one row per slab row
        (2-D). Writes the slab's converged block temperatures, block
        powers and per-thread core leakage into ``temps``, ``powers``
        and ``core_leak``; returns ``(fixed-point iterations, {slab row:
        exception})``.
        """
        n_rows = volts.shape[0]
        block_dyn = np.zeros((n_rows, self._n_blocks))
        block_dyn[:, self._core_of] = core_dyn
        l2_dyn_total = L2_DYNAMIC_FRACTION * core_dyn.sum(axis=1)
        block_dyn[:, self._n_cores:] = (l2_dyn_total[:, None]
                                        * self._l2_dyn_share[None, :])
        layout = self._layout
        vdd, dib = layout.supplies(volts)
        first_leak = None
        if self._ambient_leak is not None:
            core, base = self._ambient_leak
            first_leak = np.tile(base, (n_rows, 1))
            first_leak[:, self._core_of] = core[levels, self._thread_ix]
        iters, failed = self._fixed_point(
            block_dyn, _SlabLeakage(layout, vdd, dib, vth, weights, scale),
            first_leak, temps, powers)
        if np.any(temps <= 0):
            raise ValueError("temperature must be positive kelvin")
        core_leak[...] = self._thread_leakage(temps, vdd, dib, vth,
                                              weights, scale)
        return int(iters.sum()), failed

    def _fixed_point(self, block_dyn: np.ndarray, leakage: _SlabLeakage,
                     first_leak: Optional[np.ndarray], out_temps: np.ndarray,
                     out_powers: np.ndarray):
        """Lockstep leakage-temperature fixed point with row masks.

        Every row starts from the ambient temperature and takes exactly
        the damped iteration sequence of
        :func:`repro.thermal.solve_with_leakage`; rows that converge
        are frozen (their temperatures stop updating) and compacted out
        of the working set, so survivors never feel their finished
        neighbours. A row that diverges is likewise compacted out, with
        the exception the serial path would have raised (same type,
        same message) recorded in its ``row_errors`` slot — its batch
        neighbours run to completion untouched. ``leakage`` evaluates
        the working rows and is compacted with them. ``first_leak``,
        when given, is every row's block leakage at the ambient (the
        kernel's tabulated first iterate) and replaces iteration 1's
        leakage evaluation; iteration 1 still solves and counts.

        Converged rows write their temperatures and block powers into
        ``out_temps``/``out_powers``. A failed row is parked at the
        ambient temperature with zero block power, so the final
        per-thread recompute and the row totals stay finite; its state
        is never read. Returns ``(per-row iterations, {row: exception})``.

        Each guard first makes one slab-wide test and builds the exact
        per-row mask only when that test trips. ``not x.min() > 0`` and
        ``not x.max() <= RUNAWAY_TEMP_K`` hold whenever some row's
        per-row test does (they also trip on a NaN, which the per-row
        mask then ignores, as the serial comparisons do); a finite
        ``total.sum()`` implies every entry is finite, and a sum that
        overflows falls through to the exact per-row test.
        """
        n_rows = block_dyn.shape[0]
        out_iters = np.zeros(n_rows, dtype=int)
        row_errors: Dict[int, Exception] = {}
        ambient = self._thermal.ambient_k
        seg_block = self._layout.seg_block
        solve_many = self._thermal.solve_many
        # Idle-core columns are never written, so they stay zero.
        leak_buf = np.zeros((n_rows, self._n_blocks))

        orig = np.arange(n_rows)
        work_temps = np.full((n_rows, self._n_blocks), ambient)
        work_dyn = block_dyn

        def compact(keep: np.ndarray) -> None:
            nonlocal orig, work_dyn
            orig = orig[keep]
            work_dyn = work_dyn[keep]
            leakage.compact(keep)

        def fail(bad: np.ndarray, error: type, message: str) -> bool:
            """Record ``error(message)`` for the ``bad`` rows and compact
            them away; True when no active rows remain."""
            nonlocal work_temps
            lost = orig[bad]
            for r in lost.tolist():
                row_errors[r] = error(message)
            out_iters[lost] = iteration
            out_temps[lost] = ambient
            out_powers[lost] = 0.0
            compact(~bad)
            work_temps = work_temps[~bad]
            return orig.size == 0

        for iteration in range(1, MAX_ITERATIONS + 1):
            # A non-positive iterate would raise inside the serial
            # leakage_factor call of this iteration.
            if not work_temps.min() > 0:
                bad = (work_temps <= 0).any(axis=1)
                if bad.any() and fail(bad, ValueError,
                                      "temperature must be positive kelvin"):
                    return out_iters, row_errors
            if iteration == 1 and first_leak is not None:
                # Every row shares iteration 1's ambient iterate, so the
                # guard above dropped all rows or none: ``first_leak``
                # is still aligned with the working set.
                leak = first_leak
            else:
                leak = leak_buf[:orig.size]
                leak[:, seg_block] = leakage(work_temps)
            total = work_dyn + leak
            if not math.isfinite(total.sum()):
                bad = ~np.isfinite(total).all(axis=1)
                if bad.any():
                    kept_total = total[~bad]
                    if fail(bad, ThermalRunawayError,
                            "leakage diverged before the temperature did"):
                        return out_iters, row_errors
                    total = kept_total
            solved = solve_many(total)
            new_temps = DAMPING * solved + (1.0 - DAMPING) * work_temps
            if not new_temps.max() <= RUNAWAY_TEMP_K:
                bad = new_temps.max(axis=1) > RUNAWAY_TEMP_K
                if bad.any():
                    kept_total = total[~bad]
                    kept_new = new_temps[~bad]
                    if fail(bad, ThermalRunawayError,
                            f"block temperature exceeded {RUNAWAY_TEMP_K} "
                            "K: the leakage-temperature loop gain is above "
                            "unity for these power/cooling parameters"):
                        return out_iters, row_errors
                    total = kept_total
                    new_temps = kept_new
            delta = np.abs(new_temps - work_temps).max(axis=1)
            converged = delta < DEFAULT_TOLERANCE_K
            if converged.any():
                done = orig[converged]
                out_temps[done] = new_temps[converged]
                out_powers[done] = total[converged]
                out_iters[done] = iteration
                if converged.all():
                    return out_iters, row_errors
                compact(~converged)
                work_temps = new_temps[~converged]
            else:
                work_temps = new_temps
        # Rows still iterating fail at the cap (``iteration`` is
        # ``MAX_ITERATIONS`` once the loop has run out).
        fail(np.ones(orig.size, dtype=bool), RuntimeError,
             "leakage-temperature iteration did not converge "
             f"within {MAX_ITERATIONS} iterations (thermal runaway?)")
        return out_iters, row_errors


@dataclass(eq=False)
class StateColumns(abc.Sequence):
    """One kernel call's rows as columns, read as a sequence of states.

    Per-row quantities are arrays with a leading row axis:
    ``voltages``, ``freqs``, ``ipcs``, ``core_dynamic`` and
    ``core_leakage`` are ``(rows, n_threads)``, ``block_temps`` is
    ``(rows, n_blocks)``, and the row totals ``l2_power`` and
    ``total_power`` are ``(rows,)``. They are the call's own arrays,
    shared with no other object; callers read them and never write
    them. ``errors`` maps each failed row to the exception it
    captured; a failed row's columns hold placeholders (ambient
    temperatures, zero L2 power).

    ``rows[d]`` builds row ``d``'s :class:`SystemState` when read, with
    copies of the row's arrays, so it is bitwise the state the serial
    evaluation returns and mutating it never reaches the columns. A
    failed row reads as its exception. ``len``, iteration and negative
    indices behave as on the list of states; a slice is such a list.
    """

    voltages: np.ndarray
    freqs: np.ndarray
    ipcs: np.ndarray
    core_dynamic: np.ndarray
    core_leakage: np.ndarray
    block_temps: np.ndarray
    l2_power: np.ndarray
    total_power: np.ndarray
    errors: Dict[int, Exception]

    @property
    def core_power(self) -> np.ndarray:
        """``(rows, n_threads)`` total core power (W), every row's
        :attr:`SystemState.core_power`."""
        return self.core_dynamic + self.core_leakage

    def __len__(self) -> int:
        return self.total_power.shape[0]

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [self._row(d) for d in range(*index.indices(len(self)))]
        d = operator.index(index)
        n = len(self)
        if not -n <= d < n:
            raise IndexError("row index out of range")
        return self._row(d % n)

    def __iter__(self):
        return map(self._row, range(len(self)))

    def _row(self, d: int) -> Union[SystemState, Exception]:
        error = self.errors.get(d)
        if error is not None:
            return error
        return SystemState(
            voltages=self.voltages[d].copy(),
            freqs=self.freqs[d].copy(),
            ipcs=self.ipcs[d].copy(),
            core_dynamic=self.core_dynamic[d].copy(),
            core_leakage=self.core_leakage[d].copy(),
            block_temps=self.block_temps[d].copy(),
            l2_power=float(self.l2_power[d]),
            total_power=float(self.total_power[d]),
        )


#: Bound on a :class:`StateMemo`; past it the oldest state is evicted.
#: A SAnn decision evaluates at most its annealing budget (2000 by
#: default) and a few hundred quench points, so at the default
#: settings nothing is evicted. The bound only stops a long search
#: from holding every state it saw.
STATE_CACHE_CAPACITY = 4096

# Chunk bounds of :meth:`StateMemo.walk`. Set both to 1 and every
# kernel call holds the one candidate a sequential search evaluates
# next: the reference schedule the speculative one is held to. A cap
# of 16 ran the fig11_sann benchmark no faster than 8 and raised its
# peak RSS by 2.6 MB, the working arrays of 16-row slabs on the
# 20-core die.
_WALK_MIN = 2
_WALK_MAX = 8


class StateMemo:
    """Evaluated states of one one-die kernel, keyed by level vector.

    The managers' sequential searches keep landing on level vectors
    they have already evaluated: LinOpt's passes quantise back to an
    earlier pass's point, SAnn's annealing revisits its neighbours,
    Foxton*'s step-ups retrace its step-downs. ``EvalKernel`` rows are
    deterministic and independent of their batch neighbours, so a
    repeat served from here is bitwise the row the kernel would
    compute. Only misses go to the kernel; ``hits`` counts the rows
    served instead. At most ``STATE_CACHE_CAPACITY`` states are held,
    the oldest evicted first, and an evicted vector is evaluated again.

    The memo holds only its kernel's rows: states the kernel computed,
    and a caller's warm-start state that :meth:`EvalKernel.tabulates`
    proves is one (:meth:`seed`). Every level row is validated by the
    kernel before it is looked up, so a hit raises the kernel's error
    for an invalid row as a miss does. A failed row is not stored, so
    a failing vector raises again whenever it is evaluated.
    """

    def __init__(self, kernel: EvalKernel) -> None:
        if kernel.n_dies != 1:
            raise ValueError("StateMemo needs a one-die kernel")
        self.kernel = kernel
        self.states: Dict[Tuple[int, ...], SystemState] = {}
        self.hits = 0
        self._chunk = _WALK_MIN

    def begin_decision(self) -> None:
        """Reset the kernel stats, the hit count and the walk's chunk,
        so all three describe the decision about to run on a memo
        carried over from the last one."""
        self.kernel.stats.reset()
        self.hits = 0
        self.begin_search()

    def begin_search(self) -> None:
        """Start the next :meth:`walk` at ``_WALK_MIN``: a search from
        a new point learns nothing from where the last one stopped."""
        self._chunk = _WALK_MIN

    def result_stats(self) -> Dict[str, float]:
        """``state_memo_hits`` and the kernel's ``PmResult.stats``."""
        return {"state_memo_hits": float(self.hits),
                **self.kernel.stats.as_result_stats()}

    def seed(self, levels: Sequence[int], state: SystemState) -> None:
        """Adopt ``state`` as the row at ``levels`` if it is that row.

        ``state`` is the caller's warm start, an evaluation of
        ``levels`` on the kernel's die, workload and assignment.
        """
        key = tuple(self.kernel.check_levels(levels)[0].tolist())
        if key not in self.states and self.kernel.tabulates(key, state):
            self._store(key, state)

    def _store(self, key: Tuple[int, ...], state: SystemState) -> None:
        self.states[key] = state
        if len(self.states) > STATE_CACHE_CAPACITY:
            del self.states[next(iter(self.states))]

    def evaluate(self, levels: Sequence[int]) -> SystemState:
        return self.evaluate_batch([levels])[0]

    def evaluate_batch(self, levels_matrix: Sequence[Sequence[int]],
                       errors: str = "raise") -> List:
        """``EvalKernel.evaluate_levels_batch`` through the memo."""
        rows = self.kernel.check_levels(levels_matrix, errors)
        keys = [tuple(row) for row in rows.tolist()]
        out = [self.states.get(key) for key in keys]
        misses = [b for b, state in enumerate(out) if state is None]
        self.hits += len(keys) - len(misses)
        if misses:
            states = self.kernel.evaluate_levels_batch(rows[misses],
                                                       errors=errors)
            for b, state in zip(misses, states):
                out[b] = state
                if not isinstance(state, Exception):
                    self._store(keys[b], state)
        return out

    def walk(self, candidates: Iterable[Sequence[int]],
             stop: Callable[[SystemState], bool]) -> List[SystemState]:
        """Evaluate ``candidates`` in order up to the first ``stop``.

        Returns the states of the consumed prefix: every candidate up
        to and including the first whose state satisfies ``stop``, or
        all of them. ``stop`` sees each consumed state once, in order.

        ``candidates`` is drawn lazily, a chunk at a time, and each
        chunk goes through :meth:`evaluate_batch` under
        ``errors="isolate"``. Candidates past the stop are speculation:
        evaluated and stored, never returned, and a failure among them
        never surfaces. A failing candidate the walk reaches raises its
        error. The chunk starts at ``_WALK_MIN`` each decision, doubles
        up to ``_WALK_MAX`` after a chunk without a stop, and after a
        stop at chunk index ``i`` becomes ``i + 2``, so it tracks how
        far ahead the last stop landed. It shapes the kernel calls,
        never the result.
        """
        candidates = iter(candidates)
        consumed: List[SystemState] = []
        while True:
            chunk = list(islice(candidates, self._chunk))
            if not chunk:
                return consumed
            states = self.evaluate_batch(chunk, errors="isolate")
            for index, state in enumerate(states):
                if isinstance(state, Exception):
                    raise state
                consumed.append(state)
                if stop(state):
                    self._chunk = max(_WALK_MIN, min(_WALK_MAX, index + 2))
                    return consumed
            self._chunk = min(self._chunk * 2, _WALK_MAX)


# The end-to-end benchmark's span table (benchmarks/e2e/spans.py) names
# the fleet entry point ``FleetEvalKernel.evaluate_levels_fleet`` and
# looks it up in the class ``__dict__``; that table is pinned with the
# benchmark, so the old class name stays as an alias.
FleetEvalKernel = EvalKernel
