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

:class:`EvalKernel` is precomputed once per (dies, workload,
assignment, phase multipliers): it packs the per-core V/f tables and
the per-level IPC / dynamic-power values into contiguous arrays,
packs every leakage cell the fixed point touches into one size-grouped
row (:class:`_CellLayout`), and evaluates many rows simultaneously —
``B`` candidate operating points on one die, or one decision on each
of ``D`` dies of one design. The leakage-temperature fixed point runs
in lockstep across rows with per-row convergence masks, so each row
sees exactly the serial iteration schedule and the results are
**bitwise identical** to the serial loop (tests/test_kernel.py and
tests/test_fleet.py property-test this).

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

The kernel reports into the process-global
:data:`repro.runtime.evaluation.EVALUATION_COUNTER` (every candidate
counts as one full evaluation) and into a per-instance
:class:`KernelStats` that policies surface through
``PmResult.stats`` and the BENCH_*.json emitters.
"""

from __future__ import annotations

import math
import time
from itertools import groupby, repeat
from typing import Dict, List, Optional, Sequence, Tuple, Union

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
from .evaluation import EVALUATION_COUNTER, Assignment, SystemState

# Rows per internal fixed-point chunk: keeps the (rows, total_cells)
# working matrices inside the L2 cache. Purely an execution-shaping
# knob — results are independent of it.
_CHUNK_ROWS = 16


def _scalar_pow_prefactor(temps: np.ndarray,
                          vdd: np.ndarray) -> np.ndarray:
    """Per-(row, segment) scalar leakage prefactor.

    ``vdd * (t / Tref) ** 2`` computed with the serial path's *scalar*
    semantics: the square goes through libm ``pow()`` (what a 0-d
    ``** 2`` resolves to), which differs from every numpy array square
    by 1 ulp for rare inputs — the one place scalar and array float
    paths genuinely diverge. The division and multiply are
    single-rounded IEEE ops, identical either way, so only the ``pow``
    needs the scalar loop — a few dozen scalars per row, not one per
    cell.
    """
    ratio = temps / T_REF_K
    sq = np.fromiter(map(math.pow, ratio.ravel().tolist(), repeat(2.0)),
                     dtype=float, count=ratio.size)
    return vdd * sq.reshape(ratio.shape)


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
    die, or one row per die of a fleet.
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

        Evaluates the first ``k = vdd.shape[1]`` segments: all of them
        inside the fixed point, the ``n_core`` core segments for the
        final per-thread recompute. ``temps`` holds block temperatures;
        ``vth``/``weights``/``scale`` are packed rows, either one shared
        by every row (1-D) or one per row (2-D).

        The per-segment terms of ``leakage_factor``'s expression tree
        — ``(t - Tref) * k``, the DIBL term, ``-(t * k_B) * n`` and the
        libm-``pow`` prefactor — are formed once per segment, copied to
        cells by one ``np.repeat``, and combined in one flat five-ufunc
        pass over the packed row. ``x / -y`` is bitwise ``-x / y``
        (IEEE division is sign-symmetric); the other deviations from
        the source expression are commuted operands. The reductions
        are one ``np.vecdot`` (weighted core sums) or
        ``np.add.reduce(axis=2)`` (L2 means) per equal-size run, each
        row of which is exactly the serial contiguous ``ddot`` /
        pairwise sum (tests/test_kernel.py guards both).
        """
        rows, k = vdd.shape
        t = temps[:, self.seg_block[:k]]
        terms = np.empty((4, rows, k))
        np.subtract(t, T_REF_K, out=terms[0])
        np.multiply(terms[0], self._vth_temp_coeff, out=terms[0])
        terms[1] = dib
        np.multiply(t, BOLTZMANN_EV, out=terms[2])
        np.multiply(terms[2], self._n_slope, out=terms[2])
        np.negative(terms[2], out=terms[2])
        terms[3] = _scalar_pow_prefactor(t, vdd)
        cells = np.repeat(terms, self.seg_sizes[:k], axis=2)
        f = cells[0]
        np.add(f, vth[..., :f.shape[1]], out=f)       # vth_eff
        np.subtract(f, cells[1], out=f)
        np.divide(f, cells[2], out=f)
        np.exp(f, out=f)
        np.multiply(f, cells[3], out=f)

        out = np.empty((rows, k))
        for k0, k1, c0, c1, size in self.core_runs:
            shape = (k1 - k0, size)
            w = weights[..., c0:c1]
            out[:, k0:k1] = scale[..., k0:k1] * np.vecdot(
                w.reshape(w.shape[:-1] + shape),
                f[:, c0:c1].reshape((rows,) + shape))
        if k > self.n_core:
            for k0, k1, c0, c1, size in self.l2_runs:
                sums = np.add.reduce(
                    f[:, c0:c1].reshape(rows, k1 - k0, size), axis=2)
                out[:, k0:k1] = scale[..., k0:k1] * (sums / size)
        return out


class KernelStats:
    """Per-kernel observability counters.

    Mirrors the process-global counter for one kernel instance so a
    policy can report exactly the work *it* did. All quantities are
    cumulative over the kernel's lifetime.
    """

    __slots__ = ("evaluations", "batch_calls", "fixed_point_iterations",
                 "wall_s", "batch_size_hist")

    def __init__(self) -> None:
        self.evaluations = 0
        self.batch_calls = 0
        self.fixed_point_iterations = 0
        self.wall_s = 0.0
        self.batch_size_hist: Dict[int, int] = {}

    def record(self, batch_size: int, iterations: int,
               wall_s: float) -> None:
        self.evaluations += batch_size
        self.batch_calls += 1
        self.fixed_point_iterations += iterations
        self.wall_s += wall_s
        self.batch_size_hist[batch_size] = (
            self.batch_size_hist.get(batch_size, 0) + 1)

    @property
    def max_batch(self) -> int:
        return max(self.batch_size_hist) if self.batch_size_hist else 0

    def as_result_stats(self) -> Dict[str, float]:
        """Scalar view merged into ``PmResult.stats`` (floats only)."""
        mean_batch = (self.evaluations / self.batch_calls
                      if self.batch_calls else 0.0)
        return {
            "kernel_evaluations": float(self.evaluations),
            "kernel_batches": float(self.batch_calls),
            "kernel_batch_max": float(self.max_batch),
            "kernel_batch_mean": float(mean_batch),
            "kernel_fp_iterations": float(self.fixed_point_iterations),
            "kernel_wall_s": float(self.wall_s),
        }


class EvalKernel:
    """Batched system evaluation: ``B`` candidates or ``D`` dies per call.

    Precomputes everything that does not depend on the levels — the
    per-(die, thread, level) voltages, frequencies, IPCs and dynamic
    powers, the L2 area-share vector, the packed leakage cell rows —
    once per (dies, workload, assignment, phase multipliers). Two entry
    points feed rows of levels through one lockstep fixed point:

    * :meth:`evaluate_levels_batch` — ``B`` candidate decisions on a
      one-die kernel (the power managers' search loops);
    * :meth:`evaluate_levels_fleet` — one decision on each of the
      ``D`` dies (the Monte-Carlo axis of Figs 4/5 and the fleet
      campaigns).

    Row ``b`` on die ``d`` is bitwise identical to the serial
    ``evaluate_levels(chips[d], workload, assignment, levels[b])``,
    failures included (tests/test_kernel.py, tests/test_fleet.py).

    All dies must come off one design: identical
    :class:`~repro.config.TechParams` and
    :class:`~repro.config.ArchConfig`, hence identical floorplans,
    thermal networks, V/f level grids and variation-cell layouts — only
    the *values* (binned frequencies, Vth maps, calibrations) differ.
    The thermal solve uses ``chips[0]``'s network; networks built from
    the same floorplan factor the same matrix, so the shared solve is
    bit-for-bit each die's own. With one die the packed leakage rows
    are 1-D and shared by every row, so a candidate batch neither
    copies nor compacts them; with ``D`` dies they are
    ``(D, n_cells)`` and compacted with their rows.

    Args:
        chips: One characterised die, or a sequence of dies of one
            design.
        workload: The threads (``workload[i]`` runs on
            ``assignment.core_of[i]`` of every die).
        assignment: Thread-to-core mapping, shared by all dies.
        ipc_multipliers: Optional per-thread phase IPC multipliers.
        ceff_multipliers: Optional per-thread phase power multipliers.
    """

    def __init__(
        self,
        chips: Union[ChipProfile, Sequence[ChipProfile]],
        workload: Workload,
        assignment: Assignment,
        ipc_multipliers: Optional[Sequence[float]] = None,
        ceff_multipliers: Optional[Sequence[float]] = None,
    ) -> None:
        chips = [chips] if isinstance(chips, ChipProfile) else list(chips)
        if not chips:
            raise ValueError("fleet must contain at least one die")
        first = chips[0]
        for chip in chips[1:]:
            if chip.tech != first.tech or chip.arch != first.arch:
                raise ValueError(
                    "fleet dies must share TechParams and ArchConfig")
            if chip.thermal.n_blocks != first.thermal.n_blocks:
                raise ValueError("fleet dies must share the thermal "
                                 "network shape")
            if not np.array_equal(chip.floorplan.l2_area_share,
                                  first.floorplan.l2_area_share):
                raise ValueError("fleet dies must share the floorplan")
        n = assignment.n_threads
        if workload.n_threads != n:
            raise ValueError("workload and assignment sizes differ")
        if max(assignment.core_of) >= first.n_cores:
            raise ValueError("assignment references a core beyond the die")
        ipc_mult = (np.ones(n) if ipc_multipliers is None
                    else np.asarray(ipc_multipliers, dtype=float))
        ceff_mult = (np.ones(n) if ceff_multipliers is None
                     else np.asarray(ceff_multipliers, dtype=float))
        if ipc_mult.shape != (n,) or ceff_mult.shape != (n,):
            raise ValueError("need one multiplier per thread")

        self.chips = chips
        self.workload = workload
        self.assignment = assignment
        self.stats = KernelStats()
        self._thermal = first.thermal
        self._n = n
        self._thread_ix = np.arange(n)
        self._core_of = np.asarray(assignment.core_of, dtype=int)
        self._n_cores = first.n_cores
        self._n_blocks = first.thermal.n_blocks

        # Per-(die, thread, level) voltage, frequency, IPC and dynamic
        # power, stacked as one (4, D, n, L) table so a chunk of rows
        # is a single gather. Each entry is the serial path's scalar
        # expression, so a lookup is bit-for-bit the serial computation.
        self._n_levels = np.array(
            [first.cores[c].vf_table.n_levels for c in assignment.core_of])
        self._tabs = np.zeros((4, len(chips), n, int(self._n_levels.max())))
        volts, freqs, ipcs, dyn = self._tabs
        for d, chip in enumerate(chips):
            for i, core in enumerate(assignment.core_of):
                table = chip.cores[core].vf_table
                if table.n_levels != self._n_levels[i]:
                    raise ValueError("fleet dies must share the DVFS "
                                     "level grid")
                for lv in range(table.n_levels):
                    v = table.voltages[lv]
                    f = table.freqs[lv]
                    volts[d, i, lv] = v
                    freqs[d, i, lv] = f
                    ipcs[d, i, lv] = workload[i].ipc_at(f) * ipc_mult[i]
                    dyn[d, i, lv] = (workload[i].ceff * ceff_mult[i]
                                     * v ** 2 * f)

        # Packed leakage rows: one shared 1-D set for a single die, one
        # row per die otherwise. The layout itself is shared: same
        # floorplan, same cell counts (checked per die by ``pack``).
        self._layout = _CellLayout(first, assignment.core_of)
        self._l2_dyn_share = first.floorplan.l2_area_share
        packed = [self._layout.pack(chip) for chip in chips]
        if len(chips) == 1:
            self._vth, self._weights, self._scale = packed[0]
        else:
            self._vth, self._weights, self._scale = (
                np.stack(col) for col in zip(*packed))

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
                the exception *object* in that row's slot, so
                speculative callers can batch candidates a serial
                search might never have evaluated without a divergent
                speculation aborting the real ones.

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
        levels = self._check_levels(levels_matrix, errors)
        if levels.shape[0] == 0:
            return []
        return self._evaluate_rows(
            np.zeros(levels.shape[0], dtype=np.intp), levels, errors)

    def evaluate_levels_fleet(
        self, levels: Sequence[int],
        errors: str = "raise",
    ) -> List[SystemState]:
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
            One converged :class:`SystemState` per die, in die order —
            element ``d`` is bitwise-identical to
            ``evaluate_levels(chips[d], workload, assignment,
            levels[d])``.
        """
        levels = self._check_levels(levels, errors, n_rows=self.n_dies)
        return self._evaluate_rows(np.arange(self.n_dies), levels, errors)

    def evaluate_max_levels_fleet(self,
                                  errors: str = "raise",
                                  ) -> List[SystemState]:
        """Every die at its cores' top operating points (NUniFreq)."""
        return self.evaluate_levels_fleet(self._n_levels - 1,
                                          errors=errors)

    def _check_levels(self, levels, errors: str,
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

    def _evaluate_rows(self, dies: np.ndarray, levels: np.ndarray,
                       errors: str) -> List:
        """Evaluate validated level rows, row ``b`` on die ``dies[b]``.

        Past ~16 rows the (rows, total_cells) working matrices outgrow
        the L2 cache and per-row cost climbs ~60%, so rows are
        evaluated in chunks. Rows are fully independent (each runs its
        own serial iteration schedule), so chunking cannot change any
        result. Under ``errors="raise"`` the lowest-index captured
        exception is re-raised — the one a serial in-order scan would
        hit first.
        """
        start = time.perf_counter()
        n_rows = levels.shape[0]
        shared = self._vth.ndim == 1
        out: List = []
        total_iters = 0
        for c0 in range(0, n_rows, _CHUNK_ROWS):
            d = dies[c0:c0 + _CHUNK_ROWS]
            volts, freqs, ipcs, core_dyn = self._tabs[
                :, d[:, None], self._thread_ix, levels[c0:c0 + _CHUNK_ROWS]]
            leak = ((self._vth, self._weights, self._scale) if shared
                    else (self._vth[d], self._weights[d], self._scale[d]))
            states, iters = self._evaluate(volts, freqs, ipcs, core_dyn,
                                           *leak)
            out.extend(states)
            total_iters += iters
        wall = time.perf_counter() - start
        self.stats.record(n_rows, total_iters, wall)
        EVALUATION_COUNTER.record_batch(n_rows, total_iters, wall)
        if errors == "raise":
            for item in out:
                if isinstance(item, Exception):
                    raise item
        return out

    def _evaluate(self, volts: np.ndarray, freqs: np.ndarray,
                  ipcs: np.ndarray, core_dyn: np.ndarray,
                  vth: np.ndarray, weights: np.ndarray,
                  scale: np.ndarray):
        """Evaluate one chunk of rows from their gathered table values.

        ``vth``/``weights``/``scale`` are the packed leakage state of
        :meth:`_CellLayout.pack` — shared (1-D) or one row per chunk row
        (2-D). Returns ``(states, fixed-point iterations)``.
        """
        n_rows = volts.shape[0]
        block_dyn = np.zeros((n_rows, self._n_blocks))
        block_dyn[:, self._core_of] = core_dyn
        l2_dyn_total = L2_DYNAMIC_FRACTION * core_dyn.sum(axis=1)
        block_dyn[:, self._n_cores:] = (l2_dyn_total[:, None]
                                        * self._l2_dyn_share[None, :])
        layout = self._layout
        vdd, dib = layout.supplies(volts)
        temps, powers, iters, row_errors = self._fixed_point(
            block_dyn, [vdd, dib, vth, weights, scale])
        # Failed rows hold uninitialised temperatures; park them at the
        # ambient so the shared final recompute stays well-defined (the
        # garbage results are replaced by the exception objects below,
        # and every surviving row is untouched — rows are independent).
        for b, err in enumerate(row_errors):
            if err is not None:
                temps[b] = self._thermal.ambient_k
        if np.any(temps <= 0):
            raise ValueError("temperature must be positive kelvin")
        n = self._n
        core_leak = np.empty((n_rows, n))
        core_leak[:, layout.threads] = layout.leakage(
            temps, vdd[:, :n], dib[:, :n], vth, weights, scale)

        out: List = []
        for b in range(n_rows):
            if row_errors[b] is not None:
                out.append(row_errors[b])
                continue
            l2_power = float(powers[b, self._n_cores:].sum())
            total = float(core_dyn[b].sum() + core_leak[b].sum()) + l2_power
            out.append(SystemState(
                voltages=volts[b].copy(),
                freqs=freqs[b].copy(),
                ipcs=ipcs[b].copy(),
                core_dynamic=core_dyn[b].copy(),
                core_leakage=core_leak[b].copy(),
                block_temps=temps[b].copy(),
                l2_power=l2_power,
                total_power=total,
            ))
        return out, int(iters.sum())

    def _fixed_point(self, block_dyn: np.ndarray, state: List[np.ndarray]):
        """Lockstep leakage-temperature fixed point with row masks.

        Every row starts from the ambient temperature and takes exactly
        the damped iteration sequence of
        :func:`repro.thermal.solve_with_leakage`; rows that converge
        are frozen (their temperatures stop updating) and compacted out
        of the working set, so survivors never feel their finished
        neighbours. A row that diverges is likewise compacted out, with
        the exception the serial path would have raised (same type,
        same message) recorded in its ``row_errors`` slot — its batch
        neighbours run to completion untouched. ``state`` is the
        argument list of :meth:`_CellLayout.leakage` after the
        temperatures; its 2-D entries are per-row and compacted with
        their rows, its 1-D entries shared by every row.
        """
        n_rows = block_dyn.shape[0]
        out_temps = np.empty((n_rows, self._n_blocks))
        out_powers = np.empty((n_rows, self._n_blocks))
        out_iters = np.zeros(n_rows, dtype=int)
        row_errors: List[Optional[Exception]] = [None] * n_rows
        layout = self._layout
        solve_many = self._thermal.solve_many

        orig = np.arange(n_rows)
        work_temps = np.full((n_rows, self._n_blocks),
                             self._thermal.ambient_k)
        work_dyn = block_dyn

        def compact(keep: np.ndarray) -> None:
            nonlocal orig, work_dyn, state
            orig = orig[keep]
            work_dyn = work_dyn[keep]
            state = [a[keep] if a.ndim == 2 else a for a in state]

        for iteration in range(1, MAX_ITERATIONS + 1):

            def fail(bad: np.ndarray, make_error) -> bool:
                """Record errors for ``bad`` rows, compact them away.

                Returns True when no active rows remain.
                """
                nonlocal work_temps
                for r in orig[bad]:
                    row_errors[r] = make_error()
                    out_iters[r] = iteration
                compact(~bad)
                work_temps = work_temps[~bad]
                return orig.size == 0

            # A non-positive iterate would raise inside the serial
            # leakage_factor call of this iteration.
            bad = (work_temps <= 0).any(axis=1)
            if bad.any() and fail(bad, lambda: ValueError(
                    "temperature must be positive kelvin")):
                return out_temps, out_powers, out_iters, row_errors
            leak = np.zeros((orig.size, self._n_blocks))
            leak[:, layout.seg_block] = layout.leakage(work_temps, *state)
            total = work_dyn + leak
            bad = ~np.isfinite(total).all(axis=1)
            if bad.any():
                kept_total = total[~bad]
                if fail(bad, lambda: ThermalRunawayError(
                        "leakage diverged before the temperature did")):
                    return out_temps, out_powers, out_iters, row_errors
                total = kept_total
            solved = solve_many(total)
            new_temps = DAMPING * solved + (1.0 - DAMPING) * work_temps
            bad = new_temps.max(axis=1) > RUNAWAY_TEMP_K
            if bad.any():
                kept_total = total[~bad]
                kept_new = new_temps[~bad]
                if fail(bad, lambda: ThermalRunawayError(
                        f"block temperature exceeded {RUNAWAY_TEMP_K} K: "
                        "the leakage-temperature loop gain is above unity "
                        "for these power/cooling parameters")):
                    return out_temps, out_powers, out_iters, row_errors
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
                    return out_temps, out_powers, out_iters, row_errors
                compact(~converged)
                work_temps = new_temps[~converged]
            else:
                work_temps = new_temps
        for r in orig:
            row_errors[r] = RuntimeError(
                "leakage-temperature iteration did not converge "
                f"within {MAX_ITERATIONS} iterations (thermal runaway?)")
            out_iters[r] = MAX_ITERATIONS
        return out_temps, out_powers, out_iters, row_errors


# The end-to-end benchmark's span table (benchmarks/e2e/spans.py) names
# the fleet entry point ``FleetEvalKernel.evaluate_levels_fleet`` and
# looks it up in the class ``__dict__``; that table is pinned with the
# benchmark, so the old class name stays as an alias.
FleetEvalKernel = EvalKernel
