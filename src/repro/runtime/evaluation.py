"""System-level evaluation of an operating point.

Given a characterised chip, a workload, an assignment of threads to
cores and per-core DVFS settings, compute the steady-state power,
temperature and performance of the CMP. Idle cores are power-gated
(the paper assumes unused cores are powered off). Total chip power
includes core dynamic + leakage, and the shared L2's dynamic + leakage
(Section 6.6).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from ..chip import ChipProfile
from ..power.scaling import L2_DYNAMIC_FRACTION
from ..thermal import solve_with_leakage
from ..workloads import REF_FREQ_HZ, Workload


class KernelStats:
    """Evaluation counters: one kernel's, or the whole process's.

    Every :class:`repro.runtime.kernel.EvalKernel` records each batch
    it evaluates into its own ``stats`` (which policies surface through
    ``PmResult.stats``) and into :data:`EVALUATION_COUNTER`. The serial
    :func:`evaluate_levels` bumps ``EVALUATION_COUNTER.evaluations``
    only. All quantities are cumulative since the last :meth:`reset`.
    """

    __slots__ = ("evaluations", "batch_calls", "fixed_point_iterations",
                 "wall_s", "batch_size_hist")

    def __init__(self) -> None:
        self.reset()

    def reset(self) -> None:
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


#: Process-global counter: every serial evaluation and kernel row.
#: The online simulation's tests and perf benchmark read it to count
#: the fixed-point solves a run performs.
EVALUATION_COUNTER = KernelStats()


@dataclass(frozen=True)
class Assignment:
    """Thread-to-core mapping: ``core_of[i]`` is thread i's core."""

    core_of: Tuple[int, ...]

    def __post_init__(self) -> None:
        if not self.core_of:
            raise ValueError("assignment must map at least one thread")
        if len(set(self.core_of)) != len(self.core_of):
            raise ValueError("two threads mapped to the same core")
        if any(c < 0 for c in self.core_of):
            raise ValueError("negative core id")

    @property
    def n_threads(self) -> int:
        return len(self.core_of)


@dataclass(frozen=True)
class SystemState:
    """Steady-state outcome of evaluating one operating point.

    Per-thread arrays are ordered by thread index. Powers are watts,
    frequencies Hz, temperatures kelvin.
    """

    voltages: np.ndarray
    freqs: np.ndarray
    ipcs: np.ndarray
    core_dynamic: np.ndarray
    core_leakage: np.ndarray
    block_temps: np.ndarray
    l2_power: float
    total_power: float

    @property
    def core_power(self) -> np.ndarray:
        """Per-thread total core power (W)."""
        return self.core_dynamic + self.core_leakage

    @property
    def throughput_mips(self) -> float:
        """Aggregate throughput in MIPS (Section 6.6)."""
        return float(np.sum(self.ipcs * self.freqs) / 1e6)

    @property
    def mean_frequency(self) -> float:
        """Average frequency of the active cores (Hz)."""
        return float(np.mean(self.freqs))

    def weighted_throughput(self, workload: Workload) -> float:
        """Weighted throughput: sum of per-thread normalised MIPS.

        Each thread's throughput is normalised to its throughput at
        reference conditions (nominal frequency), giving equal weight
        to all applications (Snavely-Tullsen style, Section 6.6).
        """
        if workload.n_threads != self.ipcs.size:
            raise ValueError("workload does not match this state")
        ref = np.array([app.throughput_at(REF_FREQ_HZ) for app in workload])
        return float(np.sum(self.ipcs * self.freqs / ref))

    @property
    def ed2_relative(self) -> float:
        """Energy-delay-squared metric, up to a constant factor.

        For a fixed instruction count N: E = P * N / TP and
        D = N / TP, so ED^2 = P * N^3 / TP^3. The N^3 factor is common
        to all configurations of one workload, so P / TP^3 compares
        directly (the paper always plots ED^2 *relative* to a
        baseline).
        """
        tp = self.throughput_mips
        if tp <= 0:
            return float("inf")
        return self.total_power / tp ** 3

    def weighted_ed2_relative(self, workload: Workload) -> float:
        """ED^2 computed on weighted throughput (Figure 13b)."""
        tp = self.weighted_throughput(workload)
        if tp <= 0:
            return float("inf")
        return self.total_power / tp ** 3

    def scaled(self, work_fractions: Sequence[float]) -> "SystemState":
        """This state with per-thread useful work scaled down.

        Models stalls that burn power without committing instructions
        (V/f transitions, thread migrations): the returned state keeps
        every power and thermal quantity but scales each thread's
        committed IPC by ``work_fractions[i]`` in [0, 1], so all
        throughput-derived metrics reflect the lost work.
        """
        frac = np.asarray(work_fractions, dtype=float)
        if frac.shape != self.ipcs.shape:
            raise ValueError("need one work fraction per thread")
        if np.any(frac < 0) or np.any(frac > 1):
            raise ValueError("work fractions must lie in [0, 1]")
        return replace(self, ipcs=self.ipcs * frac)


def evaluate_explicit(
    chip: ChipProfile,
    workload: Workload,
    assignment: Assignment,
    voltages: Sequence[float],
    freqs: Sequence[float],
    ipc_multipliers: Optional[Sequence[float]] = None,
    ceff_multipliers: Optional[Sequence[float]] = None,
) -> SystemState:
    """Evaluate an operating point given explicit per-thread (V, f).

    Args:
        chip: Characterised die.
        workload: The threads (``workload[i]`` runs on
            ``assignment.core_of[i]``).
        assignment: Thread-to-core mapping.
        voltages: Per-thread core supply voltage (V).
        freqs: Per-thread core frequency (Hz).
        ipc_multipliers: Optional per-thread phase IPC multipliers.
        ceff_multipliers: Optional per-thread phase power multipliers.

    Returns:
        The converged :class:`SystemState`.
    """
    n = assignment.n_threads
    if workload.n_threads != n:
        raise ValueError("workload and assignment sizes differ")
    if max(assignment.core_of) >= chip.n_cores:
        raise ValueError("assignment references a core beyond the die")
    volts = np.asarray(voltages, dtype=float)
    fr = np.asarray(freqs, dtype=float)
    if volts.shape != (n,) or fr.shape != (n,):
        raise ValueError("need one voltage and frequency per thread")
    ipc_mult = (np.ones(n) if ipc_multipliers is None
                else np.asarray(ipc_multipliers, dtype=float))
    ceff_mult = (np.ones(n) if ceff_multipliers is None
                 else np.asarray(ceff_multipliers, dtype=float))

    ipcs = np.array([
        workload[i].ipc_at(fr[i]) * ipc_mult[i] for i in range(n)])
    core_dyn = np.array([
        workload[i].ceff * ceff_mult[i] * volts[i] ** 2 * fr[i]
        for i in range(n)])

    n_cores = chip.n_cores
    n_blocks = chip.thermal.n_blocks
    block_dyn = np.zeros(n_blocks)
    for i, core in enumerate(assignment.core_of):
        block_dyn[core] = core_dyn[i]
    l2_dyn_total = L2_DYNAMIC_FRACTION * float(core_dyn.sum())
    block_dyn[n_cores:] = l2_dyn_total * chip.floorplan.l2_area_share

    core_volt = np.zeros(n_cores)
    for i, core in enumerate(assignment.core_of):
        core_volt[core] = volts[i]
    active = np.zeros(n_cores, dtype=bool)
    for core in assignment.core_of:
        active[core] = True

    def leakage_fn(temps: np.ndarray) -> np.ndarray:
        leak = np.zeros(n_blocks)
        for core in range(n_cores):
            if active[core]:
                leak[core] = chip.cores[core].leakage.power(
                    core_volt[core], temps[core])
        leak[n_cores:] = chip.l2_leakage.power_per_block(temps[n_cores:])
        return leak

    solution = solve_with_leakage(chip.thermal, block_dyn, leakage_fn)
    temps = solution.block_temps_k
    core_leak = np.array([
        chip.cores[core].leakage.power(volts[i], temps[core])
        for i, core in enumerate(assignment.core_of)])
    l2_power = float(solution.block_power_w[n_cores:].sum())
    total = float(core_dyn.sum() + core_leak.sum()) + l2_power
    return SystemState(
        voltages=volts,
        freqs=fr,
        ipcs=ipcs,
        core_dynamic=core_dyn,
        core_leakage=core_leak,
        block_temps=temps,
        l2_power=l2_power,
        total_power=total,
    )


def evaluate_levels(
    chip: ChipProfile,
    workload: Workload,
    assignment: Assignment,
    levels: Sequence[int],
    ipc_multipliers: Optional[Sequence[float]] = None,
    ceff_multipliers: Optional[Sequence[float]] = None,
) -> SystemState:
    """Evaluate with per-thread DVFS levels into each core's V/f table."""
    EVALUATION_COUNTER.evaluations += 1
    n = assignment.n_threads
    levels = list(levels)
    if len(levels) != n:
        raise ValueError("need one level per thread")
    if max(assignment.core_of) >= chip.n_cores:
        raise ValueError("assignment references a core beyond the die")
    volts = np.empty(n)
    freqs = np.empty(n)
    for i, core in enumerate(assignment.core_of):
        table = chip.cores[core].vf_table
        if not 0 <= levels[i] < table.n_levels:
            raise ValueError(f"level {levels[i]} out of range for core {core}")
        volts[i] = table.voltages[levels[i]]
        freqs[i] = table.freqs[levels[i]]
    return evaluate_explicit(chip, workload, assignment, volts, freqs,
                             ipc_multipliers, ceff_multipliers)


def evaluate_max_levels(
    chip: ChipProfile,
    workload: Workload,
    assignment: Assignment,
) -> SystemState:
    """NUniFreq operating point: every core at its own (Vmax, fmax)."""
    if max(assignment.core_of) >= chip.n_cores:
        raise ValueError("assignment references a core beyond the die")
    top = [chip.cores[c].vf_table.n_levels - 1 for c in assignment.core_of]
    return evaluate_levels(chip, workload, assignment, top)


def evaluate_uniform_frequency(
    chip: ChipProfile,
    workload: Workload,
    assignment: Assignment,
    freq_hz: Optional[float] = None,
) -> SystemState:
    """UniFreq operating point: all cores at the chip frequency.

    The chip frequency defaults to the slowest core's fmax (all cores
    run at the frequency of the slowest one, Section 4.1); all cores
    are at maximum voltage since there is no DVFS.
    """
    f_chip = chip.min_fmax if freq_hz is None else float(freq_hz)
    if f_chip <= 0:
        raise ValueError("chip frequency must be positive")
    n = assignment.n_threads
    volts = np.full(n, chip.tech.vdd_max)
    freqs = np.full(n, f_chip)
    return evaluate_explicit(chip, workload, assignment, volts, freqs)
