"""LinOpt — per-core DVFS by linear programming (Section 4.3.1).

The optimisation: choose per-core voltages ``v_1..v_N`` maximising
average throughput ``TP = (1/N) * sum_i ipc_i * f_i(v_i)`` subject to
``sum_i p_i(v_i) <= Ptarget`` and ``p_i(v_i) <= Pcoremax``.

Linearisation, exactly as the paper does it:

* ``f_i(v)`` — linear fit of the core's manufacturer (V, f) table, so
  ``tp_i ~ a_i * v_i`` (plus a constant that does not affect argmax).
* ``ipc_i`` — measured once by the IPC sensor at the current operating
  point and assumed frequency-independent.
* ``p_i(v)`` — core power measured (power sensors) at three voltages
  (Vlow, Vmid, Vhigh), least-squares fitted to ``b_i * v + c_i``
  (Figure 1).

The continuous LP optimum is then quantised to each core's discrete
levels (floor by default), a sensor-guided correction loop fixes any
residual violation, and — because floor-quantisation strands budget —
an optional refill pass steps cores back up while the budget allows.

Because the true p(V) is convex, a single global-chord LP is biased
toward bang-bang solutions; LinOpt therefore runs *successive* LP
passes, re-profiling power locally (within a trust region of DVFS
levels) around the current operating point. Operationally this is the
same refinement the paper's 10 ms re-invocation loop performs across
invocations; the `ablation_slp` bench quantifies it.

The LP itself is solved through the pluggable backend seam
(:mod:`repro.linprog.backends`): the default warm-started bounded
engine carries the previous pass's optimal basis, so the successive
near-identical solves finish in a handful of pivots. A solve that
comes back non-optimal (budget below the all-minimum point, or a
numerically hopeless instance) falls back to clamping every core to
its window floor and is surfaced as ``lp_fallbacks`` in
``PmResult.stats`` — the all-zeros ``x`` of a failed solve is never
consumed as if it were a plan.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from ..chip import ChipProfile
from ..config import PowerEnvironment
from ..linprog import BoundedSimplexBackend, LpBackend, LpProblem
from ..power import IpcSensor, PowerSensor, core_reader, independent_rngs
from ..runtime.evaluation import Assignment, SystemState
from ..runtime.kernel import EvalKernel, StateMemo
from ..workloads import Workload
from .base import PmResult, PowerManager, meets_constraints

# A carried state memo holding more states than this is dropped at the
# next decision (never in the middle of one). A phase of ~5 decisions
# fills a few dozen.
_CARRY_MAX_STATES = 256


@dataclass(frozen=True)
class LinOptConfig:
    """Tunables of the LinOpt algorithm.

    Attributes:
        n_profile_voltages: Power-profiling points (3 per the paper;
            2 is the cheaper variant Table 3 mentions — ablation).
        rounding: "floor" (never exceed the LP voltage) or "nearest".
        refill: Step freed budget back in after quantisation.
        correction_limit: Max sensor-guided down-steps after rounding.
        n_iterations: Profile->solve passes per invocation
            (successive LP). The first pass uses the paper's global
            Vlow/Vmid/Vhigh fit; later passes re-profile *locally*
            around the current operating point, where the linear model
            of the convex p(V) curve is accurate. The online loop of
            Figure 2 performs the same refinement naturally across
            10 ms invocations.
        profile_span_levels: Half-width (in DVFS levels) of the local
            profiling window used from the second pass on.
        objective: "mips" maximises raw throughput; "weighted"
            maximises weighted throughput (per-thread throughput
            normalised to its reference throughput — the Figure 13
            optimisation goal).
    """

    n_profile_voltages: int = 3
    rounding: str = "floor"
    refill: bool = True
    correction_limit: int = 64
    n_iterations: int = 6
    profile_span_levels: int = 2
    objective: str = "mips"

    def __post_init__(self) -> None:
        if self.n_profile_voltages < 2:
            raise ValueError("need at least two profiling voltages")
        if self.rounding not in ("floor", "nearest"):
            raise ValueError("rounding must be 'floor' or 'nearest'")
        if self.correction_limit < 0:
            raise ValueError("correction_limit must be non-negative")
        if self.n_iterations < 1:
            raise ValueError("n_iterations must be positive")
        if self.profile_span_levels < 0:
            raise ValueError("profile_span_levels must be non-negative")
        if self.objective not in ("mips", "weighted"):
            raise ValueError("objective must be 'mips' or 'weighted'")


@dataclass(frozen=True)
class LinearPowerFit:
    """Per-thread linear fit p(v) = slope * v + intercept."""

    slope: np.ndarray
    intercept: np.ndarray


def fit_power_lines(
    kernel: EvalKernel,
    core_temps: np.ndarray,
    n_voltages: int,
    power_sensor: PowerSensor,
    center_levels: Optional[Sequence[int]] = None,
    span_levels: int = 2,
) -> LinearPowerFit:
    """Measure each thread-core pair's power at profile voltages, fit.

    ``kernel`` is the decision's one-die :class:`EvalKernel`: its
    (chip, workload, assignment, phase multipliers) are the ones
    profiled, and its cell layout computes the core leakage of every
    (thread, profiling voltage) pair in one call
    (:meth:`EvalKernel.core_leakage`, bitwise the scalar
    ``CoreLeakageModel.power``). ``core_temps`` is indexed by core id.

    With ``center_levels=None`` the profiling points span the whole
    voltage range (Vlow, [Vmid,] Vhigh — Figure 1, the paper's global
    fit). With centres given, points are taken within ``span_levels``
    DVFS levels of each thread's current level — the *local*
    linearisation used by the successive-LP passes, which is accurate
    where it matters because the true p(V) is convex.

    Temperatures are frozen at the current thermal state during the
    brief profiling runs (the runs are much shorter than thermal time
    constants).

    ``power_sensor`` may be a single sensor or a per-core bank
    (anything :func:`repro.power.core_reader` understands): with a
    bank, each measurement goes through the physical sensor of the
    core it profiles, so a faulty per-core sensor corrupts only its
    own thread's fit.

    A profiling window that degenerates to a single (V, p) point (a
    one-level V/f table) cannot pin a line; rather than feed
    ``np.polyfit`` a singular system, the fit falls back to zero slope
    through the measured point — the conservative "voltage does not
    buy this core anything" model.
    """
    chip = kernel.chips[0]
    workload = kernel.workloads[0]
    assignment = kernel.assignment
    ceff_mult = kernel.ceff_multipliers
    tables = [chip.cores[c].vf_table for c in assignment.core_of]
    level_sets = []
    for i, table in enumerate(tables):
        if center_levels is None:
            level_set = sorted({
                table.nearest_level_at_most(v)
                for v in np.linspace(table.vmin, table.vmax, n_voltages)})
        else:
            centre = int(center_levels[i])
            lo = max(centre - span_levels, 0)
            hi = min(centre + span_levels, table.n_levels - 1)
            if hi - lo < 1:  # widen degenerate windows
                lo = max(hi - 1, 0)
            # Spread n_voltages profiling points evenly across the
            # window (duplicates collapse when the window is narrower
            # than the requested point count), mirroring the global
            # branch above — the local fit must honour the configured
            # profiling budget too, not silently measure three points.
            level_set = sorted({
                lo + (k * (hi - lo)) // (n_voltages - 1)
                for k in range(n_voltages)})
        level_sets.append(level_set)
    # Row r of the leakage call puts every thread at its r-th profiling
    # level (its last one once it has fewer points).
    depth = max(len(level_set) for level_set in level_sets)
    leak = kernel.core_leakage(
        [[table.voltages[level_set[min(r, len(level_set) - 1)]]
          for table, level_set in zip(tables, level_sets)]
         for r in range(depth)],
        core_temps)
    n = assignment.n_threads
    slope = np.empty(n)
    intercept = np.empty(n)
    for i, (core_id, table, level_set) in enumerate(
            zip(assignment.core_of, tables, level_sets)):
        reader = core_reader(power_sensor, core_id)
        xs, ys = [], []
        for r, level in enumerate(level_set):
            v_lv = float(table.voltages[level])
            f_lv = float(table.freqs[level])
            true_p = (ceff_mult[i] * workload[i].dynamic_power_at(v_lv, f_lv)
                      + leak[r, i])
            xs.append(v_lv)
            ys.append(reader.read(true_p))
        if len(xs) >= 2:
            b, c = np.polyfit(np.array(xs), np.array(ys), 1)
        else:
            # Degenerate window (one-level table): a single point
            # cannot pin a line — assume flat power in V.
            b, c = 0.0, ys[0]
        slope[i] = b
        intercept[i] = c
    return LinearPowerFit(slope=slope, intercept=intercept)


class LinOpt(PowerManager):
    """Linear-programming power manager."""

    name = "LinOpt"

    #: The last decision's state memo (and, through it, its kernel).
    #: Never pickled (:meth:`__getstate__`), so a restored manager, or
    #: one unpickled from a snapshot older than the carry, starts cold.
    _carry: Optional[StateMemo] = None

    def __init__(self, config: Optional[LinOptConfig] = None,
                 power_sensor: Optional[PowerSensor] = None,
                 ipc_sensor: Optional[IpcSensor] = None,
                 lp_backend: Optional[LpBackend] = None) -> None:
        """``lp_backend`` is the LP engine instance (``None``: a
        :class:`BoundedSimplexBackend`). It persists across invocations
        so its warm basis carries through the 10 ms re-invocation
        loop."""
        self.config = config or LinOptConfig()
        self.lp_backend = (lp_backend if lp_backend is not None
                           else BoundedSimplexBackend())
        # Default sensors get *independent* child streams of one parent
        # seed: a shared default_rng(0) would correlate power and IPC
        # noise sample-for-sample once noise is configured.
        power_rng, ipc_rng = independent_rngs(2, seed=0)
        self.power_sensor = (power_sensor if power_sensor is not None
                             else PowerSensor(rng=power_rng))
        self.ipc_sensor = (ipc_sensor if ipc_sensor is not None
                           else IpcSensor(rng=ipc_rng))

    def __getstate__(self) -> dict:
        state = self.__dict__.copy()
        state.pop("_carry", None)
        return state

    def _decision_memo(self, chip: ChipProfile, workload: Workload,
                       assignment: Assignment, ipc_multipliers,
                       ceff_multipliers) -> StateMemo:
        """The memo, and kernel, a decision evaluates through.

        The last decision's memo and kernel are reused when this
        decision has the same chip and workload objects, the same
        ``core_of`` and bytewise the same phase multipliers: the
        re-invocations inside one application phase. Anything else,
        or a memo grown past ``_CARRY_MAX_STATES``, builds a new kernel
        under a fresh memo. A single entry is enough because the
        multipliers are continuous draws, so a phase never returns once
        it ends. Every decision gets fresh kernel stats, memo hits and
        walk chunk (:meth:`StateMemo.begin_decision`), so the counters
        describe it alone and its kernel calls do not depend on the
        decision before it.
        """
        memo = self._carry
        if memo is not None:
            kernel = memo.kernel
            ones = np.ones(assignment.n_threads)
            phase = [np.asarray(ones if mult is None else mult, dtype=float)
                     for mult in (ipc_multipliers, ceff_multipliers)]
            if (kernel.chips[0] is chip and kernel.workloads[0] is workload
                    and (tuple(kernel.assignment.core_of)
                         == tuple(assignment.core_of))
                    and all(new.shape == held.shape
                            and new.tobytes() == held.tobytes()
                            for new, held in zip(
                                phase, (kernel.ipc_multipliers,
                                        kernel.ceff_multipliers)))
                    and len(memo.states) <= _CARRY_MAX_STATES):
                memo.begin_decision()
                return memo
        return StateMemo(EvalKernel(chip, workload, assignment,
                                    ipc_multipliers=ipc_multipliers,
                                    ceff_multipliers=ceff_multipliers))

    def set_levels(
        self,
        chip: ChipProfile,
        workload: Workload,
        assignment: Assignment,
        env: PowerEnvironment,
        rng: Optional[np.random.Generator] = None,
        initial_levels: Optional[Sequence[int]] = None,
        initial_state: Optional[SystemState] = None,
        ipc_multipliers: Optional[Sequence[float]] = None,
        ceff_multipliers: Optional[Sequence[float]] = None,
    ) -> PmResult:
        p_target, p_core_max = self._budget(chip, assignment, env)
        levels = (list(initial_levels) if initial_levels is not None
                  else self._top_levels(chip, assignment))

        memo = self._decision_memo(chip, workload, assignment,
                                   ipc_multipliers, ceff_multipliers)

        if initial_state is None:
            current = memo.evaluate(levels)
            evaluations = 1
        else:
            memo.seed(levels, initial_state)
            current = initial_state
            evaluations = 0

        stats: dict = {"lp_pivots": 0.0, "lp_flops": 0.0,
                       "corrections": 0.0, "refills": 0.0,
                       "lp_optimal": 1.0, "lp_warm_solves": 0.0,
                       "lp_cold_solves": 0.0, "lp_fallbacks": 0.0}
        best: Optional[tuple] = None
        for iteration in range(self.config.n_iterations):
            levels, current, evals = self._one_pass(
                chip, workload, assignment, p_target, p_core_max,
                levels, current, stats, memo,
                local=iteration > 0)
            evaluations += evals
            feasible = meets_constraints(current, p_target, p_core_max)
            if self.config.objective == "weighted":
                metric = current.weighted_throughput(workload)
            else:
                metric = current.throughput_mips
            key = (feasible, metric)
            if best is None or key > (best[0], best[1]):
                best = (feasible, metric, list(levels), current)
        levels, current = best[2], best[3]
        if current is initial_state:
            # A memo row the caller already holds (its seeded warm
            # start, or a row it adopted from the last decision): hand
            # back a copy, so the caller never gets its own object back.
            current = dataclasses.replace(current)
        self._carry = memo
        return PmResult(levels=tuple(levels), state=current,
                        evaluations=evaluations,
                        stats={**stats, **memo.result_stats()})

    def _one_pass(self, chip, workload, assignment, p_target, p_core_max,
                  levels, current, stats, memo, local=False):
        """One profile -> LP -> discretise -> correct -> refill pass.

        Every evaluation goes through the decision's ``memo`` and
        counts towards ``evaluations`` whether or not it was a hit."""
        n = assignment.n_threads
        evaluations = 0

        # --- Gather profile data (Table 3) at the current state. ---
        core_temps = current.block_temps[: chip.n_cores]
        fit = fit_power_lines(memo.kernel, core_temps,
                              self.config.n_profile_voltages,
                              self.power_sensor,
                              center_levels=levels if local else None,
                              span_levels=self.config.profile_span_levels)
        ipcs = np.array([
            core_reader(self.ipc_sensor, assignment.core_of[i]).read(ipc)
            for i, ipc in enumerate(current.ipcs)])
        f_slope = np.empty(n)
        for i, core_id in enumerate(assignment.core_of):
            f_slope[i], _ = chip.cores[core_id].vf_table.linear_fit()
        weights = np.ones(n)
        if self.config.objective == "weighted":
            # Figure 13: the objective is per-thread throughput
            # normalised by its reference throughput.
            from ..workloads.applications import REF_FREQ_HZ
            weights = np.array([1.0 / workload[i].throughput_at(
                REF_FREQ_HZ) for i in range(n)]) * 1e9

        uncore_power = self.power_sensor.read(current.l2_power)

        # --- Build and solve the LP over x_i = v_i - Vlow. ---
        # Local passes constrain each voltage to its profiling window
        # (a trust region): the local linear fit is only valid nearby.
        if local:
            span = self.config.profile_span_levels
            vlow = np.empty(n)
            vhigh = np.empty(n)
            for i, core_id in enumerate(assignment.core_of):
                table = chip.cores[core_id].vf_table
                lo = max(levels[i] - span, 0)
                hi = min(levels[i] + span, table.n_levels - 1)
                vlow[i] = table.voltages[lo]
                vhigh[i] = table.voltages[hi]
        else:
            vlow = np.array([chip.cores[c].vf_table.vmin
                             for c in assignment.core_of])
            vhigh = np.array([chip.cores[c].vf_table.vmax
                              for c in assignment.core_of])
        objective = weights * ipcs * f_slope
        total_rhs = (p_target - uncore_power
                     - float(fit.intercept.sum())
                     - float(fit.slope @ vlow))
        a_rows = [fit.slope]
        b_vals = [total_rhs]
        for i in range(n):
            row = np.zeros(n)
            row[i] = fit.slope[i]
            a_rows.append(row)
            b_vals.append(p_core_max - fit.intercept[i]
                          - fit.slope[i] * vlow[i])
        lp = self.lp_backend.solve(LpProblem(
            c=objective,
            a_ub=np.vstack(a_rows),
            b_ub=np.array(b_vals),
            upper=vhigh - vlow,
        ))
        stats["lp_pivots"] += float(lp.iterations)
        stats["lp_flops"] += float(lp.flops)
        stats["lp_optimal"] = min(stats["lp_optimal"],
                                  float(lp.is_optimal))
        if lp.warm:
            stats["lp_warm_solves"] += 1.0
        else:
            stats["lp_cold_solves"] += 1.0

        if lp.is_optimal:
            v_star = vlow + lp.x
        else:
            # Non-optimal solves return x = zeros, which is NOT a plan:
            # clamp every core to its window floor explicitly and
            # surface the event (ResilientManager folds this into its
            # tier accounting).
            stats["lp_fallbacks"] += 1.0
            v_star = vlow.copy()

        # --- Quantise to each core's discrete levels. ---
        for i, core_id in enumerate(assignment.core_of):
            table = chip.cores[core_id].vf_table
            if self.config.rounding == "floor":
                levels[i] = table.nearest_level_at_most(float(v_star[i]))
            else:
                levels[i] = int(np.argmin(np.abs(table.voltages - v_star[i])))
        state = memo.evaluate(levels)
        evaluations += 1

        # Marginal efficiency ranking (measured IPC * frequency slope
        # per linearly-predicted watt) used by correction and refill.
        efficiency = objective / np.maximum(fit.slope, 1e-9)

        # --- Sensor-guided correction: enforce the hard constraints. ---
        corrections = 0
        while (not meets_constraints(state, p_target, p_core_max)
               and corrections < self.config.correction_limit
               and any(lv > 0 for lv in levels)):
            over = [i for i in range(n)
                    if state.core_power[i] > p_core_max and levels[i] > 0]
            if over:
                victim = over[0]
            else:
                # Step down the least-efficient thread still above floor.
                candidates = [i for i in range(n) if levels[i] > 0]
                victim = min(candidates, key=lambda i: efficiency[i])
            levels[victim] -= 1
            state = memo.evaluate(levels)
            evaluations += 1
            corrections += 1
        stats["corrections"] += float(corrections)

        # --- Refill: reclaim budget stranded by floor-quantisation. ---
        refills = 0
        if self.config.refill and meets_constraints(state, p_target,
                                                    p_core_max):
            # The efficiency ranking is fixed for the whole pass, so
            # every round walks the same order, one step-up per core
            # below its top level, and ends at its first feasible
            # step-up; the search then restarts from there.
            order = [int(i) for i in np.argsort(-efficiency)]
            n_top = [chip.cores[assignment.core_of[i]].vf_table.n_levels - 1
                     for i in range(n)]

            def feasible(trial_state: SystemState) -> bool:
                return meets_constraints(trial_state, p_target, p_core_max)

            # Each pass refills from its own LP point, so the last
            # pass's walk chunk says nothing about this one.
            memo.begin_search()
            while True:
                trials = [levels[:i] + [levels[i] + 1] + levels[i + 1:]
                          for i in order if levels[i] < n_top[i]]
                reached = memo.walk(trials, feasible)
                evaluations += len(reached)
                if not reached or not feasible(reached[-1]):
                    break
                levels, state = trials[len(reached) - 1], reached[-1]
                refills += 1
        stats["refills"] += float(refills)
        return levels, state, evaluations
