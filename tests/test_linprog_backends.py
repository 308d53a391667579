"""Cross-checks of the LP engines behind :class:`repro.linprog.LpBackend`.

Three engines solve LinOpt's LPs: the reference tableau solver, the
warm-started bounded-variable engine, and scipy's HiGHS.
This suite holds them to each other — status agreement and objective
agreement on randomized LinOpt-shaped instances, bounded-variable
pivoting vs appended-rows equivalence, and the determinism anchor:
warm-started re-solves must return **bitwise identical** ``x`` to cold
solves of the same problems, both on synthetic drifting sequences and
through full LinOpt invocations on the characterised chip.
"""

import numpy as np
import pytest

from repro.config import LOW_POWER
from repro.linprog import (
    STATUS_INFEASIBLE,
    STATUS_OPTIMAL,
    BoundedSimplexBackend,
    HighsBackend,
    LpProblem,
    ReferenceSimplexBackend,
    WarmState,
    solve_bounded,
    solve_lp_maximize,
)
from repro.pm import LinOpt, LinOptConfig
from repro.runtime import Assignment
from repro.sched import VarFAppIPC
from repro.workloads import make_workload


def _random_instance(seed):
    """A random box-bounded instance (may be infeasible)."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 10))
    m = int(rng.integers(1, 12))
    c = rng.normal(size=n)
    a = rng.normal(size=(m, n))
    b = rng.normal(loc=1.0, size=m)
    ub = rng.uniform(0.5, 3.0, size=n)
    return c, a, b, ub


def _linopt_instance(seed, n=20):
    """The exact row structure LinOpt emits (budget + per-core + box)."""
    rng = np.random.default_rng(seed)
    obj = rng.uniform(5.0, 20.0, n)
    slopes = rng.uniform(2.0, 8.0, n)
    budget = 0.6 * slopes.sum() * 0.4
    rows = [slopes]
    rhs = [budget]
    for i in range(n):
        row = np.zeros(n)
        row[i] = slopes[i]
        rows.append(row)
        rhs.append(0.35 * slopes[i])
    return obj, np.vstack(rows), np.array(rhs), np.full(n, 0.4)


def _drifting_sequence(seed, n=8, n_intervals=30):
    """Successive LinOpt-shaped problems with small input drift."""
    rng = np.random.default_rng(seed)
    problems = []
    obj, a, b, ub = _linopt_instance(seed, n)
    for _ in range(n_intervals):
        problems.append((obj, a, b, ub))
        obj = obj * (1.0 + 0.02 * rng.standard_normal(n))
        scale = 1.0 + 0.01 * rng.standard_normal(b.size)
        b = b * scale
    return problems


class TestBoundedVsReference:
    """The bounded engine must agree with the appended-rows reference."""

    @pytest.mark.parametrize("seed", range(60))
    def test_random_instances_agree(self, seed):
        c, a, b, ub = _random_instance(seed)
        ref = solve_lp_maximize(c, a, b, upper=ub)
        res, _ = solve_bounded(c, a, b, upper=ub)
        assert res.status == ref.status, f"seed {seed}"
        if ref.is_optimal:
            assert res.objective == pytest.approx(
                ref.objective, rel=1e-7, abs=1e-9), f"seed {seed}"
            assert np.all(res.x >= -1e-8)
            assert np.all(res.x <= ub + 1e-8)
            assert np.all(a @ res.x <= b + 1e-7)

    @pytest.mark.parametrize("seed", range(5))
    def test_linopt_shaped_agree(self, seed):
        c, a, b, ub = _linopt_instance(seed)
        ref = solve_lp_maximize(c, a, b, upper=ub)
        res, _ = solve_bounded(c, a, b, upper=ub)
        assert res.is_optimal and ref.is_optimal
        assert res.objective == pytest.approx(ref.objective, rel=1e-9)

    def test_no_upper_bounds(self):
        # max x+y s.t. x+y <= 2: bounds omitted entirely.
        res, _ = solve_bounded(np.array([1.0, 1.0]),
                               np.array([[1.0, 1.0]]),
                               np.array([2.0]))
        assert res.is_optimal
        assert res.objective == pytest.approx(2.0)

    def test_smaller_tableau(self):
        """Native bounds shrink the tableau: fewer flops per pivot."""
        c, a, b, ub = _linopt_instance(0)
        ref = solve_lp_maximize(c, a, b, upper=ub)
        res, _ = solve_bounded(c, a, b, upper=ub)
        assert res.flops < ref.flops


class TestAgainstHighs:
    """Both from-scratch engines vs the industrial solver."""

    @pytest.mark.parametrize("seed", range(40))
    def test_random_instances(self, seed):
        c, a, b, ub = _random_instance(seed)
        hi = HighsBackend().solve(LpProblem(c, a, b, upper=ub))
        res, _ = solve_bounded(c, a, b, upper=ub)
        if hi.is_optimal:
            assert res.is_optimal, f"seed {seed}"
            assert res.objective == pytest.approx(
                hi.objective, rel=1e-7, abs=1e-7), f"seed {seed}"
        elif hi.status == STATUS_INFEASIBLE:
            assert res.status == STATUS_INFEASIBLE, f"seed {seed}"

    def test_highs_reports_backend_and_zero_flops(self):
        c, a, b, ub = _linopt_instance(1, n=6)
        hi = HighsBackend().solve(LpProblem(c, a, b, upper=ub))
        assert hi.backend == "highs"
        assert hi.flops == 0
        assert hi.iterations >= 0


class TestBoundedEdgeCases:
    """Degenerate, redundant-row and negative-RHS regressions."""

    def test_negative_rhs_phase1(self):
        res, warm = solve_bounded(
            np.array([-1.0, -2.0]),
            np.array([[-1.0, -1.0]]),
            np.array([-2.0]),
            upper=np.array([5.0, 5.0]))
        assert res.is_optimal
        assert res.objective == pytest.approx(-2.0)
        assert warm is not None

    def test_infeasible(self):
        res, warm = solve_bounded(
            np.array([1.0]),
            np.array([[-1.0], [1.0]]),
            np.array([-2.0, 1.0]))
        assert res.status == STATUS_INFEASIBLE
        assert warm is None
        np.testing.assert_array_equal(res.x, np.zeros(1))

    def test_unbounded(self):
        res, warm = solve_bounded(
            np.array([1.0]),
            np.array([[-1.0]]),
            np.array([0.0]))
        assert res.status == "unbounded"
        assert warm is None

    def test_upper_bound_caps_unbounded_ray(self):
        # Same ray as above, but the box bound caps it.
        res, _ = solve_bounded(
            np.array([1.0]),
            np.array([[-1.0]]),
            np.array([0.0]),
            upper=np.array([2.0]))
        assert res.is_optimal
        assert res.objective == pytest.approx(2.0)

    def test_negative_upper_bound_infeasible(self):
        res, warm = solve_bounded(
            np.array([1.0]),
            np.array([[1.0]]),
            np.array([1.0]),
            upper=np.array([-0.5]))
        assert res.status == STATUS_INFEASIBLE
        assert warm is None

    def test_degenerate_does_not_cycle(self):
        res, _ = solve_bounded(
            np.array([1.0, 1.0, 1.0]),
            np.vstack([np.eye(3), np.ones((1, 3)), np.ones((1, 3))]),
            np.array([1.0, 1.0, 1.0, 2.0, 2.0]))
        assert res.is_optimal
        assert res.objective == pytest.approx(2.0)

    def test_duplicated_rows_solve_and_warm_replays(self):
        # Duplicated >= rows: the slack identity block keeps the
        # system full row rank, so phase 1 drives the artificials out
        # through slack pivots rather than dropping rows — and any
        # warm state handed out must replay bitwise.
        args = (np.array([-1.0, -2.0]),
                np.array([[-1.0, -1.0], [-1.0, -1.0]]),
                np.array([-2.0, -2.0]))
        res, warm = solve_bounded(*args, upper=np.array([5.0, 5.0]))
        assert res.is_optimal
        assert res.objective == pytest.approx(-2.0)
        assert warm is not None
        replay, _ = solve_bounded(*args, upper=np.array([5.0, 5.0]),
                                  warm=warm)
        assert replay.warm
        np.testing.assert_array_equal(replay.x, res.x)

    def test_scaled_dependent_rows(self):
        # x + y >= 2, 2x + 2y >= 4, 3x + 3y >= 6: one facet thrice.
        res, _ = solve_bounded(
            np.array([-1.0, -1.0]),
            np.array([[-1.0, -1.0], [-2.0, -2.0], [-3.0, -3.0]]),
            np.array([-2.0, -4.0, -6.0]),
            upper=np.array([4.0, 4.0]))
        assert res.is_optimal
        assert res.objective == pytest.approx(-2.0)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            solve_bounded(np.array([1.0]),
                          np.array([[1.0, 2.0]]),
                          np.array([1.0]))

    def test_bad_upper_shape(self):
        with pytest.raises(ValueError):
            solve_bounded(np.array([1.0, 1.0]),
                          np.array([[1.0, 1.0]]),
                          np.array([1.0]),
                          upper=np.array([1.0]))


class TestWarmStart:
    """Warm-start behaviour and the bitwise determinism anchor."""

    @pytest.mark.parametrize("seed", range(6))
    def test_warm_bitwise_equals_cold_on_drifting_sequence(self, seed):
        warm = None
        hits = 0
        for c, a, b, ub in _drifting_sequence(seed):
            res_w, warm = solve_bounded(c, a, b, upper=ub, warm=warm)
            res_c, _ = solve_bounded(c, a, b, upper=ub)
            assert res_w.is_optimal and res_c.is_optimal
            np.testing.assert_array_equal(res_w.x, res_c.x)
            assert res_w.objective == res_c.objective
            hits += int(res_w.warm)
        assert hits >= 25  # drift is small: nearly every solve warm

    def test_warm_solve_is_cheaper(self):
        c, a, b, ub = _linopt_instance(3)
        cold, warm = solve_bounded(c, a, b, upper=ub)
        re_res, _ = solve_bounded(c, a, b, upper=ub, warm=warm)
        assert re_res.warm
        assert re_res.iterations < cold.iterations

    def test_shape_change_discards_state(self):
        c, a, b, ub = _linopt_instance(4, n=6)
        _, warm = solve_bounded(c, a, b, upper=ub)
        c2, a2, b2, ub2 = _linopt_instance(4, n=7)
        res, _ = solve_bounded(c2, a2, b2, upper=ub2, warm=warm)
        assert res.is_optimal
        assert not res.warm

    def test_infeasible_point_discards_state(self):
        c, a, b, ub = _linopt_instance(5, n=6)
        _, warm = solve_bounded(c, a, b, upper=ub)
        # Slash the budget so the old vertex is far outside the new
        # feasible region: the stale basis must be rejected, and the
        # cold fallback must still match a from-scratch cold solve.
        b2 = b.copy()
        b2[0] *= 0.05
        res_fb, _ = solve_bounded(c, a, b2, upper=ub, warm=warm)
        res_cold, _ = solve_bounded(c, a, b2, upper=ub)
        assert res_fb.is_optimal
        np.testing.assert_array_equal(res_fb.x, res_cold.x)

    def test_garbage_state_falls_back_cold(self):
        c, a, b, ub = _linopt_instance(6, n=5)
        m = b.size
        bogus = WarmState(basis=np.zeros(m, dtype=int),
                          at_upper=np.zeros(5 + m, dtype=bool),
                          n=5, m=m)
        res, _ = solve_bounded(c, a, b, upper=ub, warm=bogus)
        ref, _ = solve_bounded(c, a, b, upper=ub)
        assert res.is_optimal
        np.testing.assert_array_equal(res.x, ref.x)


class TestBackendSeam:
    def test_default_is_bounded(self):
        backend = LinOpt().lp_backend
        assert isinstance(backend, BoundedSimplexBackend)
        assert backend.name == "bounded"

    def test_instance_passthrough(self):
        backend = ReferenceSimplexBackend()
        assert LinOpt(lp_backend=backend).lp_backend is backend

    def test_backend_carries_warm_state_and_reset(self):
        c, a, b, ub = _linopt_instance(7, n=6)
        backend = BoundedSimplexBackend()
        problem = LpProblem(c, a, b, upper=ub)
        first = backend.solve(problem)
        second = backend.solve(problem)
        assert not first.warm and second.warm
        backend._warm = None  # drop the carried basis
        third = backend.solve(problem)
        assert not third.warm
        np.testing.assert_array_equal(first.x, second.x)
        np.testing.assert_array_equal(first.x, third.x)

    def test_reference_backend_labels_results(self):
        c, a, b, ub = _linopt_instance(8, n=4)
        res = ReferenceSimplexBackend().solve(LpProblem(c, a, b,
                                                        upper=ub))
        assert res.backend == "reference"
        assert not res.warm


class ColdBoundedBackend(BoundedSimplexBackend):
    """The bounded engine with its warm basis dropped before every
    solve: each solve is cold."""

    def solve(self, problem):
        self._warm = None
        return super().solve(problem)


class TestLinOptCampaignBitwise:
    """The acceptance anchor: warm-started LinOpt == cold LinOpt,
    bitwise, through full invocations on the characterised chip (the
    fig11-15 campaigns all drive this code path)."""

    N_INVOCATIONS = 4

    def _run(self, chip, engine, n_threads, seed, n_iterations):
        rng = np.random.default_rng(seed)
        wl = make_workload(n_threads, rng)
        asg = VarFAppIPC().assign_with_profiling(chip, wl, rng)
        mgr = LinOpt(LinOptConfig(n_iterations=n_iterations),
                     lp_backend=engine())
        results = []
        # Successive invocations, as the 10 ms loop issues them: the
        # backend's warm basis persists across set_levels calls.
        for _ in range(self.N_INVOCATIONS):
            results.append(mgr.set_levels(chip, wl, asg, LOW_POWER))
        return results

    @pytest.mark.parametrize("n_threads,seed", [(4, 11), (8, 12)])
    def test_reinvocation_loop_warm_equals_cold(self, chip, n_threads,
                                                seed):
        """n_iterations=1 is the paper's 10 ms loop (and the Fig. 15
        configuration): fixed global bounds, drifting measurements —
        every re-invocation after the first must go warm, and the
        decisions must match the cold run bitwise."""
        warm_runs = self._run(chip, BoundedSimplexBackend, n_threads,
                              seed, 1)
        cold_runs = self._run(chip, ColdBoundedBackend, n_threads,
                              seed, 1)
        used_warm = 0.0
        for rw, rc in zip(warm_runs, cold_runs):
            assert rw.levels == rc.levels
            assert rw.state.total_power == rc.state.total_power
            np.testing.assert_array_equal(rw.state.freqs,
                                          rc.state.freqs)
            assert rw.stats["lp_fallbacks"] == rc.stats["lp_fallbacks"]
            used_warm += rw.stats["lp_warm_solves"]
            assert rc.stats["lp_warm_solves"] == 0.0
        assert used_warm == self.N_INVOCATIONS - 1

    def test_successive_lp_passes_warm_equals_cold(self, chip):
        """With local trust-region passes (n_iterations > 1) the LP
        frame shifts between passes, so warm reuse is opportunistic —
        stale bases are discarded — but the decisions must still be
        bitwise independent of whether the basis is carried."""
        warm_runs = self._run(chip, BoundedSimplexBackend, 8, 12, 4)
        cold_runs = self._run(chip, ColdBoundedBackend, 8, 12, 4)
        for rw, rc in zip(warm_runs, cold_runs):
            assert rw.levels == rc.levels
            assert rw.state.total_power == rc.state.total_power
            assert rw.stats["lp_fallbacks"] == rc.stats["lp_fallbacks"]

    def test_stats_surface_solver_mix(self, chip, rng):
        wl = make_workload(4, rng)
        asg = Assignment((0, 1, 2, 3))
        res = LinOpt(LinOptConfig(n_iterations=3)).set_levels(
            chip, wl, asg, LOW_POWER)
        total = (res.stats["lp_warm_solves"]
                 + res.stats["lp_cold_solves"])
        assert total == 3.0
        assert res.stats["lp_fallbacks"] >= 0.0
