"""Tests for the from-scratch Simplex LP solver."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linprog

from repro.linprog import (
    STATUS_INFEASIBLE,
    STATUS_UNBOUNDED,
    solve_lp_maximize,
)


class TestKnownProblems:
    def test_textbook_2d(self):
        # max 3x + 2y s.t. x + y <= 4, x + 3y <= 6
        res = solve_lp_maximize(
            c=np.array([3.0, 2.0]),
            a_ub=np.array([[1.0, 1.0], [1.0, 3.0]]),
            b_ub=np.array([4.0, 6.0]))
        assert res.is_optimal
        assert res.objective == pytest.approx(12.0)
        np.testing.assert_allclose(res.x, [4.0, 0.0], atol=1e-9)

    def test_interior_budget_split(self):
        # max x + y s.t. 2x + y <= 4, x + 2y <= 4 -> x = y = 4/3
        res = solve_lp_maximize(
            c=np.array([1.0, 1.0]),
            a_ub=np.array([[2.0, 1.0], [1.0, 2.0]]),
            b_ub=np.array([4.0, 4.0]))
        assert res.objective == pytest.approx(8.0 / 3.0)

    def test_upper_bounds(self):
        res = solve_lp_maximize(
            c=np.array([1.0, 1.0]),
            a_ub=np.array([[1.0, 1.0]]),
            b_ub=np.array([10.0]),
            upper=np.array([2.0, 3.0]))
        assert res.objective == pytest.approx(5.0)

    def test_unbounded(self):
        res = solve_lp_maximize(
            c=np.array([1.0]),
            a_ub=np.array([[-1.0]]),
            b_ub=np.array([0.0]))
        assert res.status == STATUS_UNBOUNDED

    def test_infeasible(self):
        # x >= 2 (as -x <= -2) and x <= 1
        res = solve_lp_maximize(
            c=np.array([1.0]),
            a_ub=np.array([[-1.0], [1.0]]),
            b_ub=np.array([-2.0, 1.0]))
        assert res.status == STATUS_INFEASIBLE

    def test_negative_rhs_phase1(self):
        # Requires phase 1: x + y >= 2 written as -x - y <= -2.
        res = solve_lp_maximize(
            c=np.array([-1.0, -2.0]),
            a_ub=np.array([[-1.0, -1.0]]),
            b_ub=np.array([-2.0]),
            upper=np.array([5.0, 5.0]))
        assert res.is_optimal
        assert res.objective == pytest.approx(-2.0)  # x=2, y=0

    def test_degenerate_does_not_cycle(self):
        # Classic degeneracy: many constraints active at the optimum.
        res = solve_lp_maximize(
            c=np.array([1.0, 1.0, 1.0]),
            a_ub=np.vstack([np.eye(3), np.ones((1, 3)),
                            np.ones((1, 3))]),
            b_ub=np.array([1.0, 1.0, 1.0, 2.0, 2.0]))
        assert res.is_optimal
        assert res.objective == pytest.approx(2.0)

    def test_zero_objective(self):
        res = solve_lp_maximize(
            c=np.zeros(2),
            a_ub=np.array([[1.0, 1.0]]),
            b_ub=np.array([1.0]))
        assert res.is_optimal
        assert res.objective == pytest.approx(0.0)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            solve_lp_maximize(np.array([1.0]),
                              np.array([[1.0, 2.0]]),
                              np.array([1.0]))

    def test_flop_accounting(self):
        res = solve_lp_maximize(
            c=np.array([3.0, 2.0]),
            a_ub=np.array([[1.0, 1.0], [1.0, 3.0]]),
            b_ub=np.array([4.0, 6.0]))
        assert res.flops > 0
        assert res.iterations > 0

    def test_linopt_shaped_problem(self):
        """The exact LP structure LinOpt emits: budget row + per-core
        rows + box bounds."""
        rng = np.random.default_rng(0)
        n = 20
        a = rng.uniform(5.0, 20.0, n)      # objective (ipc * f-slope)
        b = rng.uniform(2.0, 8.0, n)       # power slopes
        budget = 0.6 * b.sum() * 0.4       # forces a real trade-off
        rows = [b]
        rhs = [budget]
        for i in range(n):
            row = np.zeros(n)
            row[i] = b[i]
            rows.append(row)
            rhs.append(0.35 * b[i])
        res = solve_lp_maximize(a, np.vstack(rows), np.array(rhs),
                                upper=np.full(n, 0.4))
        ref = linprog(-a, A_ub=np.vstack(rows), b_ub=np.array(rhs),
                      bounds=[(0, 0.4)] * n, method="highs")
        assert res.is_optimal and ref.status == 0
        assert res.objective == pytest.approx(-ref.fun, rel=1e-8)


class TestPhase1ArtificialExclusion:
    """Departed artificial variables must never re-enter the basis.

    Phase 1 scans only structural + slack columns for entering
    candidates; admitting a departed artificial wastes pivots on
    degenerate churn and inflates the pivot/flop counts Fig. 15
    converts into LP time.
    """

    def _solve_recording_pivot_cols(self, monkeypatch, c, a, b, upper):
        from repro.linprog import simplex as mod

        cols = []
        original = mod._Tableau.pivot

        def recording(self, row, col):
            cols.append(col)
            original(self, row, col)

        monkeypatch.setattr(mod._Tableau, "pivot", recording)
        res = solve_lp_maximize(c, a, b, upper=upper)
        return res, cols

    def test_no_pivot_on_artificial_columns(self, monkeypatch):
        # Negative RHS rows -> phase 1 with artificials. n=2 and the
        # upper bounds append 2 rows, so m=3, n_slack=3: any pivot
        # column >= n + n_slack = 5 is an artificial re-entering.
        res, cols = self._solve_recording_pivot_cols(
            monkeypatch,
            np.array([-1.0, -2.0]),
            np.array([[-1.0, -1.0]]),
            np.array([-2.0]),
            np.array([5.0, 5.0]))
        assert res.is_optimal
        assert cols  # phase 1 actually ran
        assert all(col < 2 + 3 for col in cols)

    def test_no_artificial_reentry_on_dependent_rows(self, monkeypatch):
        # Dependent >= rows give phase 1 several artificials and
        # degenerate pivots — the historic churn scenario.
        res, cols = self._solve_recording_pivot_cols(
            monkeypatch,
            np.array([1.0, 2.0, 0.0]),
            np.array([[-1.0, -1.0, -1.0],
                      [-2.0, -2.0, -2.0],
                      [1.0, 1.0, 1.0]]),
            np.array([-3.0, -6.0, 3.0]),
            np.array([10.0, 10.0, 10.0]))
        assert res.is_optimal
        n, n_slack = 3, 3 + 3  # 3 rows + 3 appended bound rows
        assert all(col < n + n_slack for col in cols)


class TestFlopAccounting:
    """The unified work-accounting rules (Fig. 15's time model)."""

    def test_exact_count_single_pivot(self):
        # max x s.t. x <= 1 (n=1, m=1, no phase 1). One pivot:
        #   scan (n_cols=2) + ratio (3*m=3) + pivot (2*table.size=12)
        # then the terminating scan (2) -> 19 flops, 1 iteration.
        res = solve_lp_maximize(np.array([1.0]),
                                np.array([[1.0]]),
                                np.array([1.0]))
        assert res.is_optimal
        assert res.iterations == 1
        assert res.flops == 19

    def test_dantzig_and_bland_charge_identically(self, monkeypatch):
        """On a problem with a single improving column per iteration,
        both pricing branches walk the same pivot sequence — so with
        the unified accounting their flop counts must be *equal*."""
        from repro.linprog import simplex as mod

        c = np.array([1.0, 0.0, 0.0])
        a = np.array([[1.0, 1.0, 1.0], [1.0, 2.0, 0.0]])
        b = np.array([2.0, 3.0])
        dantzig = solve_lp_maximize(c, a, b)
        monkeypatch.setattr(mod, "BLAND_THRESHOLD", -1)
        bland = solve_lp_maximize(c, a, b)
        assert dantzig.is_optimal and bland.is_optimal
        assert bland.objective == pytest.approx(dantzig.objective)
        assert bland.iterations == dantzig.iterations
        assert bland.flops == dantzig.flops


class TestRedundantConstraints:
    """Linearly dependent rows must not corrupt the phase-2 tableau.

    When phase 1 cannot pivot an artificial variable out of the basis
    (its row is a redundant combination of other constraints), the row
    is dropped; leaving the artificial basic while zeroing its column
    breaks the basis invariant.
    """

    def test_duplicated_ge_rows(self):
        # x + y >= 2 stated twice, maximise -x - 2y.
        res = solve_lp_maximize(
            c=np.array([-1.0, -2.0]),
            a_ub=np.array([[-1.0, -1.0], [-1.0, -1.0]]),
            b_ub=np.array([-2.0, -2.0]),
            upper=np.array([5.0, 5.0]))
        assert res.is_optimal
        assert res.objective == pytest.approx(-2.0)  # x=2, y=0

    def test_scaled_dependent_ge_rows(self):
        # x + y >= 2 and 2x + 2y >= 4 and 3x + 3y >= 6: one facet.
        res = solve_lp_maximize(
            c=np.array([-1.0, -1.0]),
            a_ub=np.array([[-1.0, -1.0], [-2.0, -2.0], [-3.0, -3.0]]),
            b_ub=np.array([-2.0, -4.0, -6.0]),
            upper=np.array([4.0, 4.0]))
        assert res.is_optimal
        assert res.objective == pytest.approx(-2.0)

    def test_dependent_rows_mixed_with_active_constraints(self):
        # max 3x+2y s.t. x+3y <= 6 and the dependent pair x+y >= 2.
        res = solve_lp_maximize(
            c=np.array([3.0, 2.0]),
            a_ub=np.array([[-1.0, -1.0], [-2.0, -2.0], [1.0, 3.0]]),
            b_ub=np.array([-2.0, -4.0, 6.0]),
            upper=np.array([6.0, 6.0]))
        assert res.is_optimal
        assert res.objective == pytest.approx(18.0)  # x=6, y=0

    def test_dependent_equality_pair(self):
        # x + y + z == 3 (as a >=/<= pair) plus a scaled copy of the
        # >= half; maximise x + 2y.
        res = solve_lp_maximize(
            c=np.array([1.0, 2.0, 0.0]),
            a_ub=np.array([[-1.0, -1.0, -1.0],
                           [-2.0, -2.0, -2.0],
                           [1.0, 1.0, 1.0]]),
            b_ub=np.array([-3.0, -6.0, 3.0]),
            upper=np.array([10.0, 10.0, 10.0]))
        assert res.is_optimal
        assert res.objective == pytest.approx(6.0)  # y=3

    def test_rank_deficient_instances_match_scipy(self):
        """Structured fuzz: >= blocks built from a rank-1/2 basis."""
        for seed in range(40):
            rng = np.random.default_rng([seed, 7])
            n = int(rng.integers(2, 6))
            rank = int(rng.integers(1, 3))
            base = rng.uniform(-1, 1, size=(rank, n))
            mult = rng.uniform(0.5, 3.0,
                               size=(int(rng.integers(2, 5)), rank))
            ge = mult @ base
            x0 = rng.uniform(0.2, 1.5, n)
            a = -ge
            b = -(ge @ x0)
            c = rng.normal(size=n)
            ub = rng.uniform(1.0, 3.0, n)
            res = solve_lp_maximize(c, a, b, upper=ub)
            ref = linprog(-c, A_ub=a, b_ub=b,
                          bounds=[(0, u) for u in ub], method="highs")
            if ref.status == 0:
                assert res.is_optimal, f"seed {seed}"
                assert res.objective == pytest.approx(
                    -ref.fun, rel=1e-6, abs=1e-7), f"seed {seed}"
                assert np.all(a @ res.x <= b + 1e-6), f"seed {seed}"
            elif ref.status == 2:
                assert res.status == STATUS_INFEASIBLE, f"seed {seed}"


class TestFuzzAgainstScipy:
    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=60, deadline=None)
    def test_random_instances_match_highs(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 10))
        m = int(rng.integers(1, 12))
        c = rng.normal(size=n)
        a = rng.normal(size=(m, n))
        b = rng.normal(loc=1.0, size=m)
        ub = rng.uniform(0.5, 3.0, size=n)
        res = solve_lp_maximize(c, a, b, upper=ub)
        ref = linprog(-c, A_ub=a, b_ub=b, bounds=[(0, u) for u in ub],
                      method="highs")
        if ref.status == 0:
            assert res.is_optimal
            assert res.objective == pytest.approx(
                -ref.fun, rel=1e-6, abs=1e-8)
        elif ref.status == 2:
            assert res.status == STATUS_INFEASIBLE

    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=40, deadline=None)
    def test_solution_is_feasible(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 8))
        m = int(rng.integers(1, 8))
        c = rng.normal(size=n)
        a = rng.normal(size=(m, n))
        b = rng.uniform(0.5, 3.0, size=m)
        ub = rng.uniform(0.5, 3.0, size=n)
        res = solve_lp_maximize(c, a, b, upper=ub)
        if res.is_optimal:
            assert np.all(res.x >= -1e-8)
            assert np.all(res.x <= ub + 1e-8)
            assert np.all(a @ res.x <= b + 1e-7)
