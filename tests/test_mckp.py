"""Tests for the exact MCKP solver and the OptimalFrozen manager."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import LOW_POWER, PowerEnvironment
from repro.opt import MckpItem, solve_mckp
from repro.opt.mckp import _prepare_class, _upper_hull
from repro.pm import LinOpt, OptimalFrozen
from repro.sched import VarFAppIPC
from repro.workloads import Workload, get_app, make_workload


def brute_force(classes, capacity):
    best = None
    for combo in itertools.product(*[range(len(c)) for c in classes]):
        w = sum(classes[i][j].weight for i, j in enumerate(combo))
        v = sum(classes[i][j].value for i, j in enumerate(combo))
        if w <= capacity + 1e-12 and (best is None or v > best):
            best = v
    return best


class TestPreprocessing:
    def test_dominated_items_dropped(self):
        cls = [MckpItem(0, 1.0, 5.0), MckpItem(1, 2.0, 4.0),
               MckpItem(2, 3.0, 6.0)]
        kept = _prepare_class(cls)
        assert [it.index for it in kept] == [0, 2]

    def test_equal_weight_keeps_best(self):
        cls = [MckpItem(0, 1.0, 3.0), MckpItem(1, 1.0, 5.0)]
        kept = _prepare_class(cls)
        assert [it.index for it in kept] == [1]

    def test_empty_class_rejected(self):
        with pytest.raises(ValueError):
            _prepare_class([])

    def test_hull_removes_concave_point(self):
        cls = _prepare_class([MckpItem(0, 0.0, 0.0),
                              MckpItem(1, 1.0, 1.0),
                              MckpItem(2, 2.0, 4.0)])
        hull = _upper_hull(cls)
        # (1, 1) lies under the chord from (0,0) to (2,4).
        assert [it.index for it in hull] == [0, 2]


class TestSolveMckp:
    def test_simple_known_case(self):
        classes = [
            [MckpItem(0, 1.0, 1.0), MckpItem(1, 3.0, 4.0)],
            [MckpItem(0, 1.0, 2.0), MckpItem(1, 2.0, 3.0)],
        ]
        sol = solve_mckp(classes, capacity=5.0)
        assert sol.is_feasible
        assert sol.value == pytest.approx(7.0)  # (1, 1): 4 + 3, w = 5
        assert sol.choice == (1, 1)

    def test_infeasible(self):
        classes = [[MckpItem(0, 5.0, 1.0)]]
        sol = solve_mckp(classes, capacity=1.0)
        assert not sol.is_feasible
        assert sol.choice is None

    def test_single_class(self):
        classes = [[MckpItem(i, float(i), float(i * 2))
                    for i in range(5)]]
        sol = solve_mckp(classes, capacity=3.0)
        assert sol.choice == (3,)

    def test_exact_capacity_boundary(self):
        classes = [[MckpItem(0, 2.0, 5.0)], [MckpItem(0, 3.0, 7.0)]]
        sol = solve_mckp(classes, capacity=5.0)
        assert sol.is_feasible
        assert sol.weight == pytest.approx(5.0)

    def test_rejects_no_classes(self):
        with pytest.raises(ValueError):
            solve_mckp([], capacity=1.0)

    @given(st.integers(min_value=0, max_value=100_000))
    @settings(max_examples=60, deadline=None)
    def test_matches_brute_force(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 5))
        classes = []
        for _ in range(n):
            k = int(rng.integers(1, 5))
            classes.append([
                MckpItem(i, float(rng.uniform(0, 5)),
                         float(rng.uniform(0, 10)))
                for i in range(k)])
        cap = float(rng.uniform(0, 12))
        sol = solve_mckp(classes, cap)
        best = brute_force(classes, cap)
        if best is None:
            assert not sol.is_feasible
        else:
            assert sol.is_feasible
            assert sol.value == pytest.approx(best, abs=1e-8)

    @given(st.integers(min_value=0, max_value=100_000))
    @settings(max_examples=40, deadline=None)
    def test_integer_ties(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 4))
        classes = []
        for _ in range(n):
            k = int(rng.integers(1, 5))
            classes.append([
                MckpItem(i, float(rng.integers(0, 6)),
                         float(rng.integers(0, 8)))
                for i in range(k)])
        cap = float(rng.integers(0, 14))
        sol = solve_mckp(classes, cap)
        best = brute_force(classes, cap)
        if best is None:
            assert not sol.is_feasible
        else:
            assert sol.value == pytest.approx(best, abs=1e-8)

    def test_reported_weight_consistent(self):
        classes = [
            [MckpItem(0, 1.0, 1.0), MckpItem(1, 2.5, 3.0)],
            [MckpItem(0, 0.5, 0.5), MckpItem(1, 1.5, 2.0)],
        ]
        sol = solve_mckp(classes, capacity=4.0)
        w = sum(classes[i][j].weight
                for i, j in enumerate(sol.choice))
        assert sol.weight == pytest.approx(w)


class TestOptimalFrozen:
    def test_meets_constraints(self, chip, rng):
        wl = make_workload(8, rng)
        asg = VarFAppIPC().assign_with_profiling(chip, wl, rng)
        res = OptimalFrozen(n_iterations=2).set_levels(
            chip, wl, asg, LOW_POWER)
        p_target = LOW_POWER.p_target(8, chip.n_cores)
        assert res.state.total_power <= p_target + 1e-6

    def test_not_worse_than_linopt(self, chip, rng):
        wl = make_workload(8, rng)
        asg = VarFAppIPC().assign_with_profiling(chip, wl, rng)
        lin = LinOpt().set_levels(chip, wl, asg, LOW_POWER)
        opt = OptimalFrozen(n_iterations=2).set_levels(
            chip, wl, asg, LOW_POWER)
        # Exact frozen-temperature optimum should match or beat the
        # LP heuristic (small thermal-coupling noise allowed).
        assert (opt.state.throughput_mips
                >= 0.99 * lin.state.throughput_mips)

    def test_respects_per_core_cap(self, chip, rng):
        wl = Workload((get_app("vortex"), get_app("crafty")))
        asg = VarFAppIPC().assign_with_profiling(chip, wl, rng)
        env = PowerEnvironment("Capped", 60.0, p_core_max=3.0)
        res = OptimalFrozen(n_iterations=2).set_levels(
            chip, wl, asg, env)
        assert np.all(res.state.core_power <= 3.0 + 1e-6)

    def test_validation(self):
        with pytest.raises(ValueError):
            OptimalFrozen(n_iterations=0)
