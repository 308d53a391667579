"""End-to-end integration tests across the full stack.

These exercise the complete pipeline — variation map -> binning ->
scheduling -> power management -> thermal/power evaluation — and
assert the paper's headline qualitative claims hold on small runs.
"""

import numpy as np

from repro.config import (
    COST_PERFORMANCE,
    HIGH_PERFORMANCE,
    LOW_POWER,
    celsius,
)
from repro.pm import FoxtonStar, LinOpt, meets_constraints
from repro.runtime import (
    evaluate_max_levels,
    evaluate_uniform_frequency,
)
from repro.sched import POLICIES, RandomPolicy, VarFAppIPC, VarP
from repro.workloads import make_workload


class TestFullPipeline:
    def test_heterogeneity_is_visible_end_to_end(self, chip):
        """A variation-affected die is not homogeneous (Section 1)."""
        assert chip.fmax_array.std() / chip.fmax_array.mean() > 0.02
        rated = chip.static_rated_array
        assert rated.std() / rated.mean() > 0.10

    def test_full_load_reaches_paper_temperatures(self, chip, rng):
        wl = make_workload(20, rng)
        asg = RandomPolicy().assign_with_profiling(chip, wl, rng)
        state = evaluate_max_levels(chip, wl, asg)
        tmax = celsius(float(state.block_temps.max()))
        assert 80.0 < tmax < 115.0  # paper observes ~95 C

    def test_full_load_power_magnitude(self, chip, rng):
        wl = make_workload(20, rng)
        asg = RandomPolicy().assign_with_profiling(chip, wl, rng)
        state = evaluate_max_levels(chip, wl, asg)
        # Unconstrained full-load power sits between the Cost-Perf and
        # well above the Low-Power budget (else DVFS would be moot).
        assert 70.0 < state.total_power < 130.0

    def test_varp_saves_power_at_light_load(self, chip, rng):
        wl = make_workload(4, rng)
        p_random, p_varp = [], []
        for seed in range(4):
            r = np.random.default_rng(seed)
            asg_r = RandomPolicy().assign_with_profiling(chip, wl, r)
            asg_v = VarP().assign_with_profiling(chip, wl, r)
            p_random.append(evaluate_uniform_frequency(
                chip, wl, asg_r).total_power)
            p_varp.append(evaluate_uniform_frequency(
                chip, wl, asg_v).total_power)
        assert np.mean(p_varp) < np.mean(p_random)

    def test_varfappipc_beats_random_throughput(self, chip, rng):
        gains = []
        for seed in range(4):
            r = np.random.default_rng(seed)
            wl = make_workload(8, r)
            asg_r = RandomPolicy().assign_with_profiling(chip, wl, r)
            asg_v = VarFAppIPC().assign_with_profiling(chip, wl, r)
            tp_r = evaluate_max_levels(chip, wl, asg_r).throughput_mips
            tp_v = evaluate_max_levels(chip, wl, asg_v).throughput_mips
            gains.append(tp_v / tp_r)
        assert np.mean(gains) > 1.0

    def test_linopt_beats_foxton_under_tight_budget(self, chip, rng):
        ratios = []
        for seed in range(3):
            r = np.random.default_rng(seed)
            wl = make_workload(12, r)
            asg = VarFAppIPC().assign_with_profiling(chip, wl, r)
            fox = FoxtonStar().set_levels(chip, wl, asg, LOW_POWER)
            lin = LinOpt().set_levels(chip, wl, asg, LOW_POWER)
            ratios.append(lin.state.throughput_mips
                          / fox.state.throughput_mips)
        assert np.mean(ratios) > 1.0

    def test_gains_grow_as_budget_tightens(self, chip, rng):
        """Figure 12's shape: tighter budget, larger LinOpt gain."""
        gains = {}
        for env in (LOW_POWER, HIGH_PERFORMANCE):
            ratios = []
            for seed in range(3):
                r = np.random.default_rng(seed)
                wl = make_workload(16, r)
                asg_rand = RandomPolicy().assign_with_profiling(
                    chip, wl, r)
                asg_smart = VarFAppIPC().assign_with_profiling(
                    chip, wl, r)
                base = FoxtonStar().set_levels(chip, wl, asg_rand, env)
                lin = LinOpt().set_levels(chip, wl, asg_smart, env)
                ratios.append(lin.state.throughput_mips
                              / base.state.throughput_mips)
            gains[env.name] = np.mean(ratios)
        assert gains["Low Power"] >= gains["High Performance"] - 0.02

    def test_every_policy_produces_valid_assignment(self, chip, rng):
        wl = make_workload(10, rng)
        for name, policy in POLICIES.items():
            asg = policy.assign_with_profiling(chip, wl, rng)
            assert len(set(asg.core_of)) == 10
            state = evaluate_max_levels(chip, wl, asg)
            assert state.total_power > 0

    def test_budgets_respected_across_environments(self, chip, rng):
        wl = make_workload(10, rng)
        asg = VarFAppIPC().assign_with_profiling(chip, wl, rng)
        for env in (LOW_POWER, COST_PERFORMANCE, HIGH_PERFORMANCE):
            for manager in (FoxtonStar(), LinOpt()):
                result = manager.set_levels(chip, wl, asg, env)
                p_target = env.p_target(10, chip.n_cores)
                assert meets_constraints(result.state, p_target,
                                         env.p_core_max)
