"""Bitwise-identity and regression tests for the batched EvalKernel.

The contract of :class:`repro.runtime.kernel.EvalKernel` is that every
row of a batch is *bitwise identical* to the serial
:func:`repro.runtime.evaluation.evaluate_levels` call for the same
levels — including which candidates raise, with what exception —
that a D-die kernel's rows equal one-die kernels, and that the
policies' speculative batching returns exactly the decisions,
evaluation counts and states of their one-candidate-per-call
schedules.
"""

from types import SimpleNamespace

import numpy as np
import pytest

from repro.chip import characterize_die
from repro.config import (COST_PERFORMANCE, DEFAULT_TECH, LOW_POWER, T_REF_K,
                          ArchConfig)
from repro.pm import (BarrierAwarePm, ExhaustiveSearch, FoxtonStar, LinOpt,
                      LinOptConfig, OptimalFrozen, SAnnManager,
                      fit_power_lines)
from repro.power import PowerSensor
from repro.runtime.evaluation import (EVALUATION_COUNTER, Assignment,
                                      evaluate_levels)
from repro.runtime.kernel import (EvalKernel, _CellLayout,
                                  _scalar_pow_prefactor)
from repro.variation import DieBatch
from repro.workloads import make_workload

#: The daemon's 4-core die: every core has a different cell count, so
#: each core segment is a size group of its own.
DISTINCT_ARCH = ArchConfig(n_cores=4, die_area_mm2=140.0,
                           grid_resolution=8)


def _random_case(chip, n_threads, seed):
    """(workload, assignment, level matrix) drawn from one rng stream."""
    rng = np.random.default_rng(seed)
    workload = make_workload(n_threads, rng)
    cores = rng.choice(chip.n_cores, size=n_threads, replace=False)
    assignment = Assignment(core_of=tuple(int(c) for c in cores))
    max_lv = min(chip.cores[c].vf_table.n_levels
                 for c in assignment.core_of)
    matrix = rng.integers(0, max_lv, size=(37, n_threads))
    return workload, assignment, matrix


def _assert_state_bitwise(batch_state, serial_state):
    np.testing.assert_array_equal(batch_state.voltages,
                                  serial_state.voltages)
    np.testing.assert_array_equal(batch_state.freqs, serial_state.freqs)
    np.testing.assert_array_equal(batch_state.ipcs, serial_state.ipcs)
    np.testing.assert_array_equal(batch_state.core_dynamic,
                                  serial_state.core_dynamic)
    np.testing.assert_array_equal(batch_state.core_leakage,
                                  serial_state.core_leakage)
    np.testing.assert_array_equal(batch_state.block_temps,
                                  serial_state.block_temps)
    assert batch_state.l2_power == serial_state.l2_power
    assert batch_state.total_power == serial_state.total_power


class TestBitwiseIdentity:
    """Property: batch rows == serial evaluations, bit for bit."""

    @pytest.mark.parametrize("n_threads,seed", [(1, 3), (4, 4), (8, 5)])
    def test_batch_matches_serial(self, small_chip, n_threads, seed):
        wl, asg, matrix = _random_case(small_chip, n_threads, seed)
        kernel = EvalKernel(small_chip, wl, asg)
        states = kernel.evaluate_levels_batch(matrix)
        assert len(states) == matrix.shape[0]
        for row, state in zip(matrix, states):
            ref = evaluate_levels(small_chip, wl, asg, list(row))
            _assert_state_bitwise(state, ref)

    def test_full_die_batch(self, chip):
        wl, asg, matrix = _random_case(chip, 6, 17)
        kernel = EvalKernel(chip, wl, asg)
        states = kernel.evaluate_levels_batch(matrix[:20])
        for row, state in zip(matrix[:20], states):
            _assert_state_bitwise(
                state, evaluate_levels(chip, wl, asg, list(row)))

    def test_phase_multipliers(self, small_chip):
        wl, asg, matrix = _random_case(small_chip, 4, 6)
        rng = np.random.default_rng(8)
        ipc_m = rng.uniform(0.6, 1.4, size=4)
        ceff_m = rng.uniform(0.6, 1.4, size=4)
        kernel = EvalKernel(small_chip, wl, asg,
                            ipc_multipliers=ipc_m, ceff_multipliers=ceff_m)
        for row, state in zip(matrix[:10],
                              kernel.evaluate_levels_batch(matrix[:10])):
            ref = evaluate_levels(small_chip, wl, asg, list(row),
                                  ipc_multipliers=ipc_m,
                                  ceff_multipliers=ceff_m)
            _assert_state_bitwise(state, ref)

    def test_single_candidate_wrapper(self, small_chip):
        wl, asg, matrix = _random_case(small_chip, 4, 7)
        kernel = EvalKernel(small_chip, wl, asg)
        state = kernel.evaluate_levels(list(matrix[0]))
        _assert_state_bitwise(
            state, evaluate_levels(small_chip, wl, asg, list(matrix[0])))

    def test_batch_independent_of_neighbours(self, small_chip):
        """A row's result cannot depend on what it is batched with."""
        wl, asg, matrix = _random_case(small_chip, 4, 9)
        kernel = EvalKernel(small_chip, wl, asg)
        together = kernel.evaluate_levels_batch(matrix)
        alone = [kernel.evaluate_levels_batch(matrix[b:b + 1])[0]
                 for b in range(matrix.shape[0])]
        for a, b in zip(together, alone):
            _assert_state_bitwise(a, b)


class TestErrorParity:
    """Failing candidates fail identically to the serial path."""

    def _runaway_setup(self, small_chip):
        rng = np.random.default_rng(42)
        n = 8
        wl = make_workload(n, rng)
        cores = rng.choice(small_chip.n_cores, size=n, replace=False)
        asg = Assignment(core_of=tuple(int(c) for c in cores))
        max_lv = min(small_chip.cores[c].vf_table.n_levels
                     for c in asg.core_of)
        # Enormous dynamic power makes the top-level rows run away.
        ceff_m = [40.0] * n
        matrix = np.zeros((12, n), dtype=int)
        matrix[[1, 4, 9]] = max_lv - 1
        matrix[5] = 3
        return wl, asg, ceff_m, matrix

    def test_isolate_matches_serial_per_row(self, small_chip):
        wl, asg, ceff_m, matrix = self._runaway_setup(small_chip)
        kernel = EvalKernel(small_chip, wl, asg, ceff_multipliers=ceff_m)
        results = kernel.evaluate_levels_batch(matrix, errors="isolate")
        n_err = 0
        for row, item in zip(matrix, results):
            try:
                ref = evaluate_levels(small_chip, wl, asg, list(row),
                                      ceff_multipliers=ceff_m)
                ref_err = None
            except Exception as exc:  # noqa: BLE001 — parity check
                ref, ref_err = None, exc
            if ref_err is not None:
                n_err += 1
                assert isinstance(item, Exception)
                assert type(item) is type(ref_err)
                assert str(item) == str(ref_err)
            else:
                _assert_state_bitwise(item, ref)
        assert n_err > 0  # the setup must actually exercise failures

    def test_raise_mode_raises_lowest_index_error(self, small_chip):
        wl, asg, ceff_m, matrix = self._runaway_setup(small_chip)
        kernel = EvalKernel(small_chip, wl, asg, ceff_multipliers=ceff_m)
        isolated = kernel.evaluate_levels_batch(matrix, errors="isolate")
        first = next(i for i, r in enumerate(isolated)
                     if isinstance(r, Exception))
        with pytest.raises(type(isolated[first]),
                           match=str(isolated[first]).split(":")[0]):
            kernel.evaluate_levels_batch(matrix)

    def test_out_of_range_level_message(self, small_chip):
        wl, asg, matrix = _random_case(small_chip, 4, 10)
        kernel = EvalKernel(small_chip, wl, asg)
        bad = matrix[:3].copy()
        bad[1, 2] = 99
        with pytest.raises(ValueError) as batch_err:
            kernel.evaluate_levels_batch(bad)
        with pytest.raises(ValueError) as serial_err:
            evaluate_levels(small_chip, wl, asg, list(bad[1]))
        assert str(batch_err.value) == str(serial_err.value)

    def test_shape_validation(self, small_chip):
        wl, asg, _ = _random_case(small_chip, 4, 11)
        kernel = EvalKernel(small_chip, wl, asg)
        for shape_error in (np.zeros((2, 3), dtype=int), [], [[]]):
            with pytest.raises(ValueError, match="one level per thread"):
                kernel.evaluate_levels_batch(shape_error)
        # A fractional level is an error, never truncated to an index
        # (the serial path cannot index a V/f table with it either).
        for fractional in ([1.7, 0, 0, 0], [[0, 0, 2.0, 0]]):
            with pytest.raises(ValueError, match="must be integers"):
                kernel.evaluate_levels_batch(fractional)
        with pytest.raises(ValueError, match="raise.*isolate"):
            kernel.evaluate_levels_batch(np.zeros((2, 4), dtype=int),
                                         errors="always")
        assert kernel.evaluate_levels_batch(
            np.zeros((0, 4), dtype=int)) == []


class TestKernelStats:
    def test_stats_and_global_counter(self, small_chip):
        wl, asg, matrix = _random_case(small_chip, 4, 12)
        kernel = EvalKernel(small_chip, wl, asg)
        EVALUATION_COUNTER.reset()
        kernel.evaluate_levels_batch(matrix[:5])
        kernel.evaluate_levels_batch(matrix[:2])
        stats = kernel.stats
        assert stats.evaluations == 7
        assert stats.batch_calls == 2
        assert stats.batch_size_hist == {5: 1, 2: 1}
        assert stats.fixed_point_iterations > 0
        assert stats.wall_s > 0
        assert EVALUATION_COUNTER.count == 7
        assert EVALUATION_COUNTER.batch_calls == 2
        assert EVALUATION_COUNTER.batch_size_hist == {5: 1, 2: 1}
        scalars = stats.as_result_stats()
        assert scalars["kernel_evaluations"] == 7.0
        assert scalars["kernel_batches"] == 2.0
        assert scalars["kernel_batch_max"] == 5.0
        assert scalars["kernel_batch_mean"] == pytest.approx(3.5)


def _pm_case(chip, n_threads, seed):
    rng = np.random.default_rng(seed)
    wl = make_workload(n_threads, rng)
    cores = rng.choice(chip.n_cores, size=n_threads, replace=False)
    return wl, Assignment(core_of=tuple(int(c) for c in cores))


#: Manager factories, by name, for the schedule and stats checks.
MANAGERS = {
    "foxton": FoxtonStar,
    "sann": lambda: SAnnManager(n_evaluations=150),
    "sann-weighted": lambda: SAnnManager(n_evaluations=100,
                                         objective="weighted"),
    "linopt": lambda: LinOpt(LinOptConfig(n_iterations=2)),
    "optimal": lambda: OptimalFrozen(n_iterations=2),
    "barrier": BarrierAwarePm,
    "exhaustive": ExhaustiveSearch,
}

#: Every batch-size constant of the searchers' speculation. Set to 1,
#: each kernel call holds exactly the candidate the sequential search
#: evaluates next: the chunk-1 schedule, the reference the speculative
#: batches are held to.
SPECULATION_CONSTANTS = (
    "repro.pm.foxton._SPEC_MIN", "repro.pm.foxton._SPEC_MAX",
    "repro.pm.linopt._REFILL_SPEC_MIN", "repro.pm.linopt._REFILL_SPEC_MAX",
    "repro.pm.sann._SPEC_CHUNK", "repro.pm.exhaustive._BATCH_COMBOS",
)


def _decide(chip, name, env):
    """One decision of manager ``name`` on a fixed small case."""
    n_threads, seed = (3, 23) if name == "exhaustive" else (5, 21)
    wl, asg = _pm_case(chip, n_threads, seed)
    return MANAGERS[name]().set_levels(chip, wl, asg, env,
                                       rng=np.random.default_rng(33))


def _non_kernel(stats):
    return {k: v for k, v in stats.items() if not k.startswith("kernel_")}


def _speculative_matches_serial(chip, name, env, monkeypatch):
    """Manager ``name``'s default decision equals its chunk-1 decision;
    returns the default one."""
    speculative = _decide(chip, name, env)
    for constant in SPECULATION_CONSTANTS:
        monkeypatch.setattr(constant, 1)
    serial = _decide(chip, name, env)
    # At chunk 1 every kernel call holds the one candidate the
    # sequential search evaluates next.
    assert serial.stats["kernel_batch_max"] == 1.0
    assert speculative.levels == serial.levels
    assert speculative.evaluations == serial.evaluations
    _assert_state_bitwise(speculative.state, serial.state)
    assert _non_kernel(speculative.stats) == _non_kernel(serial.stats)
    return speculative


class TestPolicyRegression:
    """Speculative batching must change nothing but speed and stats.

    The reference is each manager's *serial* schedule: the same code
    with every speculation constant at 1, so it evaluates exactly one
    candidate per kernel call, in the order a sequential search does.
    """

    @pytest.mark.parametrize("name", [
        "foxton", "sann", "sann-weighted", "linopt", "optimal", "barrier"])
    @pytest.mark.parametrize("env", [COST_PERFORMANCE, LOW_POWER],
                             ids=["cost-perf", "low-power"])
    def test_kernel_matches_serial_decision(self, small_chip, name, env,
                                            monkeypatch):
        _speculative_matches_serial(small_chip, name, env, monkeypatch)

    def test_exhaustive_matches_serial_decision(self, small_chip,
                                                monkeypatch):
        for env in (COST_PERFORMANCE, LOW_POWER):
            with monkeypatch.context() as patch:
                speculative = _speculative_matches_serial(
                    small_chip, "exhaustive", env, patch)
            # Every combination went through the kernel, none was
            # wasted.
            assert (speculative.stats["kernel_evaluations"]
                    == speculative.evaluations)

    @pytest.mark.parametrize("name", sorted(MANAGERS))
    def test_kernel_counts_every_evaluation(self, small_chip, name):
        """A decision's kernel counters cover all its evaluations,
        SAnn's greedy Foxton* start included."""
        result = _decide(small_chip, name, COST_PERFORMANCE)
        assert result.stats["kernel_evaluations"] >= result.evaluations

    def test_sann_reports_cache_hits(self, small_chip):
        wl, asg = _pm_case(small_chip, 4, 25)
        result = SAnnManager(n_evaluations=150).set_levels(
            small_chip, wl, asg, COST_PERFORMANCE,
            rng=np.random.default_rng(1))
        assert result.stats["sa_cache_hits"] > 0

    def test_sann_cache_bound_does_not_change_decision(
            self, small_chip, monkeypatch):
        """A tiny LRU bound may cost re-evaluations, never the answer."""
        wl, asg = _pm_case(small_chip, 4, 27)
        reference = SAnnManager(n_evaluations=80).set_levels(
            small_chip, wl, asg, COST_PERFORMANCE,
            rng=np.random.default_rng(2))
        monkeypatch.setattr("repro.pm.sann.STATE_CACHE_CAPACITY", 4)
        bounded = SAnnManager(n_evaluations=80).set_levels(
            small_chip, wl, asg, COST_PERFORMANCE,
            rng=np.random.default_rng(2))
        assert bounded.levels == reference.levels
        _assert_state_bitwise(bounded.state, reference.state)
        # With four live entries nearly every revisit re-evaluates.
        assert bounded.evaluations >= reference.evaluations


class TestFitPowerLinesWindow:
    """The local profiling window must honour n_profile_voltages."""

    class CountingPowerSensor(PowerSensor):
        def __init__(self):
            super().__init__()
            self.reads = 0

        def read(self, true_value):
            self.reads += 1
            return super().read(true_value)

    @pytest.mark.parametrize("n_voltages,expected", [(2, 2), (3, 3),
                                                     (5, 5)])
    def test_local_window_point_count(self, small_chip, n_voltages,
                                      expected):
        wl, asg = _pm_case(small_chip, 2, 29)
        temps = np.full(small_chip.n_cores, 350.0)
        sensor = self.CountingPowerSensor()
        # Centre 4, span 2 on a 9-level table: window levels 2..6, wide
        # enough to hold all requested point counts distinctly.
        fit_power_lines(small_chip, wl, asg, temps, n_voltages, sensor,
                        center_levels=[4, 4], span_levels=2)
        assert sensor.reads == expected * asg.n_threads

    def test_narrow_window_collapses_duplicates(self, small_chip):
        wl, asg = _pm_case(small_chip, 2, 29)
        temps = np.full(small_chip.n_cores, 350.0)
        sensor = self.CountingPowerSensor()
        # Window 0..1 has two levels: even 5 requested points collapse.
        fit_power_lines(small_chip, wl, asg, temps, 5, sensor,
                        center_levels=[0, 0], span_levels=1)
        assert sensor.reads == 2 * asg.n_threads

    def test_local_fit_matches_window_polyfit(self, small_chip):
        """n_voltages=2 fits exactly the window's two endpoints."""
        wl, asg = _pm_case(small_chip, 2, 29)
        temps = np.full(small_chip.n_cores, 350.0)
        fit = fit_power_lines(small_chip, wl, asg, temps, 2,
                              PowerSensor(), center_levels=[4, 4],
                              span_levels=2)
        i = 0
        core = small_chip.cores[asg.core_of[i]]
        table = core.vf_table
        xs, ys = [], []
        for lv in (2, 6):
            v = float(table.voltages[lv])
            f = float(table.freqs[lv])
            p = (wl[i].dynamic_power_at(v, f)
                 + core.leakage.power(v, 350.0))
            xs.append(v)
            ys.append(p)
        slope, intercept = np.polyfit(np.array(xs), np.array(ys), 1)
        assert fit.slope[i] == pytest.approx(slope)
        assert fit.intercept[i] == pytest.approx(intercept)


class TestReductionAssumptions:
    """The size-grouped reductions equal the serial per-row calls.

    The kernel's bitwise contract rests on two numpy/BLAS facts: one
    ``np.vecdot`` over a strided ``(rows, n_g, L)`` view of a packed
    matrix performs, row by row, the contiguous ``ddot`` of the serial
    ``weights @ factors``, and ``np.add.reduce(axis=2)`` the pairwise
    sum of the serial ``np.mean``. A numpy or BLAS upgrade that breaks
    either fails here by name, not as a digest mismatch.
    """

    SIZES = [45, 48, 60, 64, 288, 300, 640]

    @staticmethod
    def _packed(size, seed):
        """A packed matrix with an equal-size run at an odd offset."""
        rng = np.random.default_rng(seed)
        rows, n_g, lead = 5, 3, 7
        packed = rng.lognormal(0.0, 3.0, size=(rows, lead + n_g * size + 11))
        view = packed[:, lead:lead + n_g * size].reshape(rows, n_g, size)
        segs = [[packed[b, lead + g * size:lead + (g + 1) * size]
                 for g in range(n_g)] for b in range(rows)]
        return rng, view, segs

    @pytest.mark.parametrize("size", SIZES)
    def test_vecdot_matches_per_row_dot(self, size):
        rng, view, segs = self._packed(size, size)
        rows, n_g, _ = view.shape
        shared = rng.uniform(size=(n_g, size))
        per_row = rng.uniform(size=(rows, n_g, size))
        np.testing.assert_array_equal(
            np.vecdot(shared, view),
            [[shared[g] @ segs[b][g] for g in range(n_g)]
             for b in range(rows)])
        np.testing.assert_array_equal(
            np.vecdot(per_row, view),
            [[np.dot(per_row[b, g], segs[b][g]) for g in range(n_g)]
             for b in range(rows)])

    @pytest.mark.parametrize("size", SIZES)
    def test_axis2_reduce_matches_per_row_reduce(self, size):
        _, view, segs = self._packed(size, 1000 + size)
        sums = np.add.reduce(view, axis=2)
        np.testing.assert_array_equal(
            sums, [[np.add.reduce(s) for s in row] for row in segs])
        np.testing.assert_array_equal(
            sums / size, [[np.mean(s) for s in row] for row in segs])

    def test_pow_prefactor_matches_scalar_serial(self):
        """libm ``pow`` (the serial 0-d ``** 2``), never ``x * x``."""
        rng = np.random.default_rng(7)
        temps = rng.uniform(300.0, 420.0, size=(40, 500))
        vdd = rng.uniform(0.6, 1.1, size=temps.shape)
        expected = [
            [np.asarray(v) * (np.asarray(t) / T_REF_K) ** 2
             for v, t in zip(v_row, t_row)]
            for v_row, t_row in zip(vdd.tolist(), temps.tolist())]
        np.testing.assert_array_equal(_scalar_pow_prefactor(temps, vdd),
                                      expected)


@pytest.fixture(scope="module")
def distinct_chips():
    """Three daemon-shape 4-core dies."""
    batch = DieBatch(DEFAULT_TECH, DISTINCT_ARCH, n_dies=3, seed=5)
    return [characterize_die(batch[k], DEFAULT_TECH, DISTINCT_ARCH)
            for k in range(3)]


def _mixed_case(chip, n_threads, seed):
    """Every core busy; random levels plus two all-top-level rows."""
    rng = np.random.default_rng(seed)
    workload = make_workload(n_threads, rng)
    assignment = Assignment(core_of=tuple(
        int(c) for c in rng.permutation(chip.n_cores)[:n_threads]))
    max_lv = min(chip.cores[c].vf_table.n_levels
                 for c in assignment.core_of)
    matrix = rng.integers(0, max_lv // 2, size=(8, n_threads))
    matrix[[2, 5]] = max_lv - 1
    return workload, assignment, matrix


def _assert_rows_match_serial(results, chips, wl, asg, matrix, ceff_m):
    """Row ``b`` equals the serial evaluation on ``chips[b]``,
    exceptions included; the case must exercise both outcomes."""
    n_err = 0
    for chip, row, item in zip(chips, matrix, results):
        try:
            ref = evaluate_levels(chip, wl, asg, list(row),
                                  ceff_multipliers=ceff_m)
        except Exception as exc:  # noqa: BLE001 — parity check
            n_err += 1
            assert type(item) is type(exc)
            assert str(item) == str(exc)
        else:
            _assert_state_bitwise(item, ref)
    assert 0 < n_err < len(results)


class TestSizeGroupedLayout:
    """Kernel == serial on all-distinct and mixed segment sizes."""

    def test_runs_never_straddle_cores_and_l2(self):
        """A core and an L2 block of equal size stay in separate runs."""
        def cells(k):
            return SimpleNamespace(leakage=SimpleNamespace(
                cell_vth=np.zeros(k)))
        die = SimpleNamespace(
            tech=DEFAULT_TECH, n_cores=3,
            cores=[cells(7), cells(5), cells(7)],
            thermal=SimpleNamespace(n_blocks=5),
            l2_leakage=SimpleNamespace(n_blocks=2,
                                       block_vth=[np.zeros(7)] * 2))
        layout = _CellLayout(die, (2, 0, 1))
        assert layout.order.tolist() == [2, 0, 1, 3, 4]
        assert layout.threads.tolist() == [2, 0, 1]
        assert layout.seg_block.tolist() == [1, 2, 0, 3, 4]
        assert layout.core_runs == [(0, 1, 0, 5, 5), (1, 3, 5, 19, 7)]
        assert layout.l2_runs == [(3, 5, 19, 33, 7)]

    # (die, threads, Ceff multiplier that makes all-top rows run away)
    CASES = {"distinct": (4, 10.0), "mixed": (20, 4.0)}

    @pytest.fixture(params=sorted(CASES))
    def case(self, request, distinct_chips, chip, chip2):
        chips = (distinct_chips if request.param == "distinct"
                 else [chip, chip2])
        n_threads, ceff = self.CASES[request.param]
        wl, asg, matrix = _mixed_case(chips[0], n_threads, 41)
        runs = _CellLayout(chips[0], asg.core_of).core_runs
        if request.param == "distinct":
            assert len(runs) == n_threads       # one group per core
        else:
            assert 1 < len(runs) < n_threads   # equal sizes grouped
        return chips, wl, asg, matrix, [ceff] * n_threads

    def test_eval_kernel_isolate(self, case):
        chips, wl, asg, matrix, ceff_m = case
        kernel = EvalKernel(chips[0], wl, asg, ceff_multipliers=ceff_m)
        results = kernel.evaluate_levels_batch(matrix, errors="isolate")
        _assert_rows_match_serial(results, [chips[0]] * len(matrix),
                                  wl, asg, matrix, ceff_m)

    def test_fleet_kernel_isolate(self, case):
        chips, wl, asg, matrix, ceff_m = case
        kernel = EvalKernel(chips, wl, asg, ceff_multipliers=ceff_m)
        # One row per die; the last die takes the all-top row 2.
        rows = matrix[3 - len(chips):3]
        results = kernel.evaluate_levels_fleet(rows, errors="isolate")
        _assert_rows_match_serial(results, chips, wl, asg, rows, ceff_m)

    def test_die_rows_match_one_die_kernels(self, case):
        """Row d of a D-die kernel is the one-die kernel of chips[d],
        through either entry point, failures included."""
        chips, wl, asg, matrix, ceff_m = case
        fleet = EvalKernel(chips, wl, asg, ceff_multipliers=ceff_m)
        singles = [EvalKernel(chip, wl, asg, ceff_multipliers=ceff_m)
                   for chip in chips]
        batches = [k.evaluate_levels_batch(matrix, errors="isolate")
                   for k in singles]
        for b, row in enumerate(matrix):
            shared = fleet.evaluate_levels_fleet(row, errors="isolate")
            for d, single in enumerate(singles):
                _assert_same_outcome(shared[d], batches[d][b])
                _assert_same_outcome(
                    single.evaluate_levels_fleet(row, errors="isolate")[0],
                    batches[d][b])
        with pytest.raises(ValueError, match="one-die kernel"):
            fleet.evaluate_levels_batch(matrix)


def _assert_same_outcome(a, b):
    """Both the same exception, or bitwise-equal states."""
    if isinstance(a, Exception) or isinstance(b, Exception):
        assert type(a) is type(b) and str(a) == str(b)
    else:
        _assert_state_bitwise(a, b)
