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

import ast
import dataclasses
import pathlib
import re
from types import SimpleNamespace

import numpy as np
import pytest

from repro.chip import characterize_dies
from repro.config import (COST_PERFORMANCE, DEFAULT_TECH, LOW_POWER, T_REF_K,
                          ArchConfig, PowerEnvironment)
from repro.faults import MANAGER_ERROR, ResilientManager
from repro.fleet import FLEET_ARCH
from repro.floorplan import build_floorplan
from repro.linprog import (BoundedSimplexBackend, HighsBackend,
                           ReferenceSimplexBackend)
from repro.pm import (BarrierAwarePm, ExhaustiveSearch, FoxtonStar, LinOpt,
                      LinOptConfig, OptimalFrozen, SAnnManager,
                      fit_power_lines)
from repro.pm.base import PowerManager
from repro.power import PowerSensor
from repro.power.scaling import L2_DYNAMIC_FRACTION
from repro.runtime.evaluation import (EVALUATION_COUNTER, Assignment,
                                      evaluate_levels)
from repro.runtime import kernel as kernel_module
from repro.runtime.kernel import (_WALK_MAX, _WALK_MIN, EvalKernel,
                                  StateMemo, _CellLayout, _row_totals,
                                  _scalar_pow_prefactor)
from repro.thermal.hotspot import RUNAWAY_TEMP_K, ThermalRunawayError
from repro.variation import DieBatch
from repro.workloads import SPEC_APPS, Workload, make_workload

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


def _bits(value):
    """A value's exact bit pattern: an array's dtype, shape and bytes,
    or a float's hex form."""
    if isinstance(value, np.ndarray):
        return value.dtype.str, value.shape, value.tobytes()
    return float(value).hex()


def _assert_state_bitwise(batch_state, serial_state):
    """Every field bit for bit. ``np.testing.assert_array_equal`` would
    accept ``0.0`` for ``-0.0`` and any NaN for any NaN, so the bit
    patterns are compared instead."""
    for field in dataclasses.fields(serial_state):
        assert (_bits(getattr(batch_state, field.name))
                == _bits(getattr(serial_state, field.name))), field.name


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
        assert EVALUATION_COUNTER.evaluations == 7
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
    "linopt-reference": lambda: LinOpt(
        LinOptConfig(n_iterations=2),
        lp_backend=ReferenceSimplexBackend()),
    "linopt-highs": lambda: LinOpt(LinOptConfig(n_iterations=2),
                                   lp_backend=HighsBackend()),
    "optimal": lambda: OptimalFrozen(n_iterations=2),
    "barrier": BarrierAwarePm,
    "exhaustive": ExhaustiveSearch,
}

#: Every batch-size constant of the searchers' speculation. Set to 1,
#: each kernel call holds exactly the candidate the sequential search
#: evaluates next: the chunk-1 schedule, the reference the speculative
#: batches are held to.
SPECULATION_CONSTANTS = (
    "repro.runtime.kernel._WALK_MIN", "repro.runtime.kernel._WALK_MAX",
    "repro.pm.exhaustive._BATCH_COMBOS",
)


def _decide(chip, name, env):
    """One decision of manager ``name`` on a fixed small case."""
    n_threads, seed = (3, 23) if name == "exhaustive" else (5, 21)
    wl, asg = _pm_case(chip, n_threads, seed)
    return MANAGERS[name]().set_levels(chip, wl, asg, env,
                                       rng=np.random.default_rng(33))


def _non_kernel(stats):
    """The stats that describe the search, not its kernel schedule.

    ``state_memo_hits`` is schedule-shaped like the ``kernel_*`` stats:
    speculative rows stay in the memo, so later walks hit them only
    when the chunks reached that far ahead.
    """
    return {k: v for k, v in stats.items()
            if not k.startswith("kernel_") and k != "state_memo_hits"}


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
        "foxton", "sann", "sann-weighted", "linopt", "linopt-reference",
        "linopt-highs", "optimal", "barrier"])
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
        """Every evaluation of a decision is a kernel row or a
        state-memo hit, SAnn's greedy Foxton* start included."""
        result = _decide(small_chip, name, COST_PERFORMANCE)
        assert (result.stats["kernel_evaluations"]
                + result.stats.get("state_memo_hits", 0.0)
                >= result.evaluations)

    def test_sann_reports_cache_hits(self, small_chip):
        wl, asg = _pm_case(small_chip, 4, 25)
        result = SAnnManager(n_evaluations=150).set_levels(
            small_chip, wl, asg, COST_PERFORMANCE,
            rng=np.random.default_rng(1))
        assert result.stats["sa_cache_hits"] > 0

    def test_sann_cache_bound_does_not_change_decision(
            self, small_chip, monkeypatch):
        """A tiny memo bound may cost kernel rows, never the answer or
        its counts: SAnn counts distinct points it consumed, whether or
        not the memo still holds their states."""
        wl, asg = _pm_case(small_chip, 4, 27)
        reference = SAnnManager(n_evaluations=80).set_levels(
            small_chip, wl, asg, COST_PERFORMANCE,
            rng=np.random.default_rng(2))
        monkeypatch.setattr("repro.runtime.kernel.STATE_CACHE_CAPACITY", 4)
        bounded = SAnnManager(n_evaluations=80).set_levels(
            small_chip, wl, asg, COST_PERFORMANCE,
            rng=np.random.default_rng(2))
        assert bounded.levels == reference.levels
        _assert_state_bitwise(bounded.state, reference.state)
        assert bounded.evaluations == reference.evaluations
        assert (bounded.stats["sa_cache_hits"]
                == reference.stats["sa_cache_hits"])
        # With four live entries nearly every revisit re-evaluates.
        assert (bounded.stats["kernel_evaluations"]
                > reference.stats["kernel_evaluations"])


def _walk_case(chip):
    """A kernel whose top-level row runs away, and distinct level rows
    that converge on it: ``(kernel factory, good rows, failing row)``."""
    wl, asg, n_levels, rng = _busy_case(chip, 8, 43)
    ceff_m = [6.0] * 8

    def make_kernel():
        return EvalKernel(chip, wl, asg, ceff_multipliers=ceff_m)

    rows = list(dict.fromkeys(
        tuple(int(lv) for lv in row)
        for row in rng.integers(0, 3, size=(80, 8))))
    outcomes = make_kernel().evaluate_levels_batch(rows, errors="isolate")
    good = [row for row, out in zip(rows, outcomes)
            if not isinstance(out, Exception)]
    bad = tuple(int(lv) for lv in n_levels - 1)
    assert len(good) >= 40
    return make_kernel, good, bad


def _stop_at(n):
    """A walk's ``stop`` that holds on the ``n``-th state it sees."""
    seen = []

    def stop(state):
        seen.append(state)
        return len(seen) == n

    return stop


class TestStateMemoWalk:
    """``StateMemo.walk`` evaluates a candidate sequence ahead, in
    chunks, and returns exactly the prefix a one-at-a-time loop would
    have consumed."""

    @pytest.fixture(scope="class")
    def case(self, small_chip):
        return _walk_case(small_chip)

    def test_stop_prefix(self, case):
        make_kernel, good, _ = case
        seen = []

        def stop(state):
            seen.append(state)
            return len(seen) == 6

        pulled = []

        def candidates():
            for row in good[:12]:
                pulled.append(row)
                yield row

        states = StateMemo(make_kernel()).walk(candidates(), stop)
        assert len(states) == 6
        assert [id(s) for s in seen] == [id(s) for s in states]
        reference = make_kernel().evaluate_levels_batch(good[:6])
        for got, want in zip(states, reference):
            _assert_state_bitwise(got, want)
        # Chunks of 2 then 4: nothing is drawn past the second chunk.
        assert len(pulled) == 6
        # Without a stop the walk consumes every candidate.
        memo = StateMemo(make_kernel())
        assert len(memo.walk(good[:12], lambda state: False)) == 12
        assert memo.walk([], lambda state: True) == []

    def test_failure_past_the_stop_never_surfaces(self, case):
        make_kernel, good, bad = case
        memo = StateMemo(make_kernel())
        # Chunks [0, 1] and [2, 3, bad, 5]; the walk stops at 2.
        rows = good[:4] + [bad] + good[4:6]
        states = memo.walk(rows, _stop_at(3))
        assert len(states) == 3
        assert memo.kernel.stats.batch_size_hist == {2: 1, 4: 1}
        assert bad not in memo.states

    def test_reached_failure_raises_the_kernel_error(self, case):
        make_kernel, good, bad = case
        with pytest.raises(ThermalRunawayError) as want:
            make_kernel().evaluate_levels(bad)
        memo = StateMemo(make_kernel())
        seen = []
        with pytest.raises(ThermalRunawayError) as got:
            memo.walk(good[:3] + [bad] + good[3:5],
                      lambda state: seen.append(state) is not None)
        assert str(got.value) == str(want.value)
        assert len(seen) == 3
        assert bad not in memo.states

    def test_chunk_growth_and_reset(self, case):
        make_kernel, good, _ = case
        memo = StateMemo(make_kernel())
        hist = memo.kernel.stats.batch_size_hist
        never = lambda state: False  # noqa: E731
        # No stop: 2, 4, 8 (the cap) and a short last chunk of the
        # remaining 6.
        assert _WALK_MAX == 8
        assert len(memo.walk(good[:20], never)) == 20
        assert hist == {2: 1, 4: 1, 8: 1, 6: 1}
        # The next walk continues at the cap; a stop at chunk index 1
        # makes the next chunk 3.
        states = memo.walk(good[20:], _stop_at(2))
        assert len(states) == 2
        assert hist[8] == 2
        calls = memo.kernel.stats.batch_calls
        assert len(memo.walk(good[28:31], never)) == 3
        assert hist[3] == 1 and memo.kernel.stats.batch_calls == calls + 1
        # Memo hits are served without a kernel row.
        rows_before = memo.kernel.stats.evaluations
        assert len(memo.walk(good[:7], never)) == 7
        assert memo.kernel.stats.evaluations == rows_before
        assert memo.hits == 7
        # A new decision starts at _WALK_MIN again.
        memo.begin_decision()
        assert memo.hits == 0 and memo.kernel.stats.batch_calls == 0
        assert len(memo.walk(good[31:36], never)) == 5
        assert memo.kernel.stats.batch_size_hist == {_WALK_MIN: 1, 3: 1}

    def test_chunk_restarts_on_a_carried_linopt_memo(self, small_chip,
                                                     monkeypatch):
        starts = []
        walk = StateMemo.walk

        def recording(self, candidates, stop):
            starts.append((self, self._chunk))
            return walk(self, candidates, stop)

        monkeypatch.setattr(StateMemo, "walk", recording)
        wl, asg = _pm_case(small_chip, 5, 21)
        for engine in (BoundedSimplexBackend, ReferenceSimplexBackend,
                       HighsBackend):
            starts.clear()
            manager = LinOpt(LinOptConfig(n_iterations=3),
                             lp_backend=engine())
            first = manager.set_levels(small_chip, wl, asg, LOW_POWER)
            memo = manager._carry
            memo._chunk = _WALK_MAX  # as a decision ending in a long
            # walk leaves it
            n_first = len(starts)
            manager.set_levels(small_chip, wl, asg, LOW_POWER,
                               initial_levels=first.levels,
                               initial_state=first.state)
            assert manager._carry is memo
            assert n_first and len(starts) > n_first
            assert starts[n_first] == (memo, _WALK_MIN)

    def test_foxton_pointer_on_a_reached_failure(self, small_chip,
                                                 monkeypatch):
        """A step-up that fails where the walk reaches it raises, and
        the round-robin pointer has moved past it as the chunk-1
        schedule's has."""
        wl, asg = _pm_case(small_chip, 5, 21)
        env = PowerEnvironment("roomy", 1e6, 1e6)
        start = [0] * 5
        real = EvalKernel.evaluate_levels_batch

        def decide(poisoned):
            def evaluate_levels_batch(self, levels_matrix,
                                      errors="raise"):
                out = real(self, levels_matrix, errors="isolate")
                for b, row in enumerate(levels_matrix):
                    if tuple(int(lv) for lv in row) == poisoned:
                        out[b] = RuntimeError(f"diverged at {poisoned}")
                if errors == "raise":
                    for item in out:
                        if isinstance(item, Exception):
                            raise item
                return out

            manager = FoxtonStar()
            with monkeypatch.context() as patch:
                patch.setattr(EvalKernel, "evaluate_levels_batch",
                              evaluate_levels_batch)
                with pytest.raises(RuntimeError, match="diverged"):
                    manager.set_levels(small_chip, wl, asg, env,
                                       initial_levels=start)
            return manager._pointer

        poisoned = (1, 1, 1, 1, 0)  # the fourth step-up from all-zero
        speculative = decide(poisoned)
        for constant in SPECULATION_CONSTANTS:
            monkeypatch.setattr(constant, 1)
        assert speculative == decide(poisoned) == 4


def _pm_calls(tree):
    """``(line, passes errors="isolate")`` of every
    ``evaluate_levels_batch`` call in ``tree``."""
    for node in ast.walk(tree):
        if (isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "evaluate_levels_batch"):
            yield node.lineno, any(
                kw.arg == "errors" and isinstance(kw.value, ast.Constant)
                and kw.value.value == "isolate" for kw in node.keywords)


def test_speculation_goes_through_the_memo_walk():
    """Under ``repro.pm`` only exhaustive enumeration hands rows to the
    kernel itself, and nothing isolates errors: every speculative
    search runs through ``StateMemo.walk``."""
    pm = (pathlib.Path(__file__).resolve().parents[1]
          / "src" / "repro" / "pm")
    offenders = [
        f"{path.name}:{line}"
        for path in sorted(pm.rglob("*.py"))
        for line, isolate in _pm_calls(ast.parse(path.read_text()))
        if isolate or path.name != "exhaustive.py"]
    assert offenders == []
    assert list(_pm_calls(ast.parse((pm / "exhaustive.py").read_text())))


class _Crashing(PowerManager):
    """A manager that always raises (drives the resilience chain)."""

    name = "crashing"

    def set_levels(self, *args, **kwargs):
        raise RuntimeError("crashed")


def _contract_manager(name):
    """``(manager, resilience tier it must decide at or None)``."""
    if name == "resilient-tier0":
        return ResilientManager(primary=LinOpt(LinOptConfig(
            n_iterations=2))), 0
    if name == "resilient-tier1":
        manager = ResilientManager(primary=LinOpt(LinOptConfig(
            n_iterations=2)))
        manager.inject_failure(MANAGER_ERROR)
        return manager, 1
    if name == "resilient-tier2":
        return ResilientManager(primary=_Crashing(),
                                fallback=_Crashing()), 2
    return MANAGERS[name](), None


class TestPmResultStateContract:
    """``PmResult.state`` is ``evaluate_levels`` of ``result.levels`` at
    the call's multipliers, bit for bit, or else the very
    ``initial_state`` object passed in. The simulation stepper adopts
    any other state as its own evaluation of the decision."""

    @pytest.mark.parametrize("warm", [False, True], ids=["cold", "stale"])
    @pytest.mark.parametrize("name", [
        "linopt", "foxton", "sann", "exhaustive", "optimal", "barrier",
        "resilient-tier0", "resilient-tier1", "resilient-tier2"])
    def test_state_is_the_decision_evaluated(self, small_chip, name,
                                             warm):
        n_threads, seed = (3, 23) if name == "exhaustive" else (5, 21)
        wl, asg = _pm_case(small_chip, n_threads, seed)
        rng = np.random.default_rng(seed)
        phase = dict(ipc_multipliers=rng.uniform(0.6, 1.4, n_threads),
                     ceff_multipliers=rng.uniform(0.6, 1.4, n_threads))
        kwargs = dict(phase)
        stale = None
        if warm:
            # Evaluated at unit multipliers: stale for this call, as
            # the stepper's state is across a phase change.
            start = [4] * n_threads
            stale = evaluate_levels(small_chip, wl, asg, start)
            kwargs.update(initial_levels=start, initial_state=stale)
        manager, tier = _contract_manager(name)
        result = manager.set_levels(small_chip, wl, asg, LOW_POWER,
                                    rng=np.random.default_rng(33),
                                    **kwargs)
        if tier is not None:
            assert result.resilience_tier == tier
        if stale is not None and result.state is stale:
            return
        _assert_state_bitwise(result.state, evaluate_levels(
            small_chip, wl, asg, list(result.levels), **phase))

    def test_foxton_hands_back_the_warm_start(self, small_chip):
        """The "or else": at the top levels under an unbounded budget
        Foxton* has nothing to change and returns the warm-start state
        object itself, stale or not."""
        wl, asg = _pm_case(small_chip, 3, 5)
        top = [small_chip.cores[c].vf_table.n_levels - 1
               for c in asg.core_of]
        stale = evaluate_levels(small_chip, wl, asg, top)
        result = FoxtonStar().set_levels(
            small_chip, wl, asg, PowerEnvironment("unbounded", 1e6, 1e6),
            initial_levels=top, initial_state=stale,
            ipc_multipliers=np.full(3, 0.8))
        assert result.state is stale


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
        fit_power_lines(EvalKernel(small_chip, wl, asg), temps, n_voltages,
                        sensor, center_levels=[4, 4], span_levels=2)
        assert sensor.reads == expected * asg.n_threads

    def test_narrow_window_collapses_duplicates(self, small_chip):
        wl, asg = _pm_case(small_chip, 2, 29)
        temps = np.full(small_chip.n_cores, 350.0)
        sensor = self.CountingPowerSensor()
        # Window 0..1 has two levels: even 5 requested points collapse.
        fit_power_lines(EvalKernel(small_chip, wl, asg), temps, 5,
                        sensor, center_levels=[0, 0], span_levels=1)
        assert sensor.reads == 2 * asg.n_threads

    def test_local_fit_matches_window_polyfit(self, small_chip):
        """n_voltages=2 fits exactly the window's two endpoints."""
        wl, asg = _pm_case(small_chip, 2, 29)
        temps = np.full(small_chip.n_cores, 350.0)
        fit = fit_power_lines(EvalKernel(small_chip, wl, asg), temps, 2,
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
    sum of the serial ``np.mean``. Both hold with the result written
    through ``out=`` into a strided view of the kernel's per-segment
    buffer, and a row's result does not depend on the other rows of the
    call — what lets the kernel tabulate the first iterate's leakage in
    one call and look rows up later. A numpy or BLAS upgrade that
    breaks any of this fails here by name, not as a digest mismatch.
    """

    @staticmethod
    def _assert_out_and_row_independent(fn, operand, expected):
        """``fn(operand, out=strided)`` and each one-row call
        ``fn(operand[b:b + 1])`` reproduce ``expected`` row by row."""
        rows, n_g = expected.shape
        out = np.empty((rows, n_g + 3))[:, 2:2 + n_g]
        fn(operand, out=out)
        np.testing.assert_array_equal(out, expected)
        for b in range(rows):
            np.testing.assert_array_equal(fn(operand[b:b + 1])[0],
                                          expected[b])

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
        self._assert_out_and_row_independent(
            lambda v, **kw: np.vecdot(shared, v, **kw), view,
            np.vecdot(shared, view))

    @pytest.mark.parametrize("size", SIZES)
    def test_axis2_reduce_matches_per_row_reduce(self, size):
        _, view, segs = self._packed(size, 1000 + size)
        sums = np.add.reduce(view, axis=2)
        np.testing.assert_array_equal(
            sums, [[np.add.reduce(s) for s in row] for row in segs])
        np.testing.assert_array_equal(
            sums / size, [[np.mean(s) for s in row] for row in segs])
        self._assert_out_and_row_independent(
            lambda v, **kw: np.add.reduce(v, axis=2, **kw), view, sums)

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

    #: Row widths of the columnar reductions: every thread count of the
    #: 20-core die and beyond, the fleet die's L2 blocks and the
    #: Fig 4(a) analysis's apps among them.
    WIDTHS = range(1, 41)

    def test_widths_cover_the_fleet_analysis(self):
        assert len(build_floorplan(FLEET_ARCH).l2_blocks) in self.WIDTHS
        assert len(SPEC_APPS) in self.WIDTHS

    @pytest.mark.parametrize("width", WIDTHS)
    def test_row_totals_match_per_row_sums(self, width):
        """``a[:, k:].sum(axis=1)[b]`` is ``a[b, k:].sum()``, and
        ``(x.sum(axis=1) + y.sum(axis=1)) + z`` is ``float(x[b].sum() +
        y[b].sum()) + z[b]``: the kernel's row totals are the serial
        ones, by ``float.hex``."""
        rng = np.random.default_rng(3000 + width)
        rows, n_cores = 6, 3
        powers = rng.lognormal(0.0, 3.0, size=(rows, n_cores + width))
        core_dyn, core_leak = rng.lognormal(0.0, 3.0,
                                            size=(2, rows, width))
        l2_power, total = _row_totals(powers, n_cores, core_dyn, core_leak)
        for b in range(rows):
            l2_serial = float(powers[b, n_cores:].sum())
            total_serial = (float(core_dyn[b].sum() + core_leak[b].sum())
                            + l2_serial)
            assert float(l2_power[b]).hex() == l2_serial.hex()
            assert float(total[b]).hex() == total_serial.hex()

    @pytest.mark.parametrize("width", WIDTHS)
    def test_axis2_mean_matches_per_row_mean(self, width):
        """``powers.mean(axis=2)`` of a contiguous ``(cores, dies,
        apps)`` stack is each row's serial ``np.mean``."""
        rng = np.random.default_rng(4000 + width)
        powers = rng.lognormal(0.0, 3.0, size=(3, 5, width))
        means = powers.mean(axis=2)
        assert ([[float(m).hex() for m in row] for row in means]
                == [[float(np.mean(powers[c, d])).hex() for d in range(5)]
                    for c in range(3)])


@pytest.fixture(scope="module")
def distinct_chips():
    """Three daemon-shape 4-core dies."""
    batch = DieBatch(DEFAULT_TECH, DISTINCT_ARCH, n_dies=3, seed=5)
    return characterize_dies(batch.dies_for(range(3)), DEFAULT_TECH,
                             DISTINCT_ARCH)


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
    """Row ``b`` equals the serial evaluation on ``chips[b]`` (under
    ``wl``, or ``wl[b]`` for per-row workloads), exceptions included;
    the case must exercise both outcomes."""
    wls = [wl] * len(results) if isinstance(wl, Workload) else wl
    n_err = 0
    for chip, wl, row, item in zip(chips, wls, matrix, results):
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


class TestPerRowWorkloads:
    """Rows may repeat a die object and run a workload of their own."""

    N_ROWS = 9

    @pytest.fixture
    def rows(self, distinct_chips):
        """Nine rows over three distinct dies, every die repeated, one
        workload per row; all four cores busy."""
        rng = np.random.default_rng(23)
        chips = [distinct_chips[k] for k in (0, 1, 0, 2, 1, 0, 2, 2, 1)]
        wls = [make_workload(4, rng) for _ in range(self.N_ROWS)]
        asg = Assignment(core_of=(2, 0, 3, 1))
        return chips, wls, asg, rng

    def test_rows_match_serial(self, rows):
        chips, wls, asg, rng = rows
        kernel = EvalKernel(chips, wls, asg)
        assert kernel.n_dies == self.N_ROWS
        assert kernel._vth.shape[0] == 3        # one pack per distinct die
        matrix = rng.integers(0, 3, size=(self.N_ROWS, 4))
        states = kernel.evaluate_levels_fleet(matrix)
        for chip, wl, row, state in zip(chips, wls, matrix, states):
            _assert_state_bitwise(
                state, evaluate_levels(chip, wl, asg, list(row)))

    def test_isolate_and_raise_with_runaway_row(self, rows):
        chips, wls, asg, rng = rows
        ceff_m = [10.0] * 4
        kernel = EvalKernel(chips, wls, asg, ceff_multipliers=ceff_m)
        max_lv = min(chips[0].cores[c].vf_table.n_levels
                     for c in asg.core_of)
        matrix = rng.integers(0, max_lv // 2, size=(self.N_ROWS, 4))
        matrix[4] = max_lv - 1                   # runs away
        results = kernel.evaluate_levels_fleet(matrix, errors="isolate")
        _assert_rows_match_serial(results, chips, wls, asg, matrix,
                                  ceff_m)
        first_error = next(r for r in results if isinstance(r, Exception))
        with pytest.raises(type(first_error),
                           match=re.escape(str(first_error))):
            kernel.evaluate_levels_fleet(matrix)

    def test_repeated_single_die_keeps_shared_pack(self, distinct_chips):
        rng = np.random.default_rng(3)
        wls = [make_workload(2, rng) for _ in range(4)]
        asg = Assignment(core_of=(1, 3))
        kernel = EvalKernel([distinct_chips[0]] * 4, wls, asg)
        assert kernel._vth.ndim == 1
        for wl, state in zip(wls, kernel.evaluate_levels_fleet((1, 2))):
            _assert_state_bitwise(
                state, evaluate_levels(distinct_chips[0], wl, asg, (1, 2)))

    def test_rejects_bad_workload_counts(self, distinct_chips):
        rng = np.random.default_rng(4)
        asg = Assignment(core_of=(0, 1))
        two, three = make_workload(2, rng), make_workload(3, rng)
        with pytest.raises(ValueError, match="one workload per die"):
            EvalKernel(distinct_chips[:2], [two], asg)
        with pytest.raises(ValueError, match="one workload per die"):
            EvalKernel(distinct_chips[0], [two, two], asg)
        with pytest.raises(ValueError, match="one workload per die"):
            EvalKernel(distinct_chips[:2], [], asg)
        with pytest.raises(ValueError, match="sizes differ"):
            EvalKernel(distinct_chips[:2], [two, three], asg)
        with pytest.raises(ValueError, match="sizes differ"):
            EvalKernel(distinct_chips[:2], three, asg)

    @staticmethod
    def _runaway_matrix(chips, asg, rng, n_rows, runaway):
        """Low random levels, every thread at its top level on the
        ``runaway`` rows (which run away under a 10x Ceff)."""
        max_lv = min(chips[0].cores[c].vf_table.n_levels
                     for c in asg.core_of)
        matrix = rng.integers(0, max_lv // 2, size=(n_rows, 4))
        matrix[runaway] = max_lv - 1
        return matrix

    def test_columns_read_as_a_sequence(self, rows):
        """``len``, iteration order, negative indices, slices and the
        exception slot under ``errors="isolate"``."""
        chips, wls, asg, rng = rows
        n = self.N_ROWS
        kernel = EvalKernel(chips, wls, asg, ceff_multipliers=[10.0] * 4)
        matrix = self._runaway_matrix(chips, asg, rng, n, [4])
        cols = kernel.evaluate_levels_fleet(matrix, errors="isolate")
        assert len(cols) == n
        listed = list(cols)
        assert len(listed) == n
        assert 4 in cols.errors
        assert sorted(cols.errors) == [
            d for d, item in enumerate(listed) if isinstance(item, Exception)]
        for d in range(n):
            _assert_same_outcome(cols[d], listed[d])
            _assert_same_outcome(cols[d - n], listed[d])
        assert cols[4] is cols.errors[4] is cols[-5]
        for got, want in zip(cols[1:8:3], listed[1:8:3]):
            _assert_same_outcome(got, want)
        for bad in (n, -n - 1):
            with pytest.raises(IndexError):
                cols[bad]
        _assert_rows_match_serial(listed, chips, wls, asg, matrix,
                                  [10.0] * 4)

    def test_row_reads_are_independent_copies(self, rows):
        """Reading a row twice gives equal states with their own arrays;
        writing one never reaches the columns."""
        chips, wls, asg, rng = rows
        cols = EvalKernel(chips, wls, asg).evaluate_levels_fleet(
            rng.integers(0, 3, size=(self.N_ROWS, 4)))
        first, second = cols[3], cols[3]
        _assert_state_bitwise(first, second)
        for field in dataclasses.fields(first):
            value = getattr(first, field.name)
            if isinstance(value, np.ndarray):
                assert value is not getattr(second, field.name)
                assert not np.shares_memory(value,
                                            getattr(cols, field.name))
                value[...] = -1.0
        _assert_state_bitwise(cols[3], second)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_failed_rows_in_each_slab_stay_out_of_the_totals(
            self, rows, monkeypatch):
        """A two-slab fleet call with a runaway row in each slab: the
        failed rows hold the ambient temperature and zero L2 power, not
        uninitialised memory, so the row totals stay finite and no
        warning fires; every other row is the serial evaluation."""
        chips, wls, asg, rng = rows
        cells = _CellLayout(chips[0], asg.core_of).cell_bounds[-1]
        monkeypatch.setattr(kernel_module, "_SLAB_CELLS", 5 * cells)
        kernel = EvalKernel(chips, wls, asg, ceff_multipliers=[10.0] * 4)
        assert kernel._slab_rows == 5 < self.N_ROWS
        matrix = self._runaway_matrix(chips, asg, rng, self.N_ROWS, [1, 7])
        cols = kernel.evaluate_levels_fleet(matrix, errors="isolate")
        failed = sorted(cols.errors)
        assert {1, 7} <= set(failed)
        assert (cols.l2_power[failed] == 0.0).all()
        assert (cols.block_temps[failed]
                == chips[0].thermal.ambient_k).all()
        assert np.isfinite(cols.total_power).all()
        _assert_rows_match_serial(list(cols), chips, wls, asg, matrix,
                                  [10.0] * 4)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_rows_at_the_iteration_cap_fail_in_slot(self, rows,
                                                    monkeypatch):
        """Rows still iterating at the cap fail in slot with the serial
        error and the cap as their iteration count, and hold the same
        finite placeholders as diverged rows."""
        chips, wls, asg, rng = rows
        monkeypatch.setattr(kernel_module, "MAX_ITERATIONS", 2)
        kernel = EvalKernel(chips, wls, asg)
        matrix = rng.integers(0, 3, size=(self.N_ROWS, 4))
        cols = kernel.evaluate_levels_fleet(matrix, errors="isolate")
        assert sorted(cols.errors) == list(range(self.N_ROWS))
        for item in cols:
            assert type(item) is RuntimeError
            assert "within 2 iterations" in str(item)
        assert kernel.stats.fixed_point_iterations == 2 * self.N_ROWS
        assert (cols.l2_power == 0.0).all()
        assert (cols.block_temps == chips[0].thermal.ambient_k).all()
        assert np.isfinite(cols.total_power).all()
        with pytest.raises(RuntimeError, match="within 2 iterations"):
            kernel.evaluate_levels_fleet(matrix)


def _assert_same_outcome(a, b):
    """Both the same exception, or bitwise-equal states."""
    if isinstance(a, Exception) or isinstance(b, Exception):
        assert type(a) is type(b) and str(a) == str(b)
    else:
        _assert_state_bitwise(a, b)


def _serial_outcome(chip, wl, asg, row, **multipliers):
    """The serial evaluation of ``row``: its state, or its exception."""
    try:
        return evaluate_levels(chip, wl, asg, list(row), **multipliers)
    except Exception as exc:  # noqa: BLE001 — parity check
        return exc


def _busy_case(chip, n_threads, seed):
    """(workload, assignment, per-thread level counts, rng)."""
    rng = np.random.default_rng(seed)
    wl = make_workload(n_threads, rng)
    asg = Assignment(core_of=tuple(
        int(c) for c in rng.permutation(chip.n_cores)[:n_threads]))
    n_levels = np.array([chip.cores[c].vf_table.n_levels
                         for c in asg.core_of])
    return wl, asg, n_levels, rng


class TestAmbientTable:
    """A one-die kernel looks iteration 1's leakage up in a table built
    at the ambient; every row stays bitwise the serial evaluation."""

    @pytest.fixture(params=["chip", "small_chip"])
    def die(self, request):
        return request.getfixturevalue(request.param)

    def test_table_is_the_serial_ambient_leakage(self, die):
        """Two cores idle: their blocks leak nothing at iteration 1."""
        wl, asg, n_levels, _ = _busy_case(die, die.n_cores - 2, 60)
        kernel = EvalKernel(die, wl, asg)
        core, base = kernel._ambient_leak
        ambient = np.full(die.thermal.n_blocks, die.thermal.ambient_k)
        for i, c in enumerate(asg.core_of):
            table = die.cores[c].vf_table
            assert [core[lv, i].hex() for lv in range(n_levels[i])] == [
                die.cores[c].leakage.power(table.voltages[lv],
                                           ambient[c]).hex()
                for lv in range(n_levels[i])]
        idle = sorted(set(range(die.n_cores)) - set(asg.core_of))
        assert base[idle].tolist() == [0.0, 0.0]
        assert (base[asg.core_of,].tobytes()
                == np.zeros(len(asg.core_of)).tobytes())
        assert (base[die.n_cores:].tobytes() == die.l2_leakage
                .power_per_block(ambient[die.n_cores:]).tobytes())

    @pytest.mark.parametrize("phases", [False, True],
                             ids=["flat", "phases"])
    def test_every_level_and_random_rows_match_serial(self, die, phases):
        """Row ``l`` puts every thread at level ``l`` (capped at its
        core's top level); random rows follow."""
        n = die.n_cores
        wl, asg, n_levels, rng = _busy_case(die, n, 61)
        multipliers = {}
        if phases:
            multipliers = {
                "ipc_multipliers": rng.uniform(0.6, 1.4, size=n),
                "ceff_multipliers": rng.uniform(0.6, 1.2, size=n)}
        kernel = EvalKernel(die, wl, asg, **multipliers)
        uniform = np.minimum.outer(np.arange(n_levels.max()),
                                   n_levels - 1)
        matrix = np.vstack([uniform,
                            rng.integers(0, n_levels, size=(6, n))])
        results = kernel.evaluate_levels_batch(matrix, errors="isolate")
        for row, item in zip(matrix, results):
            _assert_same_outcome(
                item, _serial_outcome(die, wl, asg, row, **multipliers))
        converged = sum(not isinstance(r, Exception) for r in results)
        assert converged > len(matrix) // 2

    def test_fleet_kernels_have_no_table(self, chip, chip2):
        wl, asg, _, _ = _busy_case(chip, 3, 62)
        assert EvalKernel([chip, chip2], wl, asg)._ambient_leak is None
        assert EvalKernel([chip, chip], wl, asg)._ambient_leak is not None


class TestGuardPaths:
    """Each slab-wide guard drops exactly the rows its per-row test
    drops, with the serial exception, under both error modes."""

    @staticmethod
    def _check(kernel, chip, wl, asg, matrix, **multipliers):
        """The batch equals the serial outcomes row by row; returns
        them."""
        serial = [_serial_outcome(chip, wl, asg, row, **multipliers)
                  for row in matrix]
        isolated = kernel.evaluate_levels_batch(matrix, errors="isolate")
        assert len(isolated) == len(serial)
        for item, ref in zip(isolated, serial):
            _assert_same_outcome(item, ref)
        first = next((r for r in serial if isinstance(r, Exception)), None)
        if first is None:
            for item, ref in zip(kernel.evaluate_levels_batch(matrix),
                                 serial):
                _assert_state_bitwise(item, ref)
        else:
            with pytest.raises(type(first), match=re.escape(str(first))):
                kernel.evaluate_levels_batch(matrix)
        return serial

    def test_one_row_runaway(self, small_chip):
        wl, asg, n_levels, _ = _busy_case(small_chip, 8, 42)
        ceff_m = [40.0] * 8
        kernel = EvalKernel(small_chip, wl, asg, ceff_multipliers=ceff_m)
        serial = self._check(kernel, small_chip, wl, asg,
                             [n_levels - 1], ceff_multipliers=ceff_m)
        assert isinstance(serial[0], ThermalRunawayError)

    def test_runaway_rows_among_rows_converging_at_different_iterations(
            self, small_chip):
        wl, asg, n_levels, rng = _busy_case(small_chip, 8, 43)
        ceff_m = [6.0] * 8
        kernel = EvalKernel(small_chip, wl, asg, ceff_multipliers=ceff_m)
        matrix = rng.integers(0, 3, size=(10, 8))
        matrix[[0, 4, 7]] = n_levels - 1
        matrix[5] = np.minimum(n_levels - 1, 4)
        serial = self._check(kernel, small_chip, wl, asg, matrix,
                             ceff_multipliers=ceff_m)
        failed = [isinstance(r, Exception) for r in serial]
        assert failed[0] and failed[4] and failed[7] and not all(failed)
        iterations = set()
        for row, bad in zip(matrix, failed):
            if not bad:
                single = EvalKernel(small_chip, wl, asg,
                                    ceff_multipliers=ceff_m)
                single.evaluate_levels(row)
                iterations.add(single.stats.fixed_point_iterations)
        assert len(iterations) > 1

    def test_batch_wider_than_a_slab(self, chip):
        """Every core of the 20-core die busy: 16 rows per slab, so 21
        rows span two, with runaway rows in both."""
        wl, asg, n_levels, rng = _busy_case(chip, 20, 44)
        ceff_m = [4.0] * 20
        kernel = EvalKernel(chip, wl, asg, ceff_multipliers=ceff_m)
        matrix = rng.integers(0, 4, size=(kernel._slab_rows + 5, 20))
        matrix[[3, kernel._slab_rows + 2]] = n_levels - 1
        serial = self._check(kernel, chip, wl, asg, matrix,
                             ceff_multipliers=ceff_m)
        failed = [isinstance(r, Exception) for r in serial]
        assert failed[3] and failed[kernel._slab_rows + 2]
        assert sum(failed) < len(failed)

    def test_non_finite_and_overflowing_powers(self, small_chip):
        """One thread's dynamic power is scaled to the edge of the
        double range. At its lowest level the first iterate runs away.
        At its top level it overflows to ``inf``: the finiteness guard
        drops the row at iteration 1. One level down the block powers
        are finite but their sum overflows, so the slab-wide test trips
        and the exact per-row test keeps the row; its solve yields a NaN
        iterate, which the runaway guard's per-row test ignores as the
        serial comparison does, and the row fails at iteration 2."""
        wl, asg, n_levels, _ = _busy_case(small_chip, 4, 45)
        table = small_chip.cores[asg.core_of[0]].vf_table
        dyn = wl[0].ceff * table.voltages ** 2 * table.freqs
        top = n_levels[0] - 1
        ceff_m = [1.0] * 4
        ceff_m[0] = 1.7e308 / dyn[top - 1]
        matrix = np.zeros((3, 4), dtype=int)
        matrix[:, 0] = [0, top - 1, top]
        with np.errstate(over="ignore", invalid="ignore"):
            kernel = EvalKernel(small_chip, wl, asg,
                                ceff_multipliers=ceff_m)
            core_dyn = kernel._tabs[3, 0, 0]
            assert np.isfinite(core_dyn[top - 1])
            assert np.isinf(core_dyn[top - 1] * (1 + L2_DYNAMIC_FRACTION))
            assert np.isinf(core_dyn[top])
            serial = self._check(kernel, small_chip, wl, asg, matrix,
                                 ceff_multipliers=ceff_m)
            iterations = []
            for row in matrix:
                single = EvalKernel(small_chip, wl, asg,
                                    ceff_multipliers=ceff_m)
                single.evaluate_levels_batch([row], errors="isolate")
                iterations.append(single.stats.fixed_point_iterations)
        assert [str(r).split(":")[0] for r in serial] == [
            f"block temperature exceeded {RUNAWAY_TEMP_K} K",
            "leakage diverged before the temperature did",
            "leakage diverged before the temperature did"]
        assert iterations == [1, 2, 1]

    def test_sann_decision_counters_pinned(self, chip):
        """A 20-thread SAnn decision on the 20-core die does exactly the
        work it did when every row computed its first iterate: the same
        evaluations and fixed-point iterations, recorded from that
        kernel. The row counts depend on the memo walk's chunk
        schedule, so a change to that schedule re-pins them."""
        rng = np.random.default_rng(31)
        wl = make_workload(20, rng)
        asg = Assignment(core_of=tuple(
            int(c) for c in rng.permutation(chip.n_cores)))
        result = SAnnManager(n_evaluations=120).set_levels(
            chip, wl, asg, COST_PERFORMANCE, rng=np.random.default_rng(5))
        assert result.stats["kernel_evaluations"] == 1155.0
        assert result.stats["kernel_fp_iterations"] == 11091.0
        assert result.evaluations == 1082
