"""Tests for repro.experiments.common and the shared runners."""

import numpy as np
import pytest

from repro.config import COST_PERFORMANCE
from repro.experiments.common import (
    ChipFactory,
    default_n_dies,
    default_n_trials,
    format_rows,
    histogram,
    normalise,
)
from repro.experiments.pm_runner import (
    AlgorithmSpec,
    run_pm_comparison,
    standard_algorithms,
)
from repro.experiments.sched_runner import run_policy_comparison
from repro.pm import FoxtonStar
from repro.runtime.evaluation import evaluate_max_levels
from repro.sched import RandomPolicy, VarF, VarP


class _VarFNamedVarP(VarF):
    name = "VarP"


#: (method indices, n_trials, n_dies, error match) of comparisons the
#: shared trial loop must refuse before measuring anything.
BAD_COMPARISONS = pytest.mark.parametrize(
    "picks, n_trials, n_dies, match", [
        ((0, 1, 2), 1, 1, "distinct"),
        ((0, 1), 0, 1, "n_trials"),
        ((0, 1), 1, 0, "n_dies"),
    ], ids=["duplicate-name", "no-trials", "no-dies"])


class TestChipFactory:
    def test_chip_is_cached(self):
        factory = ChipFactory(seed=5)
        assert factory.chip(0) is factory.chip(0)

    def test_chips_prefix(self):
        factory = ChipFactory(seed=5)
        chips = factory.chips(2)
        assert len(chips) == 2
        assert chips[0].die_id == 0
        assert chips[1].die_id == 1

    def test_same_seed_same_chips(self):
        a = ChipFactory(seed=7).chip(0)
        b = ChipFactory(seed=7).chip(0)
        np.testing.assert_array_equal(a.fmax_array, b.fmax_array)

    def test_different_seed_differs(self):
        a = ChipFactory(seed=7).chip(0)
        b = ChipFactory(seed=8).chip(0)
        assert not np.array_equal(a.fmax_array, b.fmax_array)

    def test_batch_grows_without_invalidating(self):
        factory = ChipFactory(seed=9)
        first = factory.chip(0)
        factory.chips(3)
        assert factory.chip(0) is first

    def test_incremental_growth_matches_full_batch(self):
        """chip(i) must not depend on how the die batch was requested.

        Dies are seeded independently, so dies characterised one at a
        time must equal the same dies from one batch of 8.
        """
        incremental = ChipFactory(seed=11)
        inc_first = incremental.chip(0)          # batch of 1
        inc_last = incremental.chip(2)           # another batch of 1
        full = ChipFactory(seed=11).chips(8)     # batch of 8 up front
        np.testing.assert_array_equal(inc_first.fmax_array,
                                      full[0].fmax_array)
        np.testing.assert_array_equal(inc_last.fmax_array,
                                      full[2].fmax_array)
        np.testing.assert_array_equal(inc_first.static_rated_array,
                                      full[0].static_rated_array)


class TestFormatting:
    def test_format_rows_alignment(self):
        table = format_rows(["a", "long-header"],
                            [[1, 2.0], [333, 4.5]], "Title")
        lines = table.splitlines()
        assert lines[0] == "Title"
        assert "long-header" in lines[1]
        assert "333" in lines[4]

    def test_format_rows_empty(self):
        table = format_rows(["x"], [])
        assert "x" in table

    def test_format_rows_numpy_scalars(self):
        """np.float32/np.float64/np.integer format like builtins."""
        table = format_rows(
            ["a", "b", "c", "d", "e"],
            [[np.float32(1.5), np.float64(2.5), np.int32(3), 4, 5.0]])
        cells = table.splitlines()[-1].split()
        assert cells == ["1.500", "2.500", "3", "4", "5.000"]

    def test_format_rows_non_numeric_cells(self):
        table = format_rows(["name", "ok"], [["foxton", True]])
        assert "foxton" in table
        assert "True" in table

    def test_histogram(self):
        counts, edges = histogram(np.array([1.0, 1.1, 1.2, 1.9]),
                                  n_bins=3)
        assert counts.sum() == 4
        assert edges.size == 4

    def test_histogram_rejects_empty(self):
        with pytest.raises(ValueError):
            histogram(np.array([]))

    def test_full_run_env(self, monkeypatch):
        monkeypatch.delenv("REPRO_FULL", raising=False)
        assert (default_n_dies(), default_n_trials()) == (30, 8)
        monkeypatch.setenv("REPRO_FULL", "1")
        assert (default_n_dies(), default_n_trials()) == (200, 20)
        monkeypatch.setenv("REPRO_FULL", "false")
        assert (default_n_dies(), default_n_trials()) == (30, 8)


class TestNormalise:
    def test_means_are_in_order_running_sums(self):
        table = np.random.default_rng(0).uniform(0.5, 2.0, size=(11, 3, 4))
        means = normalise(table, ["a", "b", "c"], "b")
        total = 0.0
        for trial in table:  # 11 trials: past numpy's pairwise cut-off
            total = total + trial[2] / trial[1]
        assert np.array_equal(means["c"], total / 11)
        assert np.array_equal(means["b"], np.ones(4))

    def test_missing_baseline_rejected(self):
        with pytest.raises(ValueError, match="not among"):
            normalise(np.ones((1, 2, 1)), ["a", "b"], "c")


class TestSchedRunner:
    def test_baseline_normalised_to_one(self):
        factory = ChipFactory(seed=0)

        def evaluate(chip, workload, assignment):
            return evaluate_max_levels(chip, workload, assignment)

        result = run_policy_comparison(
            factory, (RandomPolicy(), VarP()), evaluate,
            n_threads=4, n_trials=2, n_dies=1)
        base = result["Random"]
        assert base.power == pytest.approx(1.0)
        assert base.mips == pytest.approx(1.0)
        assert base.ed2 == pytest.approx(1.0)

    def test_missing_baseline_rejected(self):
        factory = ChipFactory(seed=0)
        with pytest.raises(ValueError):
            run_policy_comparison(
                factory, (VarP(),), evaluate_max_levels,
                n_threads=4, n_trials=1, n_dies=1)

    @BAD_COMPARISONS
    def test_bad_comparison_rejected(self, picks, n_trials, n_dies,
                                     match):
        methods = (RandomPolicy(), VarP(), _VarFNamedVarP())
        with pytest.raises(ValueError, match=match):
            run_policy_comparison(
                ChipFactory(seed=0), [methods[i] for i in picks],
                evaluate_max_levels, n_threads=4, n_trials=n_trials,
                n_dies=n_dies)


class TestPmRunner:
    def test_standard_algorithms(self):
        algos = standard_algorithms(include_sann=True)
        names = [a.name for a in algos]
        assert names == ["Random+Foxton*", "VarF&AppIPC+Foxton*",
                         "VarF&AppIPC+LinOpt", "VarF&AppIPC+SAnn"]
        assert len(standard_algorithms(include_sann=False)) == 3

    def test_static_protocol_baseline_one(self):
        factory = ChipFactory(seed=0)
        result = run_pm_comparison(
            factory, COST_PERFORMANCE, n_threads=4, n_trials=1,
            n_dies=1, protocol="static",
            algorithms=standard_algorithms(include_sann=False,
                                           online=False))
        assert result["Random+Foxton*"].mips == pytest.approx(1.0)
        assert result["VarF&AppIPC+LinOpt"].mips > 0.9

    def test_bad_protocol_rejected(self):
        factory = ChipFactory(seed=0)
        with pytest.raises(ValueError):
            run_pm_comparison(factory, COST_PERFORMANCE, 4, 1, 1,
                              protocol="banana")

    @BAD_COMPARISONS
    def test_bad_comparison_rejected(self, picks, n_trials, n_dies,
                                     match):
        methods = (AlgorithmSpec("Random+Foxton*", RandomPolicy(),
                                 FoxtonStar),
                   AlgorithmSpec("VarP+Foxton*", VarP(), FoxtonStar),
                   AlgorithmSpec("VarP+Foxton*", VarF(), FoxtonStar))
        with pytest.raises(ValueError, match=match):
            run_pm_comparison(
                ChipFactory(seed=0), COST_PERFORMANCE, n_threads=4,
                n_trials=n_trials, n_dies=n_dies,
                algorithms=[methods[i] for i in picks], protocol="static")
