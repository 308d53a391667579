"""Tests for the journaled checkpoint/resume layer (DESIGN.md §14).

Covers the :class:`~repro.parallel.RunJournal` crash-safety
mechanics (atomic appends, torn-tail replay, completeness checks),
the trial-runner integration (an interrupted campaign resumed via the
journal reproduces the uninterrupted tables bitwise, recomputing only
the missing units), and the CLI ``--resume``/``--fresh`` plumbing.
"""

from __future__ import annotations

import json

import pytest

from repro.cli import main
from repro.experiments.common import ChipFactory
from repro.experiments.sched_runner import run_policy_comparison
from repro.experiments.pm_runner import (
    AlgorithmSpec,
    run_pm_comparison,
)
from repro.parallel import (
    IncompleteJournalError,
    RunJournal,
    parallel_config,
    unit_key,
)
from repro.parallel.journal import JOURNAL_FILENAME
from repro.pm import FoxtonStar
from repro.sched import RandomPolicy, VarP
from repro.storage import AppendLog, decode_line


class TestRunJournal:
    def test_record_and_replay(self, tmp_path):
        journal = RunJournal.open(tmp_path, "figx")
        journal.record("k1", {"trial": 0}, [1.5, 2.5])
        journal.record("k2", {"trial": 1}, [3.5])
        reopened = RunJournal.open(tmp_path, "figx")
        assert len(reopened) == 2
        assert reopened.lookup("k1") == [1.5, 2.5]
        assert reopened.lookup("k2") == [3.5]
        assert reopened.lookup("absent") is None

    def test_floats_round_trip_bitwise(self, tmp_path):
        values = [0.1 + 0.2, 1e-308, 1.7976931348623157e308,
                  -0.3333333333333333]
        journal = RunJournal.open(tmp_path, "figx")
        journal.record("k", {}, values)
        replayed = RunJournal.open(tmp_path, "figx").lookup("k")
        assert all(a == b and str(a) == str(b)
                   for a, b in zip(replayed, values))

    def test_record_is_idempotent(self, tmp_path):
        journal = RunJournal.open(tmp_path, "figx")
        journal.record("k", {}, [1.0])
        size = journal.path.stat().st_size
        journal.record("k", {}, [999.0])  # no-op: already journaled
        assert journal.path.stat().st_size == size
        assert journal.lookup("k") == [1.0]

    def test_torn_tail_is_ignored_and_truncated(self, tmp_path):
        journal = RunJournal.open(tmp_path, "figx")
        journal.record("k1", {}, [1.0])
        # Simulate a crash mid-append: a partial, unterminated line.
        with open(journal.path, "ab") as handle:
            handle.write(b'{"kind": "unit", "key": "torn", "resu')
        reopened = RunJournal.open(tmp_path, "figx")
        assert len(reopened) == 1
        assert reopened.lookup("torn") is None
        # The next append truncates the torn bytes away.
        reopened.record("k2", {}, [2.0])
        lines = journal.path.read_bytes().splitlines(keepends=True)
        assert len(lines) == 2
        assert all(decode_line(line) for line in lines)

    def test_malformed_middle_line_stops_replay(self, tmp_path):
        journal = RunJournal.open(tmp_path, "figx")
        journal.record("k1", {}, [1.0])
        with open(journal.path, "ab") as handle:
            handle.write(b"not json at all\n")
            handle.write(json.dumps({"kind": "unit", "key": "k2",
                                     "unit": {}, "result": [2.0]})
                         .encode() + b"\n")
        # Nothing after the corruption point is trusted on replay…
        reopened = RunJournal.open(tmp_path, "figx")
        assert reopened.lookup("k1") == [1.0]
        assert reopened.lookup("k2") is None
        # …and the next append through the journal truncates it away.
        reopened.record("k3", {}, [3.0])
        assert [decode_line(line)["key"] for line in journal.path
                .read_bytes().splitlines(keepends=True)] == ["k1", "k3"]

    def test_bit_flipped_result_stops_replay(self, tmp_path):
        journal = RunJournal.open(tmp_path, "figx")
        journal.record("k1", {}, {"ed2": 0.5})
        journal.record("k2", {}, {"ed2": 0.123456789})
        journal.record("k3", {}, {"ed2": 0.25})
        raw = journal.path.read_bytes()
        assert raw.count(b"0.123456789") == 1
        journal.path.write_bytes(raw.replace(b"0.123456789",
                                             b"0.923456789"))
        # Replay trusts nothing from the flipped line on: the corrupt
        # unit (and every later one) is recomputed, never replayed.
        reopened = RunJournal.open(tmp_path, "figx")
        assert reopened.lookup("k1") == {"ed2": 0.5}
        assert reopened.lookup("k2") is None
        assert reopened.lookup("k3") is None
        assert len(reopened) == 1

    def test_v1_journal_is_recomputed_not_replayed(self, tmp_path):
        journal = RunJournal.open(tmp_path, "figx")
        journal.path.parent.mkdir(parents=True)
        # A journal-v1 line: plain JSON with no line checksum.
        journal.path.write_bytes(json.dumps(
            {"kind": "unit", "key": "k1", "unit": {},
             "result": [1.0]}).encode() + b"\n")
        reopened = RunJournal.open(tmp_path, "figx")
        assert len(reopened) == 0
        reopened.record("k1", {}, [2.0])
        assert RunJournal.open(tmp_path, "figx").lookup("k1") == [2.0]

    def test_require_complete(self, tmp_path):
        journal = RunJournal.open(tmp_path, "figx")
        journal.record("k1", {}, [1.0])
        journal.require_complete(["k1"])
        with pytest.raises(IncompleteJournalError, match="partial"):
            journal.require_complete(["k1", "k2"], scope="figx")

    def test_complete_markers_of_older_journals_are_skipped(self,
                                                            tmp_path):
        log = AppendLog(tmp_path / "figx" / JOURNAL_FILENAME)
        for key, scope in (("k1", "figx:nt4"), ("k2", "figx:nt8")):
            log.append({"kind": "unit", "key": key, "unit": {},
                        "result": [1.0], "t_unix_s": 0.0})
            log.append(_complete_marker(scope, 1))
        reopened = RunJournal.open(tmp_path, "figx")
        assert reopened.completed() == ["k1", "k2"]
        # Appends keep the markers and replay after them.
        reopened.record("k3", {}, [3.0])
        assert RunJournal.open(tmp_path, "figx").completed() == [
            "k1", "k2", "k3"]

    def test_bad_run_names_rejected(self, tmp_path):
        for bad in ("", ".", "..", "a/b"):
            with pytest.raises(ValueError):
                RunJournal.open(tmp_path, bad)


def _complete_marker(scope, n_units):
    """The line journals used to carry after each finished scope (one
    figure pass); replay must skip it."""
    return {"kind": "complete", "scope": scope, "n_units": n_units,
            "t_unix_s": 0.0}


class TestUnitKey:
    def test_key_sensitivity(self):
        base = unit_key(experiment="fig7", trial=0, policy="Random")
        assert unit_key(experiment="fig7", trial=0,
                        policy="Random") == base
        assert unit_key(experiment="fig8", trial=0,
                        policy="Random") != base
        assert unit_key(experiment="fig7", trial=1,
                        policy="Random") != base
        assert unit_key(experiment="fig7", trial=0, policy="VarP") != base


#: Unit keys recorded before the two runners shared one trial loop:
#: (trial 0, Random) of ``TestSchedRunnerResume``'s campaign and
#: (trial 0, Random+Foxton*) of ``TestPmRunnerResume``'s online one.
#: A drift in the key recipe orphans every journal written before it.
PINNED_SCHED_KEY = (
    "f7447f7f4716371085096a2316ad311f04727bbcb611ffc9d570a16f0e0b940a")
PINNED_PM_KEY = (
    "76d7bb2f4b42cffee8a0ac1c9e2b922958f21cc9ea0539df6504cf55bf04b081")


class _CountingEvaluate:
    """Wraps an evaluate fn; optionally raises after ``crash_after``."""

    def __init__(self, inner, crash_after=None):
        self.inner = inner
        self.calls = 0
        self.crash_after = crash_after

    def __call__(self, chip, workload, assignment):
        if (self.crash_after is not None
                and self.calls >= self.crash_after):
            raise RuntimeError("injected campaign crash")
        self.calls += 1
        return self.inner(chip, workload, assignment)


class _CountingManagers:
    """A Foxton* factory; optionally raises after ``crash_after``."""

    def __init__(self, crash_after=None):
        self.calls = 0
        self.crash_after = crash_after

    def __call__(self):
        if (self.crash_after is not None
                and self.calls >= self.crash_after):
            raise RuntimeError("injected campaign crash")
        self.calls += 1
        return FoxtonStar()


class TestSchedRunnerResume:
    N_TRIALS = 3
    POLICIES = (RandomPolicy, VarP)

    def _run(self, tech, small_arch, root, evaluate,
             experiment="figtest"):
        from repro.runtime.evaluation import evaluate_uniform_frequency
        with parallel_config(resume=True, journal_root=root):
            factory = ChipFactory(tech=tech, arch=small_arch, seed=5,
                                  workers=1, cache=None)
            return run_policy_comparison(
                factory, [cls() for cls in self.POLICIES],
                evaluate or evaluate_uniform_frequency,
                n_threads=4, n_trials=self.N_TRIALS, n_dies=2, seed=3,
                experiment=experiment)

    @pytest.fixture(scope="class")
    def reference(self, tech, small_arch):
        """Uninterrupted run, journaling off (the pre-journal path)."""
        from repro.runtime.evaluation import evaluate_uniform_frequency
        factory = ChipFactory(tech=tech, arch=small_arch, seed=5,
                              workers=1, cache=None)
        return run_policy_comparison(
            factory, [cls() for cls in self.POLICIES],
            evaluate_uniform_frequency,
            n_threads=4, n_trials=self.N_TRIALS, n_dies=2, seed=3)

    def test_journaled_run_matches_unjournaled(self, tech, small_arch,
                                               tmp_path, reference):
        from repro.runtime.evaluation import evaluate_uniform_frequency
        counting = _CountingEvaluate(evaluate_uniform_frequency)
        result = self._run(tech, small_arch, tmp_path, counting)
        assert result == reference
        assert counting.calls == self.N_TRIALS * len(self.POLICIES)
        journal = RunJournal.open(tmp_path, "figtest")
        assert len(journal) == self.N_TRIALS * len(self.POLICIES)

    def test_interrupted_campaign_resumes_bitwise(self, tech, small_arch,
                                                  tmp_path, reference):
        from repro.runtime.evaluation import evaluate_uniform_frequency
        n_units = self.N_TRIALS * len(self.POLICIES)
        crash_at = 3
        crashing = _CountingEvaluate(evaluate_uniform_frequency,
                                     crash_after=crash_at)
        with pytest.raises(RuntimeError, match="injected"):
            self._run(tech, small_arch, tmp_path, crashing)
        journal = RunJournal.open(tmp_path, "figtest")
        assert len(journal) == crash_at  # completed units survived

        # Resume: only the remaining units are recomputed, and the
        # final tables equal the uninterrupted run bitwise.
        resumed = _CountingEvaluate(evaluate_uniform_frequency)
        result = self._run(tech, small_arch, tmp_path, resumed)
        assert resumed.calls == n_units - crash_at
        assert result == reference

        # A third run replays everything from the journal.
        replay = _CountingEvaluate(evaluate_uniform_frequency)
        again = self._run(tech, small_arch, tmp_path, replay)
        assert replay.calls == 0
        assert again == reference

    def test_unit_key_is_pinned(self, tech, small_arch, tmp_path):
        self._run(tech, small_arch, tmp_path, None)
        journal = RunJournal.open(tmp_path, "figtest")
        assert PINNED_SCHED_KEY in journal.completed()

    def test_changed_parameters_miss_the_journal(self, tech, small_arch,
                                                 tmp_path, reference):
        from repro.runtime.evaluation import evaluate_uniform_frequency
        first = _CountingEvaluate(evaluate_uniform_frequency)
        self._run(tech, small_arch, tmp_path, first)
        # A different seed must not resurrect journaled results.
        with parallel_config(resume=True, journal_root=tmp_path):
            factory = ChipFactory(tech=tech, arch=small_arch, seed=5,
                                  workers=1, cache=None)
            counting = _CountingEvaluate(evaluate_uniform_frequency)
            run_policy_comparison(
                factory, [cls() for cls in self.POLICIES], counting,
                n_threads=4, n_trials=self.N_TRIALS, n_dies=2, seed=4,
                experiment="figtest")
        assert counting.calls == self.N_TRIALS * len(self.POLICIES)


class TestPmRunnerResume:
    def test_static_pm_campaign_resumes_bitwise(self, tech, small_arch,
                                                tmp_path):
        from repro.config import COST_PERFORMANCE
        algorithms = [
            AlgorithmSpec("Random+Foxton*", RandomPolicy(), FoxtonStar),
            AlgorithmSpec("VarP+Foxton*", VarP(), FoxtonStar),
        ]

        def run(root=None):
            config = (parallel_config(resume=True, journal_root=root)
                      if root is not None else parallel_config())
            with config:
                factory = ChipFactory(tech=tech, arch=small_arch,
                                      seed=5, workers=1, cache=None)
                return run_pm_comparison(
                    factory, COST_PERFORMANCE, n_threads=4, n_trials=2,
                    n_dies=1, algorithms=algorithms, protocol="static",
                    seed=3, experiment="pmtest")

        reference = run()
        partial = run(root=tmp_path)  # full journaled pass
        assert partial == reference
        journal = RunJournal.open(tmp_path, "pmtest")
        assert len(journal) == 4
        # Replay-only pass (all units journaled) is still identical.
        assert run(root=tmp_path) == reference

    def test_interrupted_online_campaign_resumes_bitwise(
            self, tech, small_arch, tmp_path):
        from repro.config import COST_PERFORMANCE

        def run(make_manager, root=None):
            algorithms = [
                AlgorithmSpec("Random+Foxton*", RandomPolicy(),
                              make_manager),
                AlgorithmSpec("VarP+Foxton*", VarP(), make_manager),
            ]
            config = (parallel_config(resume=True, journal_root=root)
                      if root is not None else parallel_config())
            with config:
                factory = ChipFactory(tech=tech, arch=small_arch,
                                      seed=5, workers=1, cache=None)
                return run_pm_comparison(
                    factory, COST_PERFORMANCE, n_threads=4, n_trials=2,
                    n_dies=2, algorithms=algorithms, protocol="online",
                    duration_s=0.03, seed=3, experiment="pmtest")

        reference = run(_CountingManagers())
        crash_at = 3
        with pytest.raises(RuntimeError, match="injected"):
            run(_CountingManagers(crash_after=crash_at), root=tmp_path)
        journal = RunJournal.open(tmp_path, "pmtest")
        assert len(journal) == crash_at  # completed units survived
        assert PINNED_PM_KEY in journal.completed()

        # Resume: only the missing unit is recomputed, and the tables
        # equal the uninterrupted run bitwise.
        resumed = _CountingManagers()
        assert run(resumed, root=tmp_path) == reference
        assert resumed.calls == 2 * 2 - crash_at


class _CountingSimulations:
    """Stands in for ``OnlineSimulation``; raises after ``crash_after``."""

    def __init__(self, inner, crash_after=None):
        self.inner = inner
        self.calls = 0
        self.crash_after = crash_after

    def __call__(self, *args, **kwargs):
        if (self.crash_after is not None
                and self.calls >= self.crash_after):
            raise RuntimeError("injected campaign crash")
        self.calls += 1
        return self.inner(*args, **kwargs)


class TestFig14Resume:
    def test_interrupted_campaign_resumes_bitwise(self, tech, small_arch,
                                                  tmp_path, monkeypatch):
        from repro.experiments import fig14_granularity
        real = fig14_granularity.OnlineSimulation

        def run(sims, root=None):
            monkeypatch.setattr(fig14_granularity, "OnlineSimulation", sims)
            config = (parallel_config(resume=True, journal_root=root)
                      if root is not None else parallel_config())
            with config:
                factory = ChipFactory(tech=tech, arch=small_arch,
                                      seed=5, workers=1, cache=None)
                return fig14_granularity.run(
                    intervals_s=(0.02, 0.01), thread_counts=(4,),
                    n_trials=2, factory=factory, seed=3)

        reference = run(_CountingSimulations(real))
        crash_at = 3
        with pytest.raises(RuntimeError, match="injected"):
            run(_CountingSimulations(real, crash_after=crash_at),
                root=tmp_path)
        assert len(RunJournal.open(tmp_path, "fig14")) == crash_at

        # Resume: only the missing unit is simulated, and the table
        # equals the uninterrupted run bitwise.
        resumed = _CountingSimulations(real)
        assert run(resumed, root=tmp_path) == reference
        assert resumed.calls == 2 * 2 - crash_at


class TestFig9Resume:
    def test_replay_only_run_characterises_nothing(self, tmp_path,
                                                   monkeypatch):
        from repro.experiments import common, fig09_nunifreq_perf

        def run():
            with parallel_config(resume=True, journal_root=tmp_path):
                return fig09_nunifreq_perf.run(
                    n_trials=3,
                    factory=ChipFactory(seed=0, workers=1, cache=None))

        first = run()
        calls = []
        real = common.characterize_batch

        def counting(*args, **kwargs):
            calls.append(args[3])
            return real(*args, **kwargs)

        monkeypatch.setattr(common, "characterize_batch", counting)
        assert run() == first
        assert calls == []


class TestThermalAblationResume:
    def test_arms_keep_their_own_units(self, tech, small_arch, tmp_path):
        from repro.experiments.ablations import run_thermal_ablation

        def run(root=None):
            config = (parallel_config(resume=True, journal_root=root)
                      if root is not None else parallel_config())
            with config:
                factory = ChipFactory(tech=tech, arch=small_arch,
                                      seed=5, workers=1, cache=None)
                return run_thermal_ablation(n_trials=1, n_threads=4,
                                            factory=factory, seed=3)

        reference = run()
        assert (reference.values["lateral coupling on"]
                != reference.values["lateral coupling weak"])
        assert run(root=tmp_path) == reference
        assert len(RunJournal.open(tmp_path, "ablation_thermal")) == 4
        assert run(root=tmp_path) == reference  # replay only


class TestCliResume:
    @pytest.fixture(autouse=True)
    def _journal_env(self, tmp_path, monkeypatch):
        self.root = tmp_path / "results"
        monkeypatch.setenv("REPRO_JOURNAL_DIR", str(self.root))

    def _table_of(self, capsys):
        out = capsys.readouterr().out
        return "\n".join(line for line in out.splitlines()
                         if not line.startswith("[fig7 completed"))

    def test_resume_journals_and_replays(self, capsys):
        assert main(["fig7", "--trials", "1", "--resume"]) == 0
        first = self._table_of(capsys)
        journal_path = self.root / "fig7" / JOURNAL_FILENAME
        assert journal_path.exists()
        size = journal_path.stat().st_size
        assert size > 0

        # Second run replays from the journal: identical table, no
        # new units appended.
        assert main(["fig7", "--trials", "1", "--resume"]) == 0
        second = self._table_of(capsys)
        assert second == first
        assert journal_path.stat().st_size == size

    def test_resume_replays_journal_with_complete_markers(
            self, capsys, monkeypatch):
        from repro.experiments import common
        assert main(["fig7", "--trials", "1", "--resume"]) == 0
        first = self._table_of(capsys)
        journal_path = self.root / "fig7" / JOURNAL_FILENAME
        # Rewrite it as older code did: a ``complete`` line after the
        # units of every thread count.
        units = list(AppendLog(journal_path).replay())
        journal_path.unlink()
        log = AppendLog(journal_path)
        for n_threads in (2, 4, 8, 16, 20):
            for unit in units:
                if unit["unit"]["n_threads"] == n_threads:
                    log.append(unit)
            log.append(_complete_marker(
                f"sched:fig7:nt{n_threads}:trials1:seed0", 3))
        assert len(RunJournal(journal_path)) == len(units) == 15
        size = journal_path.stat().st_size
        built = []
        real = common.characterize_batch

        def counting(*args, **kwargs):
            built.append(args[3])
            return real(*args, **kwargs)

        monkeypatch.setattr(common, "characterize_batch", counting)
        assert main(["fig7", "--trials", "1", "--resume"]) == 0
        # Every unit replays: no die is built, no unit is appended.
        assert self._table_of(capsys) == first
        assert built == []
        assert journal_path.stat().st_size == size

    def test_fresh_discards_journal(self, capsys):
        assert main(["fig7", "--trials", "1", "--resume"]) == 0
        journal_path = self.root / "fig7" / JOURNAL_FILENAME
        entries = len(RunJournal(journal_path))
        assert entries > 0
        assert main(["fig7", "--trials", "1", "--fresh"]) == 0
        # Journal was rebuilt from scratch with the same unit count.
        assert len(RunJournal(journal_path)) == entries

    def test_without_resume_no_journal(self, capsys):
        assert main(["fig7", "--trials", "1"]) == 0
        assert not (self.root / "fig7").exists()
