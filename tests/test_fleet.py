"""Fleet subsystem: die-batched kernel, online statistics, columnar
shards, journaled campaigns, and the multi-host merge.

The load-bearing property is *bitwise equivalence*: every die-batched
result must equal the serial per-die loop bit for bit, every resumed
campaign must emit byte-identical summaries, and every chunk-aligned
multi-host merge must be indistinguishable from a single-host run.
"""

from __future__ import annotations

import dataclasses
import io
import json
import math

import numpy as np
import pytest

from repro.config import DEFAULT_TECH
from repro.experiments.common import ChipFactory
from repro.experiments.fig04_variation import die_ratios
from repro.fleet import (
    FLEET_ARCH,
    FleetAccumulator,
    FleetHistogram,
    FleetPlan,
    P2Quantile,
    RunningMoments,
    fleet_die_metrics,
    load_shard,
    load_summary,
    merge_campaigns,
    run_fleet_campaign,
    summarize_shards,
    write_shard,
)
from repro.fleet.shards import iter_shards, shard_name
from repro.parallel import (
    HostSlice,
    IncompleteJournalError,
    ShardManifest,
    characterize_batch,
    merge_journals,
)
from repro.parallel.journal import RunJournal
from repro.report import binned_histogram_chart, fleet_summary_table
from repro.storage import IntegrityError
from repro.runtime.evaluation import (
    Assignment,
    evaluate_levels,
    evaluate_max_levels,
)
from tests.references import (
    core_frequency_ratio,
    core_power_ratio,
    exact_quantile,
)
from repro.runtime.kernel import EvalKernel
from repro.storage import decode_line
from repro.workloads import SPEC_APPS, Workload


@pytest.fixture(scope="module")
def fleet_chips():
    """18 characterised fleet-arch dies."""
    return characterize_batch(DEFAULT_TECH, FLEET_ARCH, 7,
                              list(range(18)), workers=1, cache=None)


@pytest.fixture(scope="module")
def fleet_workload():
    apps = (SPEC_APPS[0], SPEC_APPS[2], SPEC_APPS[4])
    return Workload(apps), Assignment(core_of=(0, 1, 3))


def _bits(value):
    """A value's exact bit pattern: an array's dtype, shape and bytes,
    or a float's hex form."""
    if isinstance(value, np.ndarray):
        return value.dtype.str, value.shape, value.tobytes()
    return float(value).hex()


def assert_state_equal(a, b):
    """Bitwise SystemState equality: the bit patterns, so ``-0.0`` never
    passes for ``0.0``, nor one NaN payload for another."""
    for f in dataclasses.fields(a):
        assert _bits(getattr(a, f.name)) == _bits(getattr(b, f.name)), \
            f.name


class TestFleetKernel:
    """A D-die EvalKernel is bitwise the serial per-die loop."""

    @pytest.mark.parametrize("n_dies", [1, 5, 18])
    def test_max_levels_bitwise(self, fleet_chips, fleet_workload,
                                n_dies):
        workload, assignment = fleet_workload
        chips = fleet_chips[:n_dies]
        kernel = EvalKernel(chips, workload, assignment)
        states = kernel.evaluate_max_levels_fleet()
        assert kernel.n_dies == n_dies and len(states) == n_dies
        for chip, state in zip(chips, states):
            serial = evaluate_max_levels(chip, workload, assignment)
            assert_state_equal(state, serial)

    @pytest.mark.parametrize("n_dies", [1, 5, 18])
    def test_shared_decision_bitwise(self, fleet_chips,
                                     fleet_workload, n_dies):
        workload, assignment = fleet_workload
        chips = fleet_chips[:n_dies]
        levels = (1, 0, 2)
        kernel = EvalKernel(chips, workload, assignment)
        states = kernel.evaluate_levels_fleet(levels)
        for chip, state in zip(chips, states):
            serial = evaluate_levels(chip, workload, assignment,
                                     levels)
            assert_state_equal(state, serial)

    def test_per_die_levels_bitwise(self, fleet_chips, fleet_workload):
        workload, assignment = fleet_workload
        chips = fleet_chips
        rng = np.random.default_rng(11)
        kernel = EvalKernel(chips, workload, assignment)
        lv = rng.integers(0, 3, size=(len(chips), 3))
        states = kernel.evaluate_levels_fleet(lv)
        for k, (chip, state) in enumerate(zip(chips, states)):
            serial = evaluate_levels(chip, workload, assignment,
                                     lv[k])
            assert_state_equal(state, serial)

    def test_rows_cross_the_slab(self, fleet_chips, fleet_workload):
        """Repeated dies with per-row workloads, sized from the
        kernel's own slab so the rows span two slabs."""
        workload, assignment = fleet_workload
        slab = EvalKernel(fleet_chips[0], workload,
                          assignment)._slab_rows
        n_rows = slab + 5
        rng = np.random.default_rng(5)
        pool = [Workload(tuple(rng.permutation(SPEC_APPS)[:3]))
                for _ in range(7)]
        chips = [fleet_chips[k % len(fleet_chips)] for k in range(n_rows)]
        workloads = [pool[k % len(pool)] for k in range(n_rows)]
        kernel = EvalKernel(chips, workloads, assignment)
        assert kernel._slab_rows == slab < n_rows
        states = kernel.evaluate_max_levels_fleet()
        for chip, wl, state in zip(chips, workloads, states):
            assert_state_equal(
                state, evaluate_max_levels(chip, wl, assignment))

    def test_broadcast_equals_tiled(self, fleet_chips, fleet_workload):
        workload, assignment = fleet_workload
        kernel = EvalKernel(fleet_chips[:4], workload, assignment)
        a = kernel.evaluate_levels_fleet((2, 1, 0))
        b = kernel.evaluate_levels_fleet(
            np.tile([2, 1, 0], (4, 1)))
        for sa, sb in zip(a, b):
            assert_state_equal(sa, sb)

    def test_rejects_mixed_designs(self, fleet_chips, fleet_workload,
                                   small_chip):
        workload, assignment = fleet_workload
        with pytest.raises(ValueError, match="share TechParams"):
            EvalKernel([fleet_chips[0], small_chip], workload,
                            assignment)

    def test_rejects_bad_levels(self, fleet_chips, fleet_workload):
        workload, assignment = fleet_workload
        kernel = EvalKernel(fleet_chips[:2], workload, assignment)
        with pytest.raises(ValueError, match="out of range"):
            kernel.evaluate_levels_fleet((0, 0, 99))
        for shape_error in ((0, 0), [], [[]], np.zeros((3, 3), int)):
            with pytest.raises(ValueError, match="one level per thread"):
                kernel.evaluate_levels_fleet(shape_error)
        with pytest.raises(ValueError, match="must be integers"):
            kernel.evaluate_levels_fleet((1.7, 0, 0))
        with pytest.raises(ValueError, match="one-die kernel"):
            kernel.evaluate_levels_batch([(0, 0, 0)])

    def test_fig04_metrics_bitwise(self, fleet_chips):
        """The campaign's per-die analysis equals the serial fig04
        functions exactly — the property the rewired experiments
        lean on."""
        chips = fleet_chips[:6]
        cols = fleet_die_metrics(chips, with_power=True)
        for chip, p, f in zip(chips, cols["power_ratio"],
                              cols["freq_ratio"]):
            assert float(p) == core_power_ratio(chip)
            assert float(f) == core_frequency_ratio(chip)

    def test_die_ratios_serial_path_bitwise(self):
        factory = ChipFactory(tech=DEFAULT_TECH, arch=FLEET_ARCH,
                              seed=3, workers=1)
        pairs = die_ratios(4, tech=DEFAULT_TECH, arch=FLEET_ARCH, seed=3,
                           workers=1)
        for chip, (p, f) in zip(factory.chips(4), pairs):
            assert p == core_power_ratio(chip)
            assert f == core_frequency_ratio(chip)


class TestRunningMoments:
    def test_matches_numpy(self, rng):
        data = rng.normal(3.0, 2.0, size=1000)
        mom = RunningMoments()
        for part in np.array_split(data, 7):
            mom.add(part)
        assert mom.count == 1000
        assert mom.mean == pytest.approx(data.mean(), rel=1e-12)
        assert mom.std == pytest.approx(data.std(), rel=1e-12)
        assert mom.min == data.min() and mom.max == data.max()

    def test_rejects_nonfinite(self):
        mom = RunningMoments()
        with pytest.raises(ValueError, match="non-finite"):
            mom.add([1.0, math.nan])
        with pytest.raises(ValueError, match="non-finite"):
            mom.add(math.inf)
        assert mom.count == 0


class TestP2Quantile:
    def test_exact_below_five_samples(self):
        est = P2Quantile(0.5)
        est.add([3.0, 1.0, 2.0])
        assert est.value == exact_quantile([1.0, 2.0, 3.0], 0.5)

    @pytest.mark.parametrize("p", [0.05, 0.5, 0.95])
    def test_tracks_exact_quantile(self, rng, p):
        data = rng.normal(0.0, 1.0, size=5000)
        est = P2Quantile(p)
        est.add(data)
        assert est.count == 5000
        assert abs(est.value - exact_quantile(data, p)) < 0.06

    def test_rejects_nonfinite_and_bad_p(self):
        with pytest.raises(ValueError):
            P2Quantile(0.0)
        est = P2Quantile(0.5)
        with pytest.raises(ValueError, match="non-finite"):
            est.add([math.nan])


class TestFleetHistogram:
    def test_counts_and_overflow(self):
        hist = FleetHistogram(0.0, 64.0)  # unit-width bins
        hist.add([-1.0, 0.0, 0.5, 5.0, 63.99, 64.0, 420.0])
        assert hist.underflow == 1 and hist.overflow == 2
        assert hist.counts.sum() + hist.underflow + hist.overflow == 7
        assert hist.counts[0] == 2 and hist.counts[5] == 1

    def test_rejects_nonfinite(self):
        hist = FleetHistogram(0.0, 1.0)
        with pytest.raises(ValueError, match="non-finite"):
            hist.add([0.5, math.inf])


class TestFleetAccumulator:
    SPEC = {"x": (0.0, 10.0)}

    def test_streaming_matches_exact(self, rng):
        data = rng.uniform(1.0, 9.0, size=4000)
        acc = FleetAccumulator(self.SPEC)
        for part in np.array_split(data, 13):
            acc.add_dies({"x": part, "ignored": part})
        s = acc.summary()["x"]
        assert s["count"] == 4000
        assert s["mean"] == pytest.approx(data.mean(), rel=1e-12)
        assert s["min"] == data.min() and s["max"] == data.max()
        for name, p in (("p05", 0.05), ("p50", 0.5), ("p95", 0.95)):
            assert abs(s["quantiles"][name]
                       - exact_quantile(data, p)) < 0.06


class TestShards:
    def test_roundtrip_and_die_column(self, tmp_path, rng):
        cols = {"a": rng.normal(size=8), "b": np.arange(8.0)}
        path = write_shard(tmp_path, 16, 24, cols)
        assert path.name == shard_name(16, 24)
        back = load_shard(path)
        assert np.array_equal(back["die"], np.arange(16, 24))
        assert np.array_equal(back["a"], cols["a"])
        assert np.array_equal(back["b"], cols["b"])

    def test_validation(self, tmp_path):
        with pytest.raises(ValueError, match="expected"):
            write_shard(tmp_path, 0, 4, {"a": np.zeros(3)})
        with pytest.raises(ValueError, match="implicit index"):
            write_shard(tmp_path, 0, 4, {"die": np.zeros(4)})
        with pytest.raises(ValueError):
            shard_name(4, 4)

    def test_coverage_and_gaps(self, tmp_path):
        for lo, hi in ((0, 4), (4, 8), (12, 16)):
            write_shard(tmp_path, lo, hi, {"a": np.zeros(hi - lo)})
        assert [(i.start, i.end) for i in iter_shards(tmp_path)] == [
            (0, 4), (4, 8), (12, 16)]


def _tamper(path, column="a"):
    """Flip one column's data inside a shard's sealed payload while
    keeping its stale header."""
    header, _, payload = path.read_bytes().partition(b"\n")
    with np.load(io.BytesIO(payload)) as data:
        arrays = {name: data[name].copy() for name in data.files}
    arrays[column] = arrays[column] + 1.0
    buf = io.BytesIO()
    np.savez_compressed(buf, **arrays)
    path.write_bytes(header + b"\n" + buf.getvalue())


class TestShardIntegrity:
    def test_tampered_shard_quarantined(self, tmp_path, rng):
        path = write_shard(tmp_path, 0, 4, {"a": rng.normal(size=4)})
        _tamper(path)
        with pytest.raises(IntegrityError, match="quarantined"):
            load_shard(path)
        assert not path.exists()
        qdir = tmp_path / "quarantine"
        assert (qdir / path.name).exists()
        reason = json.loads(
            (qdir / f"{path.name}.reason.json").read_text())
        assert reason["shard"] == path.name
        assert "digest mismatch" in reason["reason"]
        assert reason["quarantined_at_unix_s"] > 0
        # The die range now reads as a coverage gap.
        assert list(iter_shards(tmp_path)) == []

    def test_unreadable_shard_quarantined(self, tmp_path):
        path = tmp_path / shard_name(0, 4)
        path.write_bytes(b"not an npz container")
        with pytest.raises(IntegrityError, match="quarantined"):
            load_shard(path)
        qdir = tmp_path / "quarantine"
        assert (qdir / path.name).exists()
        reason = json.loads(
            (qdir / f"{path.name}.reason.json").read_text())
        assert "unreadable" in reason["reason"]

    def test_pre_sealed_shard_is_never_read(self, tmp_path, rng):
        # A shard written before the sealed container: a bare npz.
        path = tmp_path / "shard-00000008-00000012.npz"
        with open(path, "wb") as fh:
            np.savez_compressed(fh, die=np.arange(8, 12),
                                a=rng.normal(size=4))
        assert list(iter_shards(tmp_path)) == []
        with pytest.raises(ValueError, match="not a shard name"):
            load_shard(path)
        assert path.exists()

    def test_summarize_skips_quarantined_shard(self, tmp_path, rng):
        for lo in (0, 4):
            write_shard(tmp_path, lo, lo + 4,
                        {"freq_ratio": rng.uniform(1.0, 2.0, size=4)})
        _tamper(tmp_path / shard_name(4, 8), "freq_ratio")
        acc = summarize_shards(tmp_path)
        assert acc.moments["freq_ratio"].count == 4  # good shard only
        assert [(i.start, i.end) for i in iter_shards(tmp_path)] == [
            (0, 4)]


def _tiny_plan(name, n_dies=8, **kw):
    kw.setdefault("chunk_dies", 4)
    kw.setdefault("seed", 5)
    return FleetPlan(name=name, n_dies=n_dies, **kw)


class TestCampaign:
    def test_run_streams_shards_and_summary(self, tmp_path):
        plan = _tiny_plan("camp")
        result = run_fleet_campaign(plan, tmp_path, workers=1)
        assert result.n_chunks == 2 and result.resumed_chunks == 0
        assert [(i.start, i.end) for i in iter_shards(
            result.out_dir / "shards")] == [(0, 4), (4, 8)]
        summary = load_summary(result.out_dir)
        assert summary["metrics"]["power_ratio"]["count"] == 8
        assert summary["metrics"]["freq_ratio"]["count"] == 8
        assert summary["plan"]["name"] == "camp"
        # Shard contents equal the serial fig04 analysis per die.
        chips = characterize_batch(plan.tech, plan.arch, plan.seed,
                                   list(range(4)), workers=1,
                                   cache=None)
        shard = load_shard(result.out_dir / "shards"
                           / shard_name(0, 4))
        for chip, p in zip(chips, shard["power_ratio"]):
            assert float(p) == core_power_ratio(chip)

    def test_resume_is_bitwise(self, tmp_path):
        plan = _tiny_plan("resume")
        first = run_fleet_campaign(plan, tmp_path, workers=1)
        summary_bytes = first.summary_path.read_bytes()
        shards = {i.path.name: load_shard(i.path)
                  for i in iter_shards(first.out_dir / "shards")}

        # Full resume: everything replays from the journal.
        again = run_fleet_campaign(plan, tmp_path, workers=1)
        assert again.resumed_chunks == again.n_chunks == 2
        assert again.summary_path.read_bytes() == summary_bytes

        # Interrupted run: keep only the first chunk's journal line,
        # drop the shards — the tail recomputes, the head replays,
        # and everything is bitwise what the uninterrupted run wrote.
        journal_path = first.out_dir / "journal.jsonl"
        lines = journal_path.read_bytes().splitlines(keepends=True)
        unit_lines = [ln for ln in lines
                      if decode_line(ln).get("kind") == "unit"]
        journal_path.write_bytes(unit_lines[0])
        for info in iter_shards(first.out_dir / "shards"):
            info.path.unlink()
        resumed = run_fleet_campaign(plan, tmp_path, workers=1)
        assert resumed.resumed_chunks == 1
        assert resumed.summary_path.read_bytes() == summary_bytes
        for info in iter_shards(resumed.out_dir / "shards"):
            back = load_shard(info.path)
            ref = shards[info.path.name]
            assert set(back) == set(ref)
            for k in back:
                assert np.array_equal(back[k], ref[k])

    def test_pre_sealed_campaign_resumes_bitwise(self, tmp_path):
        plan = _tiny_plan("legacy")
        first = run_fleet_campaign(plan, tmp_path, workers=1)
        summary_bytes = first.summary_path.read_bytes()
        shard_dir = first.out_dir / "shards"
        shards = {}
        # Leave the directory as a run before the sealed container
        # left it: bare npz shards named shard-<start>-<end>.npz.
        for info in list(iter_shards(shard_dir)):
            shards[info.path.name] = load_shard(info.path)
            legacy = info.path.with_suffix(".npz")
            with open(legacy, "wb") as fh:
                np.savez_compressed(fh, **shards[info.path.name])
            info.path.unlink()
        first.summary_path.unlink()
        resumed = run_fleet_campaign(plan, tmp_path, workers=1)
        assert resumed.resumed_chunks == resumed.n_chunks == 2
        assert resumed.summary_path.read_bytes() == summary_bytes
        assert sorted(i.path.name for i in iter_shards(shard_dir)) == \
            sorted(shards)
        for info in iter_shards(shard_dir):
            back = load_shard(info.path)
            ref = shards[info.path.name]
            assert set(back) == set(ref)
            for k in back:
                assert np.array_equal(back[k], ref[k])

    def test_dies_per_s_counts_only_computed_dies(self, tmp_path):
        """Throughput covers the dies a run computed: journal replays
        and merges analyse nothing, so they add nothing."""
        plan = _tiny_plan("rate", with_power=False)
        fresh = run_fleet_campaign(plan, tmp_path, workers=1)
        assert fresh.computed_dies == fresh.n_dies == 8
        assert fresh.dies_per_s == 8 / fresh.wall_s

        again = run_fleet_campaign(plan, tmp_path, workers=1)
        assert again.n_dies == 8 and again.computed_dies == 0
        assert again.dies_per_s == 0.0

        journal_path = fresh.out_dir / "journal.jsonl"
        unit_lines = [ln for ln in journal_path.read_bytes().splitlines(
            keepends=True) if decode_line(ln).get("kind") == "unit"]
        journal_path.write_bytes(unit_lines[0])
        half = run_fleet_campaign(plan, tmp_path, workers=1)
        assert half.resumed_chunks == 1 and half.computed_dies == 4
        assert half.dies_per_s == 4 / half.wall_s

        manifest = ShardManifest.partition(plan.to_dict(), ["a"])
        merged = merge_campaigns(manifest, [fresh.out_dir],
                                 tmp_path / "merged")
        assert merged.n_dies == 8 and merged.computed_dies == 0
        assert merged.dies_per_s == 0.0

    def test_mixed_cache_hits_match_cold_run(self, tmp_path):
        """Batched chunks over a partially warmed cache stay bitwise.

        Pre-warming some dies (one of them corrupted on disk) must not
        change a single byte of the campaign output versus the all-cold
        run, and the cache counters must attribute every die correctly
        under the batched characterisation path.
        """
        from repro.parallel import CharacterizationCache, cache_key

        plan = _tiny_plan("mixed")
        cold = run_fleet_campaign(plan, tmp_path / "cold", workers=1)
        cold_summary = cold.summary_path.read_bytes()
        cold_shards = {i.path.name: load_shard(i.path)
                      for i in iter_shards(cold.out_dir / "shards")}

        # Warm dies from both chunks, then corrupt one entry so the
        # campaign sees hit+miss+corrupt.
        warm = CharacterizationCache(tmp_path / "cache")
        characterize_batch(plan.tech, plan.arch, plan.seed, [1, 5, 6],
                           workers=1, cache=warm)
        corrupt_path = warm.path_for(
            cache_key(plan.tech, plan.arch, plan.seed, 5))
        corrupt_path.write_bytes(b"not an npz")

        cache = CharacterizationCache(tmp_path / "cache")  # fresh stats
        mixed = run_fleet_campaign(plan, tmp_path / "mixed", workers=1,
                                   cache=cache)
        assert mixed.summary_path.read_bytes() == cold_summary
        for info in iter_shards(mixed.out_dir / "shards"):
            ref = cold_shards[info.path.name]
            back = load_shard(info.path)
            assert set(back) == set(ref)
            for k in back:
                assert np.array_equal(back[k], ref[k])
        # 8 dies: 2 intact hits, 1 quarantined, 5 absent; the 6
        # recharacterised dies are stored back.
        assert cache.stats.get("hits") == 2
        assert cache.stats.get("corrupt") == 1
        assert cache.stats.get("misses") == 5
        assert cache.stats.get("stores") == 6

    def test_summarize_shards_matches_summary(self, tmp_path):
        # One test id for both analyses; a --no-power campaign must
        # not grow a power_ratio row.
        for with_power in (True, False):
            plan = _tiny_plan(f"stats{int(with_power)}",
                              with_power=with_power)
            result = run_fleet_campaign(plan, tmp_path, workers=1)
            acc = summarize_shards(result.out_dir / "shards")
            assert (acc.summary()
                    == load_summary(result.out_dir)["metrics"])

    def test_chunks_align_to_global_grid(self):
        plan = FleetPlan(name="g", n_dies=10, start=6, chunk_dies=4)
        assert plan.chunks() == [(6, 8), (8, 12), (12, 16)]
        full = FleetPlan(name="g", n_dies=16, chunk_dies=4)
        assert full.chunks() == [(0, 4), (4, 8), (8, 12), (12, 16)]

    def test_plan_validation(self):
        with pytest.raises(ValueError):
            FleetPlan(name="x", n_dies=0)
        with pytest.raises(ValueError):
            FleetPlan(name="a/b", n_dies=4)
        with pytest.raises(ValueError):
            FleetPlan(name="x", n_dies=4, start=-1)


class TestMultiHost:
    def test_partition_tiles_and_aligns(self):
        plan = _tiny_plan("part", n_dies=24)
        manifest = ShardManifest.partition(plan.to_dict(),
                                           ["a", "b", "c"])
        assert [h.to_dict() for h in manifest.hosts] == [
            {"host": "a", "start": 0, "end": 8},
            {"host": "b", "start": 8, "end": 16},
            {"host": "c", "start": 16, "end": 24}]
        sub = FleetPlan.from_dict(manifest.host_plan_params("b"))
        assert (sub.start, sub.n_dies) == (8, 8)
        assert sub.chunks() == [(8, 12), (12, 16)]

    def test_manifest_validation(self):
        params = _tiny_plan("v", n_dies=8).to_dict()
        with pytest.raises(ValueError, match="tile the range"):
            ShardManifest(params, (HostSlice("a", 0, 4),
                                   HostSlice("b", 6, 8)))
        with pytest.raises(ValueError, match="unique"):
            ShardManifest(params, (HostSlice("a", 0, 4),
                                   HostSlice("a", 4, 8)))
        with pytest.raises(ValueError, match="cover up to"):
            ShardManifest(params, (HostSlice("a", 0, 4),))

    def test_merge_equals_single_host(self, tmp_path):
        plan = _tiny_plan("multi", n_dies=12)
        single = run_fleet_campaign(plan, tmp_path / "single",
                                    workers=1)
        manifest = ShardManifest.partition(plan.to_dict(), ["a", "b"])
        host_dirs = []
        for host in ("a", "b"):
            sub = FleetPlan.from_dict(manifest.host_plan_params(host))
            res = run_fleet_campaign(sub, tmp_path / host, workers=1)
            host_dirs.append(res.out_dir)
        merged = merge_campaigns(manifest, host_dirs,
                                 tmp_path / "merged")
        assert (merged.summary_path.read_bytes()
                == single.summary_path.read_bytes())
        singles = {i.path.name: load_shard(i.path)
                   for i in iter_shards(single.out_dir / "shards")}
        merged_shards = list(iter_shards(merged.out_dir / "shards"))
        assert {i.path.name for i in merged_shards} == set(singles)
        for info in merged_shards:
            ref = singles[info.path.name]
            back = load_shard(info.path)
            for k in ref:
                assert np.array_equal(back[k], ref[k])

    def test_merge_ignores_a_tampered_host_shard(self, tmp_path):
        """A host shard damaged on disk under its own name never
        reaches the merge: every merged shard is written from the
        checksummed journal and reads back intact."""
        plan = _tiny_plan("tampered", with_power=False)
        single = run_fleet_campaign(plan, tmp_path / "single",
                                    workers=1)
        manifest = ShardManifest.partition(plan.to_dict(), ["a", "b"])
        host_dirs = []
        for host in ("a", "b"):
            sub = FleetPlan.from_dict(manifest.host_plan_params(host))
            res = run_fleet_campaign(sub, tmp_path / host, workers=1)
            host_dirs.append(res.out_dir)
        _tamper(host_dirs[1] / "shards" / shard_name(4, 8),
                column="freq_ratio")
        merged = merge_campaigns(manifest, host_dirs,
                                 tmp_path / "merged")
        assert (merged.summary_path.read_bytes()
                == single.summary_path.read_bytes())
        for info in iter_shards(single.out_dir / "shards"):
            ref = load_shard(info.path)
            back = load_shard(merged.out_dir / "shards" / info.path.name)
            for k in ref:
                assert np.array_equal(back[k], ref[k])
        assert not (merged.out_dir / "shards" / "quarantine").exists()

    def test_merge_requires_completeness(self, tmp_path):
        plan = _tiny_plan("gap", n_dies=12, with_power=False)
        manifest = ShardManifest.partition(plan.to_dict(), ["a", "b"])
        sub = FleetPlan.from_dict(manifest.host_plan_params("a"))
        res = run_fleet_campaign(sub, tmp_path / "a", workers=1)
        with pytest.raises(IncompleteJournalError):
            merge_campaigns(manifest, [res.out_dir],
                            tmp_path / "merged")
        partial = merge_campaigns(manifest, [res.out_dir],
                                  tmp_path / "partial",
                                  require_complete=False)
        assert partial.n_dies == 8  # best-effort: host a's slice only
        summary = load_summary(partial.out_dir)
        assert summary["metrics"]["freq_ratio"]["count"] == 8

    def test_merge_journals_conflict_refused(self, tmp_path):
        a = RunJournal(tmp_path / "a.jsonl")
        b = RunJournal(tmp_path / "b.jsonl")
        a.record("k1", {}, [1.0, 2.0])
        b.record("k1", {}, [1.0, 999.0])
        dest = RunJournal(tmp_path / "dest.jsonl")
        assert merge_journals(dest, [a.path]) == 1
        with pytest.raises(ValueError, match="merge conflict"):
            merge_journals(dest, [b.path])
        # Idempotent replays are fine.
        assert merge_journals(dest, [a.path]) == 0


class TestFleetReport:
    def test_binned_histogram_chart(self):
        chart = binned_histogram_chart(
            np.linspace(0, 1, 9), [0, 0, 3, 5, 0, 2, 0, 0],
            title="t", underflow=1, overflow=2)
        assert "t" in chart and "< 0.25" in chart and ">= 0.75" in chart
        with pytest.raises(ValueError):
            binned_histogram_chart([0, 1], [1, 2])

    def test_fleet_summary_table(self, tmp_path):
        plan = _tiny_plan("report", n_dies=4, with_power=False)
        result = run_fleet_campaign(plan, tmp_path, workers=1)
        text = fleet_summary_table(load_summary(result.out_dir))
        assert "freq_ratio" in text and "p50" in text
        assert "report" in text


class TestFleetCLI:
    def test_plan_run_merge_stats(self, tmp_path, capsys):
        from repro.cli import main
        manifest_path = tmp_path / "fleet.json"
        assert main(["fleet", "plan", "--name", "cli", "--dies", "8",
                     "--chunk", "4", "--seed", "5", "--no-power",
                     "--hosts", "a,b",
                     "--manifest", str(manifest_path)]) == 0
        manifest = ShardManifest.load(manifest_path)
        assert [h.host for h in manifest.hosts] == ["a", "b"]

        for host in ("a", "b"):
            assert main(["fleet", "run", "--manifest",
                         str(manifest_path), "--host", host,
                         "--out", str(tmp_path / host),
                         "--quiet"]) == 0

        # Merge with a missing host refuses (exit 1)...
        assert main(["fleet", "merge", str(tmp_path / "a" / "cli"),
                     "--manifest", str(manifest_path),
                     "--out", str(tmp_path / "merged")]) == 1
        # ...and succeeds with both hosts present.
        assert main(["fleet", "merge",
                     str(tmp_path / "a" / "cli"),
                     str(tmp_path / "b" / "cli"),
                     "--manifest", str(manifest_path),
                     "--out", str(tmp_path / "merged")]) == 0
        summary = load_summary(tmp_path / "merged" / "cli")
        assert summary["metrics"]["freq_ratio"]["count"] == 8

        assert main(["fleet", "stats",
                     str(tmp_path / "merged" / "cli")]) == 0
        assert main(["fleet", "stats", "--from-shards",
                     str(tmp_path / "merged" / "cli")]) == 0
        out = capsys.readouterr().out
        assert "freq_ratio" in out

    def test_run_direct(self, tmp_path, capsys):
        from repro.cli import main
        assert main(["fleet", "run", "--name", "direct", "--dies",
                     "4", "--chunk", "2", "--seed", "5", "--no-power",
                     "--out", str(tmp_path), "--quiet"]) == 0
        assert "dies/s" in capsys.readouterr().out
        assert (tmp_path / "direct" / "summary.json").exists()


class TestPerfGateFleet:
    """Regression coverage for the gate's failure modes and the CI
    step-summary surface."""

    @pytest.fixture()
    def gate(self):
        import importlib.util
        import pathlib
        path = (pathlib.Path(__file__).parent.parent / "benchmarks"
                / "perf_gate.py")
        spec = importlib.util.spec_from_file_location("perf_gate_f",
                                                      path)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        return module

    def _write(self, results, name, metrics, floors=None, wall=1.0):
        record = {"name": name, "full_run": False, "workers": 1,
                  "wall_time_s": wall, "cache": None,
                  "metrics": metrics}
        if floors is not None:
            record["floors"] = floors
        (results / f"BENCH_{name}.json").write_text(
            json.dumps(record))
        return record

    @pytest.fixture()
    def env(self, tmp_path):
        results = tmp_path / "results"
        results.mkdir()
        baseline = tmp_path / "baseline.json"
        argv = ["--results", str(results), "--baseline",
                str(baseline)]
        return results, baseline, argv

    def test_nameless_record_fails_clearly(self, gate, env):
        results, baseline, argv = env
        (results / "BENCH_x.json").write_text(json.dumps({"metrics": {}}))
        with pytest.raises(SystemExit, match="no 'name' field"):
            gate.main(["check"] + argv)

    def test_invalid_json_fails_clearly(self, gate, env):
        results, baseline, argv = env
        (results / "BENCH_x.json").write_text("{nope")
        with pytest.raises(SystemExit, match="not valid JSON"):
            gate.main(["check"] + argv)

    def test_record_metric_missing_from_baseline_is_warning(
            self, gate, env):
        """The KeyError fix: a record emitting a metric the baseline
        has never seen must warn, not crash."""
        results, baseline, argv = env
        self._write(results, "figX", {"a": 1.0})
        assert gate.main(["update"] + argv) == 0
        self._write(results, "figX", {"a": 1.0, "brand_new": 2.0})
        assert gate.main(["check"] + argv) == 0

    def test_unbaselined_floors_enforced(self, gate, env):
        results, baseline, argv = env
        baseline.write_text("{}")
        self._write(results, "fleet", {"dies_per_s": 50.0},
                    floors={"dies_per_s": 12.0})
        assert gate.main(["check"] + argv) == 0
        self._write(results, "fleet", {"dies_per_s": 3.0},
                    floors={"dies_per_s": 12.0})
        assert gate.main(["check"] + argv) == 1
        self._write(results, "fleet", {"other": 1.0},
                    floors={"dies_per_s": 12.0})
        assert gate.main(["check"] + argv) == 1

    def test_step_summary_written(self, gate, env, tmp_path,
                                  monkeypatch):
        results, baseline, argv = env
        self._write(results, "figX", {"a": 1.0},
                    floors={"rate_s": 1.0})
        (results / "BENCH_figX.json").write_text(json.dumps(
            {"name": "figX", "full_run": False, "workers": 1,
             "wall_time_s": 1.0, "cache": None,
             "metrics": {"a": 1.0, "rate_s": 5.0},
             "floors": {"rate_s": 1.0}}))
        assert gate.main(["update"] + argv) == 0
        summary_file = tmp_path / "step_summary.md"
        monkeypatch.setenv("GITHUB_STEP_SUMMARY", str(summary_file))
        self._write(results, "figX", {"a": 9.0, "rate_s": 5.0},
                    floors={"rate_s": 1.0})
        assert gate.main(["check"] + argv) == 1
        text = summary_file.read_text()
        assert "## Perf gate" in text and "**FAIL**" in text
        assert "DRIFT" in text  # per-metric delta table rendered
        assert "rate_s" in text  # floors column rendered

    def test_step_summary_pass_renders_floors(self, gate, env,
                                              tmp_path, monkeypatch):
        results, baseline, argv = env
        baseline.write_text("{}")
        self._write(results, "fleet", {"dies_per_s": 50.0},
                    floors={"dies_per_s": 12.0})
        summary_file = tmp_path / "sum.md"
        monkeypatch.setenv("GITHUB_STEP_SUMMARY", str(summary_file))
        assert gate.main(["check"] + argv) == 0
        text = summary_file.read_text()
        assert "**PASS**" in text
        assert "(not baselined)" in text
        assert "dies_per_s 50" in text
