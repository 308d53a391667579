"""Regression tests for ``repro.parallel``: the sharded batch runner
and the persistent characterisation cache.

The load-bearing guarantees: worker count never changes a result
(sharded runs are bitwise-identical to the serial loop), a cache hit
is bitwise-identical to a cold characterisation, and the cache key
covers everything the characterisation depends on.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.experiments.common import ChipFactory
from repro.parallel import (
    CharacterizationCache,
    cache_key,
    characterize_batch,
    get_default_cache,
    parallel_config,
    profile_from_payload,
    profile_payload,
    run_sharded,
    shard_indices,
    spawn_seeds,
)
from repro.parallel.sharding import (
    DEFAULT_BACKOFF_S,
    DEFAULT_MAX_SHARD_RETRIES,
)
from repro.settings import settings


def payloads_equal(a, b) -> bool:
    """Bitwise comparison of two characterisation payloads."""
    if set(a) != set(b):
        return False
    for key in a:
        va, vb = a[key], b[key]
        if isinstance(va, np.ndarray) or isinstance(vb, np.ndarray):
            if not np.array_equal(np.asarray(va), np.asarray(vb)):
                return False
        elif va != vb:
            return False
    return True


class TestSharding:
    def test_shards_partition_in_order(self):
        for n_items in (1, 5, 16, 17):
            for n_shards in (1, 2, 4, 40):
                shards = shard_indices(n_items, n_shards)
                merged = np.concatenate(shards)
                np.testing.assert_array_equal(merged, np.arange(n_items))
                assert len(shards) == min(n_shards, n_items)
                assert all(s.size > 0 for s in shards)

    def test_spawn_seeds_deterministic(self):
        a = spawn_seeds(42, 4)
        b = spawn_seeds(42, 4)
        assert len(a) == 4
        for sa, sb in zip(a, b):
            assert (np.random.default_rng(sa).integers(1 << 30)
                    == np.random.default_rng(sb).integers(1 << 30))

    def test_run_sharded_merges_in_item_order(self):
        items = list(range(23))
        out = run_sharded(_double_all, items, workers=3)
        assert out == [2 * i for i in items]

    def test_run_sharded_serial_fallback(self):
        items = list(range(5))
        assert run_sharded(_double_all, items, workers=1) == \
            [2 * i for i in items]


def _double_all(items):
    return [2 * i for i in items]


class TestCacheKey:
    def test_key_sensitivity(self, tech, small_arch):
        base = cache_key(tech, small_arch, 0, 0)
        assert cache_key(tech, small_arch, 0, 0) == base
        assert cache_key(tech, small_arch, 1, 0) != base
        assert cache_key(tech, small_arch, 0, 1) != base
        assert cache_key(tech.with_sigma_over_mu(0.06),
                         small_arch, 0, 0) != base
        smaller = type(small_arch)(n_cores=4, die_area_mm2=140.0,
                                   grid_resolution=32)
        assert cache_key(tech, smaller, 0, 0) != base


class TestPayloadRoundTrip:
    def test_disk_round_trip_is_bitwise(self, tech, small_arch, tmp_path):
        cache = CharacterizationCache(tmp_path / "cache")
        [profile] = characterize_batch(tech, small_arch, 7, [0],
                                       workers=1, cache=cache)
        key = cache_key(tech, small_arch, 7, 0)
        loaded = cache.load(key)
        assert loaded is not None
        assert payloads_equal(loaded, profile_payload(profile))
        rebuilt = profile_from_payload(loaded, tech, small_arch)
        assert payloads_equal(profile_payload(rebuilt),
                              profile_payload(profile))

    def test_corrupt_entry_loads_as_none_and_is_quarantined(
            self, tech, small_arch, tmp_path):
        cache = CharacterizationCache(tmp_path / "cache")
        key = cache_key(tech, small_arch, 7, 0)
        path = cache.path_for(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_bytes(b"not an npz file")
        assert cache.load(key) is None
        assert cache.stats["corrupt"] == 1
        assert cache.stats["misses"] == 0
        assert (cache.quarantine_root / path.name).exists()

    def test_store_is_idempotent(self, tech, small_arch, tmp_path):
        cache = CharacterizationCache(tmp_path / "cache")
        [profile] = characterize_batch(tech, small_arch, 7, [0],
                                       workers=1, cache=None)
        payload = profile_payload(profile)
        key = cache_key(tech, small_arch, 7, 0)
        cache.store(key, payload)
        cache.store(key, payload)
        assert payloads_equal(cache.load(key), payload)


class TestDeterminism:
    N_DIES = 4

    @pytest.fixture(scope="class")
    def serial_payloads(self, tech, small_arch):
        profiles = characterize_batch(tech, small_arch, 3,
                                      list(range(self.N_DIES)),
                                      workers=1, cache=None)
        return [profile_payload(p) for p in profiles]

    @pytest.mark.parametrize("workers", [2, 3, 4])
    def test_sharded_matches_serial_bitwise(self, tech, small_arch,
                                            workers, serial_payloads):
        profiles = characterize_batch(tech, small_arch, 3,
                                      list(range(self.N_DIES)),
                                      workers=workers, cache=None)
        assert len(profiles) == self.N_DIES
        for profile, expected in zip(profiles, serial_payloads):
            assert payloads_equal(profile_payload(profile), expected)

    def test_cache_hit_matches_cold_bitwise(self, tech, small_arch,
                                            tmp_path, serial_payloads):
        cache = CharacterizationCache(tmp_path / "cache")
        indices = list(range(self.N_DIES))
        cold = characterize_batch(tech, small_arch, 3, indices,
                                  workers=1, cache=cache)
        assert cache.stats["misses"] == self.N_DIES
        assert cache.stats["stores"] == self.N_DIES
        warm = characterize_batch(tech, small_arch, 3, indices,
                                  workers=1, cache=cache)
        assert cache.stats["hits"] == self.N_DIES
        for cold_p, warm_p, expected in zip(cold, warm, serial_payloads):
            assert payloads_equal(profile_payload(warm_p),
                                  profile_payload(cold_p))
            assert payloads_equal(profile_payload(warm_p), expected)

    def test_duplicate_and_unordered_indices(self, tech, small_arch):
        profiles = characterize_batch(tech, small_arch, 3, [2, 0, 2],
                                      workers=1, cache=None)
        assert profiles[0].die_id == 2
        assert profiles[1].die_id == 0
        assert payloads_equal(profile_payload(profiles[0]),
                              profile_payload(profiles[2]))


class TestConfigPlumbing:
    def test_parallel_config_overrides_and_restores(self, tmp_path):
        before_workers = settings().workers
        with parallel_config(workers=3, cache_enabled=True,
                             cache_root=tmp_path / "c"):
            assert settings().workers == 3
            assert settings().cache_enabled
            assert get_default_cache().root == tmp_path / "c"
        assert settings().workers == before_workers

    def test_cache_disable(self, tmp_path):
        with parallel_config(cache_enabled=False):
            assert not settings().cache_enabled
            assert get_default_cache() is None

    def test_env_defaults(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_WORKERS", "6")
        monkeypatch.setenv("REPRO_NO_CACHE", "1")
        assert settings().workers == 6
        assert get_default_cache() is None
        monkeypatch.setenv("REPRO_NO_CACHE", "0")
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "envcache"))
        assert settings().cache_enabled
        assert get_default_cache().root == tmp_path / "envcache"


class TestShardRetryKnobs:
    """run_sharded's retry budget and backoff are constants that only
    its keyword arguments change."""

    def test_defaults_unchanged(self):
        assert DEFAULT_MAX_SHARD_RETRIES == 2
        assert DEFAULT_BACKOFF_S == 0.05

    def test_merge_order_unchanged_under_knobs(self):
        items = list(range(23))
        expected = [2 * i for i in items]
        assert run_sharded(_double_all, items, workers=3) == expected
        assert run_sharded(_double_all, items, workers=3,
                           max_shard_retries=0,
                           backoff_s=0.0) == expected


class TestChipFactoryIntegration:
    def test_factory_serial_equals_sharded(self, tech, small_arch,
                                           tmp_path):
        serial = ChipFactory(tech=tech, arch=small_arch, seed=11,
                             workers=1, cache=None).chips(3)
        cache = CharacterizationCache(tmp_path / "cache")
        sharded = ChipFactory(tech=tech, arch=small_arch, seed=11,
                              workers=2, cache=cache).chips(3)
        for a, b in zip(serial, sharded):
            assert payloads_equal(profile_payload(a), profile_payload(b))

    def test_chips_for_arbitrary_indices(self, tech, small_arch):
        factory = ChipFactory(tech=tech, arch=small_arch, seed=11,
                              workers=1, cache=None)
        chips = factory.chips_for([3, 1])
        assert [c.die_id for c in chips] == [3, 1]
        again = factory.chips_for([1, 3])
        assert again[0] is chips[1] and again[1] is chips[0]


class TestPerfGate:
    """The CI gate script itself (stdlib-only, importable)."""

    @pytest.fixture()
    def gate(self):
        import importlib.util
        import pathlib
        path = (pathlib.Path(__file__).parent.parent / "benchmarks"
                / "perf_gate.py")
        spec = importlib.util.spec_from_file_location("perf_gate", path)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        return module

    def _write(self, results, name, wall, metrics, full_run=False):
        record = {"name": name, "full_run": full_run,
                  "workers": 1, "wall_time_s": wall, "cache": None,
                  "metrics": metrics}
        (results / f"BENCH_{name}.json").write_text(json.dumps(record))
        return record

    def test_update_then_clean_check(self, gate, tmp_path):
        results = tmp_path / "results"
        results.mkdir()
        self._write(results, "figX", 1.0, {"ratio": 1.5, "wall_s": 9.0})
        baseline = tmp_path / "baseline.json"
        argv = ["--results", str(results), "--baseline", str(baseline)]
        assert gate.main(["update"] + argv) == 0
        assert gate.main(["check"] + argv) == 0

    def test_check_failures(self, gate, tmp_path):
        results = tmp_path / "results"
        results.mkdir()
        self._write(results, "figX", 1.0, {"ratio": 1.5})
        baseline = tmp_path / "baseline.json"
        argv = ["--results", str(results), "--baseline", str(baseline)]
        assert gate.main(["update"] + argv) == 0

        # Metric drift fails; volatile keys and small walls don't.
        self._write(results, "figX", 1.2, {"ratio": 1.7})
        assert gate.main(["check"] + argv) == 1

        # Wall regression beyond 30% fails.
        self._write(results, "figX", 1.5, {"ratio": 1.5})
        assert gate.main(["check"] + argv) == 1
        # ...unless the escape hatch is set.
        import os
        os.environ["PERF_GATE_SKIP_WALL"] = "1"
        try:
            assert gate.main(["check"] + argv) == 0
        finally:
            del os.environ["PERF_GATE_SKIP_WALL"]

        # Missing record fails.
        (results / "BENCH_figX.json").unlink()
        assert gate.main(["check"] + argv) == 1

    def test_full_run_mismatch_skips(self, gate, tmp_path):
        results = tmp_path / "results"
        results.mkdir()
        self._write(results, "figX", 1.0, {"ratio": 1.5})
        baseline = tmp_path / "baseline.json"
        argv = ["--results", str(results), "--baseline", str(baseline)]
        assert gate.main(["update"] + argv) == 0
        self._write(results, "figX", 9.0, {"ratio": 99.0}, full_run=True)
        assert gate.main(["check"] + argv) == 0
