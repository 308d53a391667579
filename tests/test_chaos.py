"""Chaos tests for the fault-tolerant execution layer (DESIGN.md §14).

Each test injects one failure the host-side pipeline must survive —
a SIGKILLed pool worker, a hung shard, a poisoned item, a corrupted
or truncated cache entry — and asserts the run completes with results
bitwise-identical to an undisturbed ``workers=1`` run, with the event
visible in :class:`~repro.parallel.RunHealth` or the cache counters.

Failure injection is marker-file based (a worker consults a path on
disk to decide whether to misbehave) so retries are deterministic:
the first attempt fails, the retry succeeds, and the *values*
produced are independent of the failure — exactly the per-item purity
``run_sharded`` relies on.
"""

from __future__ import annotations

import functools
import io
import json
import os
import signal
import time
from concurrent.futures.process import BrokenProcessPool

import numpy as np
import pytest

from repro.parallel import (
    CharacterizationCache,
    RunHealth,
    cache_key,
    characterize_batch,
    run_sharded,
)
from repro.parallel import cache as cache_module
from repro.parallel import sharding
from repro.parallel.health import COUNTER_FIELDS


def is_clean(health: RunHealth) -> bool:
    """True when the run needed no recovery action of any kind."""
    snap = health.snapshot()
    return not any(snap[name] for name in COUNTER_FIELDS
                   if name != "shards_run")


def payloads_equal(a, b) -> bool:
    """Bitwise comparison of two characterisation payloads."""
    if set(a) != set(b):
        return False
    for key in a:
        if not np.array_equal(np.asarray(a[key]), np.asarray(b[key])):
            return False
    return True


# ---------------------------------------------------------------------------
# Shard functions (module-level: they must pickle into the pool).
# Each takes a marker directory so misbehaviour happens exactly once.


def _double_all(items):
    return [2 * i for i in items]


def _kill_once(marker_dir, items):
    """SIGKILL this worker on first sight of item 0's shard."""
    marker = os.path.join(marker_dir, "killed")
    if 0 in items and not os.path.exists(marker):
        with open(marker, "w"):
            pass
        os.kill(os.getpid(), signal.SIGKILL)
    return [2 * i for i in items]


def _hang_once(marker_dir, items):
    """Hang (sleep far past the timeout) on the first attempt."""
    marker = os.path.join(marker_dir, "hung")
    if 0 in items and not os.path.exists(marker):
        with open(marker, "w"):
            pass
        time.sleep(120.0)
    return [2 * i for i in items]


POISON = 5


def _kill_if_grouped(items):
    """Die whenever the poisoned item shares a shard with others.

    Narrowing must bisect down to the singleton ``[POISON]``, which
    then succeeds — the canonical poisoned-item recovery.
    """
    if POISON in items and len(items) > 1:
        os.kill(os.getpid(), signal.SIGKILL)
    return [2 * i for i in items]


def _fail_in_child(parent_pid, items):
    """Raise in every pool worker; succeed only in the parent.

    Models work that cannot run under fork at all — the run must
    degrade to in-process ``workers=1`` semantics instead of dying.
    """
    if os.getpid() != parent_pid:
        raise RuntimeError("refusing to run in a pool worker")
    return [2 * i for i in items]


def _always_raise(items):
    raise ValueError("deterministic application error")


class TestWorkerDeath:
    def test_sigkilled_worker_is_replaced_and_retried(self, tmp_path):
        items = list(range(8))
        health = RunHealth()
        fn = functools.partial(_kill_once, str(tmp_path))
        out = run_sharded(fn, items, workers=4, backoff_s=0.01,
                          health=health)
        assert out == [2 * i for i in items]
        assert health.broken_pools >= 1
        assert health.retries >= 1
        assert health.serial_fallback_shards == 0
        assert not is_clean(health)

    def test_poisoned_item_is_bisected_out(self):
        items = list(range(8))
        health = RunHealth()
        out = run_sharded(_kill_if_grouped, items, workers=2,
                          max_shard_retries=1, backoff_s=0.01,
                          health=health)
        assert out == [2 * i for i in items]
        assert health.narrowed_shards >= 1
        assert health.broken_pools >= 1

    def test_pool_broken_before_submit_is_replaced(self, monkeypatch):
        """A pool flagged broken between one wait() and the next
        submit raises from ``submit`` itself; the shard never ran, so
        it is requeued uncharged onto a replacement pool."""

        class BrokenPool:
            def submit(self, *args, **kwargs):
                raise BrokenProcessPool("pool broke before submit")

            def shutdown(self, wait=True, cancel_futures=False):
                pass

        real_new_pool = sharding._new_pool
        pools = [BrokenPool()]
        monkeypatch.setattr(
            sharding, "_new_pool",
            lambda size: pools.pop() if pools else real_new_pool(size))
        health = RunHealth()
        out = run_sharded(_double_all, list(range(8)), workers=2,
                          health=health)
        assert out == [2 * i for i in range(8)]
        assert health.broken_pools == 1
        assert health.retries == 0
        assert health.serial_fallback_shards == 0

    def test_clean_run_reports_clean_health(self):
        health = RunHealth()
        out = run_sharded(_double_all, list(range(8)), workers=4,
                          health=health)
        assert out == [2 * i for i in range(8)]
        assert is_clean(health)
        assert health.shards_run == 4
        assert health.retries == 0
        assert health.serial_fallback_items == 0


class TestTimeouts:
    def test_hung_shard_times_out_and_recovers(self, tmp_path):
        items = list(range(4))
        health = RunHealth()
        fn = functools.partial(_hang_once, str(tmp_path))
        start = time.monotonic()
        out = run_sharded(fn, items, workers=2, timeout_s=1.0,
                          backoff_s=0.01, health=health)
        wall = time.monotonic() - start
        assert out == [2 * i for i in items]
        assert health.timeouts >= 1
        assert health.broken_pools >= 1
        # Recovery must not wait out the 120 s sleep.
        assert wall < 60.0

    def test_env_timeout_is_honoured(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_SHARD_TIMEOUT_S", "1.0")
        items = list(range(4))
        health = RunHealth()
        fn = functools.partial(_hang_once, str(tmp_path))
        out = run_sharded(fn, items, workers=2, backoff_s=0.01,
                          health=health)
        assert out == [2 * i for i in items]
        assert health.timeouts >= 1


class TestSerialFallback:
    def test_degrades_to_in_process_run(self):
        items = list(range(6))
        health = RunHealth()
        fn = functools.partial(_fail_in_child, os.getpid())
        out = run_sharded(fn, items, workers=3, backoff_s=0.0,
                          health=health)
        assert out == [2 * i for i in items]
        assert health.serial_fallback_shards >= 1
        assert health.serial_fallback_items == len(items)

    def test_deterministic_error_propagates_like_serial(self):
        health = RunHealth()
        with pytest.raises(ValueError, match="deterministic"):
            run_sharded(_always_raise, list(range(4)), workers=2,
                        backoff_s=0.0, health=health)
        assert health.serial_fallback_shards >= 1


class TestPoolClamp:
    def test_oversubscription_is_clamped(self):
        # Requesting far more workers than CPUs must still produce
        # len==workers shards, queued through a CPU-sized pool.
        items = list(range(40))
        health = RunHealth()
        out = run_sharded(_double_all, items, workers=32, health=health)
        assert out == [2 * i for i in items]
        assert health.shards_run == 32
        assert is_clean(health)


class TestCacheCorruption:
    """A corrupt entry is quarantined, counted, and recharacterised
    to a bitwise-identical profile — never silently re-used."""

    @pytest.fixture()
    def stored(self, tech, small_arch, tmp_path):
        cache = CharacterizationCache(tmp_path / "cache")
        [profile] = characterize_batch(tech, small_arch, 7, [0],
                                       workers=1, cache=cache)
        key = cache_key(tech, small_arch, 7, 0)
        return cache, key, profile

    def test_truncated_entry_is_quarantined(self, stored):
        cache, key, _ = stored
        path = cache.path_for(key)
        path.write_bytes(path.read_bytes()[:100])
        misses_before = cache.stats["misses"]
        assert cache.load(key) is None
        # Corruption is counted separately — it is NOT a miss.
        assert cache.stats["corrupt"] == 1
        assert cache.stats["misses"] == misses_before
        assert not path.exists()
        assert (cache.quarantine_root / path.name).exists()
        reason = json.loads(
            (cache.quarantine_root / f"{key}.reason.json").read_text())
        assert reason["key"] == key
        assert "unreadable" in reason["reason"]

    def test_bitflip_is_caught_by_digest(self, stored):
        cache, key, _ = stored
        # Rebuild a *valid* npz payload whose data blob was tampered
        # after sealing, under the stale header: only the sha256 can
        # catch this.
        path = cache.path_for(key)
        header, _, payload = path.read_bytes().partition(b"\n")
        with np.load(io.BytesIO(payload)) as npz:
            tampered = {name: npz[name].copy() for name in npz.files}
        tampered["f64"][3] += 1e-9
        buf = io.BytesIO()
        np.savez_compressed(buf, **tampered)
        path.write_bytes(header + b"\n" + buf.getvalue())
        assert cache.load(key) is None
        assert cache.stats["corrupt"] == 1
        reason = json.loads(
            (cache.quarantine_root / f"{key}.reason.json").read_text())
        assert "digest mismatch" in reason["reason"]

    def test_recharacterisation_is_bitwise_identical(
            self, stored, tech, small_arch):
        cache, key, profile = stored
        from repro.parallel import profile_payload
        path = cache.path_for(key)
        raw = bytearray(path.read_bytes())
        raw[len(raw) // 2] ^= 0xFF
        path.write_bytes(bytes(raw))
        # The corrupt entry is quarantined, the die recharacterised…
        [again] = characterize_batch(tech, small_arch, 7, [0],
                                     workers=1, cache=cache)
        assert cache.stats["corrupt"] == 1
        # …bitwise-equal to the original characterisation, and the
        # fresh store is immediately loadable again.
        assert payloads_equal(profile_payload(again),
                              profile_payload(profile))
        assert cache.load(key) is not None

    def test_pre_sealed_entry_is_a_miss(self, tech, small_arch, tmp_path,
                                        monkeypatch):
        # An entry written before the sealed container: a bare npz,
        # <key>.npz, under the previous schema's key. The schema bump
        # moved every key, so it is never read, and it is neither an
        # entry nor corruption.
        cache = CharacterizationCache(tmp_path / "cache")
        with monkeypatch.context() as patch:
            patch.setattr(cache_module, "CACHE_SCHEMA_VERSION", 1)
            old_key = cache_key(tech, small_arch, 7, 0)
        assert old_key != cache_key(tech, small_arch, 7, 0)
        old_path = cache.path_for(old_key).with_suffix(".npz")
        old_path.parent.mkdir(parents=True)
        with open(old_path, "wb") as handle:
            np.savez_compressed(handle, layout=np.zeros(3, np.uint8))
        characterize_batch(tech, small_arch, 7, [0], workers=1,
                           cache=cache)
        assert cache.stats["misses"] == 1
        assert cache.usage()["entries"] == 1
        assert cache.verify_all()["corrupt"] == []
        assert cache.stats["corrupt"] == 0
        assert old_path.exists()


class TestCacheMaintenance:
    def _populate(self, tech, small_arch, tmp_path, n=3):
        cache = CharacterizationCache(tmp_path / "cache")
        characterize_batch(tech, small_arch, 7, list(range(n)),
                           workers=1, cache=cache)
        return cache

    def test_usage_and_entries(self, tech, small_arch, tmp_path):
        cache = self._populate(tech, small_arch, tmp_path)
        usage = cache.usage()
        assert usage["entries"] == 3
        assert usage["bytes"] > 0
        assert usage["quarantined"] == 0
        assert len(list(cache.entries())) == 3

    def test_verify_all_quarantines_corrupt(self, tech, small_arch,
                                            tmp_path):
        cache = self._populate(tech, small_arch, tmp_path)
        victim = next(iter(cache.entries()))
        victim.write_bytes(b"garbage")
        report = cache.verify_all()
        assert len(report["ok"]) == 2
        assert report["corrupt"] == [victim.stem]
        assert cache.usage()["quarantined"] == 1

    def test_gc_evicts_lru_to_budget(self, tech, small_arch, tmp_path):
        cache = self._populate(tech, small_arch, tmp_path)
        paths = list(cache.entries())
        # Make the mtime order deterministic: paths[0] is oldest.
        for age, path in enumerate(paths):
            stamp = time.time() - 1000 + age
            os.utime(path, (stamp, stamp))
        sizes = {p: p.stat().st_size for p in paths}
        budget = sum(sizes.values()) - 1  # force exactly one eviction
        removed = cache.gc(budget)
        assert removed == [paths[0]]
        assert cache.usage()["entries"] == 2
        assert cache.gc(0) and cache.usage()["entries"] == 0
