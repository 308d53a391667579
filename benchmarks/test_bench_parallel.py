"""Benchmark: sharded experiment runner + characterization cache.

Times the Figure 5 sigma sweep through the ``repro.parallel`` layer:

* full figure (5a power + 5b frequency), serial/no-cache vs four
  sharded workers on a cold cache — the per-die analysis itself
  shards, so ``speedup_parallel`` tracks the host's real core count;
* the characterisation-bound 5(b) frequency series, serial cold vs a
  warm on-disk cache — ``speedup_warm`` is machine-independent
  (~2-3x on a 2-CPU x86-64 host) because the warm run skips
  characterisation.

All paths must be bitwise-identical.  The parallel assertion is gated
on the host actually having cores to parallelise over (CI containers
sometimes expose a single CPU, where a process pool can only lose).
"""

import math
import time

from conftest import emit

from repro.experiments import fig05_sigma_sweep
from repro.experiments.common import format_rows
from repro.parallel import available_workers, parallel_config
from repro.settings import settings

PARALLEL_WORKERS = 4


def test_parallel_fig05_speedup(benchmark, results_dir, tmp_path):
    n_dies = 40 if settings().full else 6
    cache_root = tmp_path / "cache"

    def timed(workers, cache_enabled, with_power):
        with parallel_config(workers=workers, cache_enabled=cache_enabled,
                             cache_root=cache_root):
            start = time.perf_counter()
            result = fig05_sigma_sweep.run(n_dies=n_dies,
                                           with_power=with_power)
            return result, time.perf_counter() - start

    def run():
        return {
            # Full figure: serial reference, then sharded across
            # workers on a cold (initially empty) cache.
            "serial_full": timed(1, False, True),
            "cold_full": timed(PARALLEL_WORKERS, True, True),
            # 5(b) only: serial cold reference, then warm from the
            # cache the cold run just populated.
            "serial_freq": timed(1, False, False),
            "warm_freq": timed(1, True, False),
        }

    runs = benchmark.pedantic(run, rounds=1, iterations=1)
    serial_full, serial_full_s = runs["serial_full"]
    cold_full, cold_full_s = runs["cold_full"]
    serial_freq, serial_freq_s = runs["serial_freq"]
    warm_freq, warm_freq_s = runs["warm_freq"]
    speedup_parallel = serial_full_s / cold_full_s
    speedup_warm = serial_freq_s / warm_freq_s

    table = format_rows(
        ["run", "workers", "wall s", "speedup vs serial"],
        [["full figure, serial, no cache", 1, serial_full_s, 1.0],
         ["full figure, cold cache", PARALLEL_WORKERS, cold_full_s,
          speedup_parallel],
         ["5(b) series, serial, no cache", 1, serial_freq_s, 1.0],
         ["5(b) series, warm cache", 1, warm_freq_s, speedup_warm]],
        f"Figure 5 sweep ({n_dies} dies/point): sharded runner and "
        "characterization cache")
    emit(results_dir, "parallel_fig05", table,
         benchmark=benchmark,
         metrics={"serial_full_s": serial_full_s,
                  "cold_parallel_s": cold_full_s,
                  "serial_freq_s": serial_freq_s,
                  "warm_freq_s": warm_freq_s,
                  "speedup_parallel": speedup_parallel,
                  "speedup_warm": speedup_warm,
                  "n_dies": n_dies,
                  "available_workers": available_workers()})

    # Sharding and the cache round-trip may not change a single ULP.
    assert cold_full == serial_full
    assert warm_freq.freq_ratio == serial_freq.freq_ratio
    assert serial_freq.freq_ratio == serial_full.freq_ratio
    assert all(math.isnan(p) for p in serial_freq.power_ratio)

    # Warm cache skips characterization entirely — a machine-
    # independent win (~2-3x on a 2-CPU x86-64 host).
    assert speedup_warm > 2.0
    if available_workers() >= PARALLEL_WORKERS:
        # Real parallel speedup needs real cores.
        assert speedup_parallel > 1.5
