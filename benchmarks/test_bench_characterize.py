"""Benchmark: die-batched characterisation vs the serial per-die loop.

Times cold characterisation of a fleet-arch die batch — generation
plus binning, the exact work a cache-miss chunk pays inside
``characterize_batch``/``run_fleet_campaign`` — through the serial
per-die oracles of ``tests.references`` (``generate_variation_map``
then ``characterize_die``, one die at a time) and the die-batched
:func:`repro.chip.characterize_dies` kernel. Serial and batched rounds
are interleaved and the minimum wall per mode is compared (the robust
statistic on a noisy runner), with a hard floor on the speedup: the
batched pipeline must hold at least 3x, the guarantee the fleet
``dies_per_s`` floor is budgeted against.

Bitwise identity is asserted before anything is timed — a fast kernel
that disagrees with the serial loop benchmarks nothing — and the mean
fmax/rated-power of the batch are emitted as deterministic drift
metrics so the perf gate catches semantic changes too.
"""

import time

import numpy as np
from conftest import emit

from repro.chip import characterize_dies
from repro.config import DEFAULT_TECH
from repro.experiments.common import format_rows
from repro.floorplan import build_floorplan
from repro.fleet import FLEET_ARCH
from repro.parallel import profile_payload
from repro.settings import settings
from repro.thermal import ThermalNetwork
from repro.variation import Die, DieBatch
from tests.references import characterize_die, generate_variation_map

# Interleaved measurement rounds; each round re-generates its dies so
# both modes pay the full cold path (sampler setup + draws + binning).
N_ROUNDS = 5

MIN_SPEEDUP = 3.0


def test_characterize_batch_speedup(benchmark, results_dir):
    tech = DEFAULT_TECH
    arch = FLEET_ARCH
    n_dies = 200 if settings().full else 64
    seed = 11
    floorplan = build_floorplan(arch)
    thermal = ThermalNetwork(floorplan)

    def serial_profile(i):
        """Die ``i`` through the oracles: generate its map, then bin."""
        vmap = generate_variation_map(
            tech, arch.die_edge_mm, arch.grid_resolution,
            np.random.default_rng([seed, i]))
        return characterize_die(Die(die_id=i, variation=vmap), tech, arch,
                                floorplan=floorplan, thermal=thermal)

    # Identity sanity-check once before timing anything.
    probe = DieBatch(tech, arch, n_dies, seed=seed)
    dies = probe.dies_for(range(4))
    batched = characterize_dies(dies, tech, arch,
                                floorplan=floorplan, thermal=thermal)
    for die, prof in zip(dies, batched):
        ref = serial_profile(die.die_id)
        pr, pb = profile_payload(ref), profile_payload(prof)
        for key in pr:
            assert np.array_equal(pr[key], pb[key]), key

    def measure():
        serial_walls, batch_walls = [], []
        for _ in range(N_ROUNDS):
            t0 = time.perf_counter()
            for i in range(n_dies):
                serial_profile(i)
            serial_walls.append(time.perf_counter() - t0)
            t0 = time.perf_counter()
            batch = DieBatch(tech, arch, n_dies, seed=seed)
            characterize_dies(batch.dies_for(range(n_dies)), tech, arch,
                              floorplan=floorplan, thermal=thermal)
            batch_walls.append(time.perf_counter() - t0)
        return min(serial_walls), min(batch_walls)

    serial_wall, batch_wall = benchmark.pedantic(measure, rounds=1,
                                                 iterations=1)
    speedup = serial_wall / batch_wall

    # Deterministic figure metrics of the same batch (drift check).
    batch = DieBatch(tech, arch, n_dies, seed=seed)
    profiles = characterize_dies(batch.dies_for(range(n_dies)), tech,
                                 arch, floorplan=floorplan,
                                 thermal=thermal)
    mean_fmax_ghz = float(np.mean(
        [p.fmax_array.mean() for p in profiles])) / 1e9
    mean_rated_w = float(np.mean(
        [p.static_rated_array.mean() for p in profiles]))

    metrics = {
        "n_dies": n_dies,
        "serial_wall_s": serial_wall,
        "batch_wall_s": batch_wall,
        "serial_dies_per_s": n_dies / serial_wall,
        "batch_dies_per_s": n_dies / batch_wall,
        "speedup_batch_vs_serial": speedup,
        "mean_fmax_ghz": mean_fmax_ghz,
        "mean_rated_w": mean_rated_w,
    }
    table = format_rows(
        ["mode", "wall s", "dies/s"],
        [["serial", serial_wall, n_dies / serial_wall],
         ["batched", batch_wall, n_dies / batch_wall],
         ["speedup", speedup, ""]],
        f"Die-batched characterisation vs serial loop, {n_dies} "
        f"fleet-arch dies (min over {N_ROUNDS} interleaved rounds)")
    emit(results_dir, "characterize", table, benchmark=benchmark,
         metrics=metrics,
         extra={"floors": {"speedup_batch_vs_serial": MIN_SPEEDUP}})

    assert speedup >= MIN_SPEEDUP, (
        f"die-batched characterisation only {speedup:.2f}x faster "
        f"than the serial loop ({n_dies} dies)")
