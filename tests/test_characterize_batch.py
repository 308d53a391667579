"""Bitwise-parity tests for the die-batched characterisation pipeline.

The contract under test (DESIGN.md §18): every batched layer — the
field samplers' ``sample_batch``, :func:`generate_variation_maps`,
``DieBatch.dies_for`` (and indexing, which goes through it) and
:func:`characterize_dies` — is bitwise identical to its one-at-a-time
oracle in ``tests/references.py``, for every sampler backend, batch
size and arch geometry, including error behaviour.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.chip import CharacterizationKernel, characterize_dies
from repro.config import ArchConfig, DEFAULT_TECH
from repro.parallel import (
    CharacterizationCache,
    cache_key,
    characterize_batch,
    profile_payload,
)
from repro.variation import Die, DieBatch, generate_variation_maps
from repro.variation.spatial import make_field_sampler
from repro.variation.varius import VariationMap
from tests.references import (
    characterize_die,
    generate_variation_map,
    sample_field,
)

TECH = DEFAULT_TECH

# Three geometries covering both sampler backends and ragged layouts:
# the fleet arch (Cholesky, res 16), a mid-size die (Cholesky, res 32,
# the backend cutoff), and a large/fine die (circulant FFT, res 40).
CHOL_ARCH = ArchConfig(n_cores=4, die_area_mm2=140.0, grid_resolution=16)
MID_ARCH = ArchConfig(n_cores=8, die_area_mm2=140.0, grid_resolution=32)
FFT_ARCH = ArchConfig(n_cores=4, die_area_mm2=200.0, grid_resolution=40)
ARCHS = [CHOL_ARCH, MID_ARCH, FFT_ARCH]


def assert_profiles_bitwise(a, b) -> None:
    """Every array/scalar of the flattened profiles must match exactly."""
    pa, pb = profile_payload(a), profile_payload(b)
    assert pa.keys() == pb.keys()
    for key in pa:
        assert np.array_equal(pa[key], pb[key]), key


def poisoned_die(template: Die, die_id: int) -> Die:
    """A die whose Vth map forces gate_delay's sub-threshold error."""
    vmap = template.variation
    bad = VariationMap(
        vth_sys=np.full_like(vmap.vth_sys, 0.9),
        leff_sys=vmap.leff_sys.copy(),
        vth=vmap.vth,
        leff=vmap.leff,
        edge=vmap.edge,
    )
    return Die(die_id=die_id, variation=bad)


class TestSamplerBatchParity:
    """sample_batch == per-rng one-field oracle draws, for both backends."""

    @pytest.mark.parametrize("resolution,edge", [(16, 11.8), (40, 14.1)])
    def test_sample_batch_matches_serial(self, resolution, edge):
        sampler = make_field_sampler(resolution, edge, 0.5 * edge)
        serial = []
        for i in range(5):
            rng = np.random.default_rng([7, i])
            serial.append([sample_field(sampler, rng) for _ in range(2)])
        batched = sampler.sample_batch(
            [np.random.default_rng([7, i]) for i in range(5)], count=2)
        assert batched.shape == (5, 2, resolution, resolution)
        for i in range(5):
            for k in range(2):
                assert np.array_equal(batched[i, k], serial[i][k])

    def test_backend_selection(self):
        from repro.variation.spatial import (
            CholeskyFieldSampler,
            CirculantFieldSampler,
        )
        assert isinstance(make_field_sampler(16, 11.8, 5.9),
                          CholeskyFieldSampler)
        assert isinstance(make_field_sampler(40, 14.1, 7.0),
                          CirculantFieldSampler)


class TestVariationMapBatchParity:
    @pytest.mark.parametrize("arch", ARCHS, ids=["chol16", "chol32", "fft40"])
    def test_generate_variation_maps_matches_serial(self, arch):
        edge = arch.die_edge_mm
        res = arch.grid_resolution
        serial = [
            generate_variation_map(TECH, edge, res,
                                   np.random.default_rng([11, i]))
            for i in range(4)
        ]
        batched = generate_variation_maps(
            TECH, edge, res,
            [np.random.default_rng([11, i]) for i in range(4)])
        assert len(batched) == 4
        for s, b in zip(serial, batched):
            assert np.array_equal(s.vth_sys, b.vth_sys)
            assert np.array_equal(s.leff_sys, b.leff_sys)
            assert s.vth == b.vth and s.leff == b.leff
            assert s.edge == b.edge

    def test_empty_rngs(self):
        assert generate_variation_maps(TECH, 11.8, 16, []) == []

    def test_dies_for_matches_getitem(self):
        serial_batch = DieBatch(TECH, CHOL_ARCH, n_dies=8, seed=77)
        batched_batch = DieBatch(TECH, CHOL_ARCH, n_dies=8, seed=77)
        serial = [serial_batch[i] for i in range(8)]
        batched = batched_batch.dies_for(range(8))
        for s, b in zip(serial, batched):
            assert s.die_id == b.die_id
            assert np.array_equal(s.variation.vth_sys, b.variation.vth_sys)
            assert np.array_equal(s.variation.leff_sys, b.variation.leff_sys)
            oracle = generate_variation_map(
                TECH, CHOL_ARCH.die_edge_mm, CHOL_ARCH.grid_resolution,
                np.random.default_rng([77, s.die_id]))
            assert np.array_equal(s.variation.vth_sys, oracle.vth_sys)
            assert np.array_equal(s.variation.leff_sys, oracle.leff_sys)

    def test_dies_for_mixed_hit_miss_and_order(self):
        batch = DieBatch(TECH, CHOL_ARCH, n_dies=6, seed=5)
        pre = batch[2]  # warm one die through indexing
        got = batch.dies_for([4, 2, 0, 2, -1])
        assert [d.die_id for d in got] == [4, 2, 0, 2, 5]
        assert got[1] is pre  # cache was reused, not regenerated
        ref = DieBatch(TECH, CHOL_ARCH, n_dies=6, seed=5)
        for d in got:
            assert np.array_equal(d.variation.vth_sys,
                                  ref[d.die_id].variation.vth_sys)

    def test_dies_for_out_of_range(self):
        batch = DieBatch(TECH, CHOL_ARCH, n_dies=3, seed=5)
        with pytest.raises(IndexError):
            batch.dies_for([3])
        with pytest.raises(IndexError):
            batch.dies_for([-4])


class TestCharacterizeDiesParity:
    """The tentpole contract: batched binning == the one-die oracle."""

    @pytest.mark.parametrize("arch", ARCHS, ids=["chol16", "chol32", "fft40"])
    @pytest.mark.parametrize("n_dies", [1, 5])
    def test_bitwise_identical(self, arch, n_dies):
        batch = DieBatch(TECH, arch, n_dies=n_dies, seed=321)
        dies = batch.dies_for(range(n_dies))
        serial = [characterize_die(d, TECH, arch) for d in dies]
        batched = characterize_dies(dies, TECH, arch)
        assert len(batched) == n_dies
        for s, b in zip(serial, batched):
            assert_profiles_bitwise(s, b)

    def test_large_batch_bitwise(self):
        """A fleet-sized chunk on the fleet arch stays bitwise-exact."""
        n = 64
        batch = DieBatch(TECH, CHOL_ARCH, n_dies=n, seed=2024)
        dies = batch.dies_for(range(n))
        batched = characterize_dies(dies, TECH, CHOL_ARCH)
        for d in (0, 17, 63):  # spot-check the one-die oracle
            assert_profiles_bitwise(
                characterize_die(dies[d], TECH, CHOL_ARCH), batched[d])

    def test_mixed_geometry_groups(self):
        """Dies of different map geometries batch independently."""
        small = DieBatch(TECH, CHOL_ARCH, n_dies=2, seed=9).dies_for([0, 1])
        # Same core count, different die edge/resolution.
        big = DieBatch(TECH, FFT_ARCH, n_dies=2, seed=9).dies_for([0, 1])
        mixed = [small[0], big[0], small[1], big[1]]
        batched = characterize_dies(mixed, TECH, CHOL_ARCH)
        for die, prof in zip(mixed, batched):
            assert_profiles_bitwise(
                characterize_die(die, TECH, CHOL_ARCH), prof)

    def test_kernel_reuse_across_calls(self):
        """One kernel instance serves many chunks (fleet usage)."""
        kernel = CharacterizationKernel(TECH, CHOL_ARCH)
        batch = DieBatch(TECH, CHOL_ARCH, n_dies=4, seed=13)
        first = kernel.characterize(batch.dies_for([0, 1]))
        second = kernel.characterize(batch.dies_for([2, 3]))
        for i, prof in enumerate(first + second):
            assert_profiles_bitwise(
                characterize_die(batch[i], TECH, CHOL_ARCH), prof)

    def test_empty_batch(self):
        assert characterize_dies([], TECH, CHOL_ARCH) == []

    def test_floorplan_mismatch_rejected(self):
        from repro.floorplan import build_floorplan
        wrong = build_floorplan(MID_ARCH)
        with pytest.raises(ValueError, match="core count"):
            CharacterizationKernel(TECH, CHOL_ARCH, floorplan=wrong)

    def test_shared_structures_attached(self):
        from repro.floorplan import build_floorplan
        from repro.thermal import ThermalNetwork
        floorplan = build_floorplan(CHOL_ARCH)
        thermal = ThermalNetwork(floorplan)
        batch = DieBatch(TECH, CHOL_ARCH, n_dies=2, seed=3)
        profs = characterize_dies(batch.dies_for([0, 1]), TECH, CHOL_ARCH,
                                  floorplan=floorplan, thermal=thermal)
        for p in profs:
            assert p.floorplan is floorplan
            assert p.thermal is thermal


class TestErrorParity:
    def _dies_with_poison(self, bad_at):
        batch = DieBatch(TECH, CHOL_ARCH, n_dies=4, seed=55)
        dies = batch.dies_for(range(4))
        for pos in bad_at:
            dies[pos] = poisoned_die(dies[pos], die_id=dies[pos].die_id)
        return dies

    def test_raise_matches_serial_exception(self):
        dies = self._dies_with_poison([2])
        with pytest.raises(ValueError) as serial_exc:
            characterize_die(dies[2], TECH, CHOL_ARCH)
        with pytest.raises(ValueError) as batched_exc:
            characterize_dies(dies, TECH, CHOL_ARCH)
        assert str(batched_exc.value) == str(serial_exc.value)

    def test_raise_reports_lowest_index_failure(self):
        dies = self._dies_with_poison([1, 3])
        with pytest.raises(ValueError,
                           match="supply voltage at or below threshold"):
            characterize_dies(dies, TECH, CHOL_ARCH)


def reference_profiles(seed, indices):
    """The one-die :func:`characterize_die` oracle, die by die."""
    batch = DieBatch(TECH, CHOL_ARCH, max(indices) + 1, seed=seed)
    return [characterize_die(batch[i], TECH, CHOL_ARCH) for i in indices]


class TestRunnerKnob:
    """characterize_batch's die-batched cache-miss path against the
    one-die characterize_die oracle."""

    def test_characterize_batch_paths_bitwise(self):
        """The runner's cache-miss path equals the per-die reference."""
        seed, indices = 17, [0, 3, 1]
        batched = characterize_batch(TECH, CHOL_ARCH, seed, indices,
                                     workers=1, cache=None)
        for ref, b in zip(reference_profiles(seed, indices), batched):
            assert_profiles_bitwise(ref, b)

    def test_cache_population_identical_across_paths(self, tmp_path):
        """Misses store the reference's payloads; warm hits return them."""
        seed, indices = 23, [0, 1, 2]
        cache = CharacterizationCache(tmp_path / "cache")
        characterize_batch(TECH, CHOL_ARCH, seed, indices,
                           workers=1, cache=cache)
        refs = reference_profiles(seed, indices)
        for index, ref in zip(indices, refs):
            stored = cache.load(cache_key(TECH, CHOL_ARCH, seed, index))
            expected = profile_payload(ref)
            assert stored.keys() == expected.keys()
            for key in expected:
                assert np.array_equal(stored[key], expected[key]), key
        hits_before = cache.stats.get("hits")
        warm = characterize_batch(TECH, CHOL_ARCH, seed, indices,
                                  workers=1, cache=cache)
        assert cache.stats.get("hits") - hits_before == len(indices)
        for ref, w in zip(refs, warm):
            assert_profiles_bitwise(ref, w)

    def test_mixed_hit_miss_batched_fills_only_misses(self, tmp_path):
        """Pre-warming a subset leaves the batch filling only misses."""
        seed = 29
        cache = CharacterizationCache(tmp_path / "cache")
        characterize_batch(TECH, CHOL_ARCH, seed, [1, 3],
                           workers=1, cache=cache)
        stores_before = cache.stats.get("stores")
        mixed = characterize_batch(TECH, CHOL_ARCH, seed, [0, 1, 2, 3],
                                   workers=1, cache=cache)
        assert cache.stats.get("stores") - stores_before == 2  # only 0 and 2
        for m, ref in zip(mixed, reference_profiles(seed, [0, 1, 2, 3])):
            assert_profiles_bitwise(m, ref)
