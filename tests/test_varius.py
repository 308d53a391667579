"""Tests for repro.variation.varius and repro.variation.die."""

import numpy as np
import pytest

from repro.config import DEFAULT_ARCH, DEFAULT_TECH
from repro.variation import (
    Die,
    DieBatch,
    VariationMap,
    VariationParams,
    generate_variation_maps,
)


def _map(seed=0, resolution=24):
    rng = np.random.default_rng(seed)
    return generate_variation_maps(DEFAULT_TECH, 18.0, resolution, [rng])[0]


class TestVariationParams:
    def test_equal_variance_split(self):
        p = VariationParams(mean=0.25, sigma_total=0.03, phi=9.0)
        total = np.sqrt(2 * p.sigma_sys ** 2)
        assert total == pytest.approx(0.03)

    def test_rejects_negative_sigma(self):
        with pytest.raises(ValueError):
            VariationParams(mean=0.25, sigma_total=-1.0, phi=9.0)

    def test_rejects_bad_phi(self):
        with pytest.raises(ValueError):
            VariationParams(mean=0.25, sigma_total=0.03, phi=0.0)


class TestGenerateVariationMap:
    def test_shapes(self):
        vmap = _map()
        assert vmap.vth_sys.shape == (24, 24)
        assert vmap.leff_sys.shape == (24, 24)
        assert vmap.resolution == 24

    def test_mean_near_nominal(self):
        # Average over many dies: systematic component is zero-mean.
        maps = [_map(seed=i) for i in range(30)]
        vth_mean = np.mean([m.vth_sys.mean() for m in maps])
        assert vth_mean == pytest.approx(DEFAULT_TECH.vth_mean, rel=0.05)

    def test_systematic_sigma(self):
        maps = [_map(seed=i) for i in range(40)]
        all_cells = np.concatenate([m.vth_sys.ravel() for m in maps])
        sigma = all_cells.std()
        expected = DEFAULT_TECH.vth_sigma / np.sqrt(2.0)
        assert sigma == pytest.approx(expected, rel=0.15)

    def test_vth_leff_positively_correlated(self):
        maps = [_map(seed=i) for i in range(20)]
        corrs = []
        for m in maps:
            corrs.append(np.corrcoef(m.vth_sys.ravel(),
                                     m.leff_sys.ravel())[0, 1])
        assert np.mean(corrs) > 0.5

    def test_physical_floors(self):
        vmap = _map()
        assert np.all(vmap.vth_sys > 0)
        assert np.all(vmap.leff_sys > 0)

    def test_determinism(self):
        a = _map(seed=5)
        b = _map(seed=5)
        np.testing.assert_array_equal(a.vth_sys, b.vth_sys)


class TestVariationMapQueries:
    def test_cell_index_corners(self):
        vmap = _map()
        assert vmap.cell_index(0.0, 0.0) == (0, 0)
        assert vmap.cell_index(18.0, 18.0) == (23, 23)

    def test_cell_index_rejects_outside(self):
        vmap = _map()
        with pytest.raises(ValueError):
            vmap.cell_index(-0.1, 1.0)
        with pytest.raises(ValueError):
            vmap.cell_index(1.0, 18.1)

    def test_region_cells_full_die(self):
        vmap = _map()
        vth, leff = vmap.region_cells(0.0, 0.0, 18.0, 18.0)
        assert vth.size == 24 * 24
        assert leff.size == 24 * 24

    def test_region_cells_subregion(self):
        vmap = _map()
        vth, _ = vmap.region_cells(0.0, 0.0, 9.0, 9.0)
        assert vth.size == 12 * 12
        np.testing.assert_array_equal(
            vth, vmap.vth_sys[:12, :12].ravel())

    def test_region_cells_thin_sliver_returns_a_cell(self):
        vmap = _map()
        step = 18.0 / 24
        # Rectangle much thinner than a cell, centred inside cell (3, 5).
        x0 = 3 * step + 0.4 * step
        y0 = 5 * step + 0.4 * step
        vth, _ = vmap.region_cells(x0, y0, x0 + 0.01, y0 + 0.01)
        assert vth.size >= 1

    def test_region_cells_rejects_degenerate(self):
        vmap = _map()
        with pytest.raises(ValueError):
            vmap.region_cells(5.0, 5.0, 5.0, 6.0)

    def test_mismatched_shapes_rejected(self):
        vmap = _map()
        with pytest.raises(ValueError):
            VariationMap(
                vth_sys=vmap.vth_sys,
                leff_sys=vmap.leff_sys[:10],
                vth=vmap.vth,
                leff=vmap.leff,
                edge=vmap.edge,
            )


class TestDieBatch:
    def test_length_and_indexing(self):
        batch = DieBatch(DEFAULT_TECH, DEFAULT_ARCH, 5, seed=7)
        assert len(batch) == 5
        assert batch[0].die_id == 0
        assert batch[-1].die_id == 4

    def test_out_of_range(self):
        batch = DieBatch(DEFAULT_TECH, DEFAULT_ARCH, 2, seed=7)
        with pytest.raises(IndexError):
            batch[2]

    def test_per_die_determinism_independent_of_access_order(self):
        b1 = DieBatch(DEFAULT_TECH, DEFAULT_ARCH, 4, seed=9)
        b2 = DieBatch(DEFAULT_TECH, DEFAULT_ARCH, 4, seed=9)
        _ = b1[0]  # touch die 0 first in one batch only
        np.testing.assert_array_equal(
            b1[3].variation.vth_sys, b2[3].variation.vth_sys)

    def test_dies_differ(self):
        batch = DieBatch(DEFAULT_TECH, DEFAULT_ARCH, 2, seed=3)
        assert not np.array_equal(batch[0].variation.vth_sys,
                                  batch[1].variation.vth_sys)

    def test_caching_returns_same_object(self):
        batch = DieBatch(DEFAULT_TECH, DEFAULT_ARCH, 2, seed=3)
        assert batch[1] is batch[1]

    def test_slice(self):
        batch = DieBatch(DEFAULT_TECH, DEFAULT_ARCH, 4, seed=3)
        dies = batch[1:3]
        assert [d.die_id for d in dies] == [1, 2]

    def test_iteration(self):
        batch = DieBatch(DEFAULT_TECH, DEFAULT_ARCH, 3, seed=3)
        assert [d.die_id for d in batch] == [0, 1, 2]

    def test_rejects_zero_dies(self):
        with pytest.raises(ValueError):
            DieBatch(DEFAULT_TECH, DEFAULT_ARCH, 0)

    def test_die_rejects_negative_id(self):
        batch = DieBatch(DEFAULT_TECH, DEFAULT_ARCH, 1)
        with pytest.raises(ValueError):
            Die(die_id=-1, variation=batch[0].variation)
