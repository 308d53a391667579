"""Tests for repro.floorplan (geometry, units, CMP builder)."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.config import ArchConfig, DEFAULT_ARCH
from repro.floorplan import (
    CORE_UNITS,
    L2_BAND_FRACTION,
    Rect,
    UnitKind,
    build_floorplan,
    layout_core_units,
)


def rects(max_coord=100.0):
    coord = st.floats(min_value=0.0, max_value=max_coord)
    size = st.floats(min_value=0.1, max_value=max_coord)
    return st.builds(
        lambda x, y, w, h: Rect(x, y, x + w, y + h),
        coord, coord, size, size)


class TestRect:
    def test_basic_properties(self):
        r = Rect(1.0, 2.0, 4.0, 6.0)
        assert r.width == pytest.approx(3.0)
        assert r.height == pytest.approx(4.0)
        assert r.area == pytest.approx(12.0)
        assert r.centre == pytest.approx((2.5, 4.0))

    def test_rejects_degenerate(self):
        with pytest.raises(ValueError):
            Rect(0, 0, 0, 1)
        with pytest.raises(ValueError):
            Rect(0, 0, 1, 0)

    def test_overlaps(self):
        a = Rect(0, 0, 2, 2)
        assert a.overlaps(Rect(1, 1, 3, 3))
        assert not a.overlaps(Rect(2, 0, 3, 1))  # shares edge only
        assert not a.overlaps(Rect(5, 5, 6, 6))

    @given(rects(), rects())
    def test_overlap_symmetry(self, a, b):
        assert a.overlaps(b) == b.overlaps(a)

    def test_subgrid_partitions_area(self):
        r = Rect(0, 0, 6, 4)
        cells = [c for _, _, c in r.subgrid(3, 2)]
        assert len(cells) == 6
        assert sum(c.area for c in cells) == pytest.approx(r.area)
        for i, a in enumerate(cells):
            for b in cells[i + 1:]:
                assert not a.overlaps(b)


class TestCoreUnits:
    def test_area_fractions_sum_to_one(self):
        assert sum(u.area_fraction for u in CORE_UNITS) == pytest.approx(1.0)

    def test_weights_sum_to_one(self):
        assert sum(u.dynamic_weight for u in CORE_UNITS) == pytest.approx(
            1.0, abs=0.01)
        assert sum(u.leakage_weight for u in CORE_UNITS) == pytest.approx(
            1.0, abs=0.01)

    def test_both_kinds_present(self):
        kinds = {u.kind for u in CORE_UNITS}
        assert kinds == {UnitKind.LOGIC, UnitKind.SRAM}

    def test_unique_names(self):
        names = [u.name for u in CORE_UNITS]
        assert len(names) == len(set(names))

    def test_layout_covers_core_exactly(self):
        core = Rect(2.0, 3.0, 6.0, 7.0)
        placed = layout_core_units(core, core_id=3)
        assert len(placed) == len(CORE_UNITS)
        assert sum(p.rect.area for p in placed) == pytest.approx(core.area)
        for p in placed:
            assert p.core_id == 3
            x, y = p.rect.centre
            assert core.x0 <= x <= core.x1 and core.y0 <= y <= core.y1


class TestBuildFloorplan:
    def test_twenty_cores_in_5x4(self):
        fp = build_floorplan(DEFAULT_ARCH)
        assert fp.n_cores == 20
        assert len(fp.l2_blocks) == 2

    def test_core_zero_is_top_left(self):
        # Figure 3: C1 sits at the top-left of the core array.
        fp = build_floorplan(DEFAULT_ARCH)
        xs = [r.centre[0] for r in fp.cores]
        ys = [r.centre[1] for r in fp.cores]
        assert fp.cores[0].centre[0] == pytest.approx(min(xs))
        assert fp.cores[0].centre[1] == pytest.approx(max(ys))

    def test_no_core_overlaps(self):
        fp = build_floorplan(DEFAULT_ARCH)
        blocks = list(fp.cores) + list(fp.l2_blocks)
        for i, a in enumerate(blocks):
            for b in blocks[i + 1:]:
                assert not a.overlaps(b)

    def test_blocks_tile_the_die(self):
        fp = build_floorplan(DEFAULT_ARCH)
        total = sum(r.area for r in fp.cores)
        total += sum(r.area for r in fp.l2_blocks)
        assert total == pytest.approx(fp.die.area)

    def test_l2_band_fraction(self):
        fp = build_floorplan(DEFAULT_ARCH)
        band_area = 2 * L2_BAND_FRACTION * fp.die.area
        assert sum(r.area for r in fp.l2_blocks) == pytest.approx(band_area)

    def test_core_units_per_core(self):
        fp = build_floorplan(DEFAULT_ARCH)
        assert len(fp.core_units(0)) == len(CORE_UNITS)
        with pytest.raises(ValueError):
            fp.core_units(20)

    def test_blocks_order_cores_first(self):
        fp = build_floorplan(DEFAULT_ARCH)
        names = [n for n, _ in fp.blocks()]
        assert names[:20] == [f"core{i}" for i in range(20)]
        assert names[20:] == ["l2_0", "l2_1"]

    @pytest.mark.parametrize("n_cores", [4, 8, 15, 16])
    def test_other_core_counts(self, n_cores):
        arch = ArchConfig(n_cores=n_cores, die_area_mm2=200.0)
        fp = build_floorplan(arch)
        assert fp.n_cores == n_cores
        blocks = list(fp.cores) + list(fp.l2_blocks)
        total = sum(r.area for r in blocks)
        assert total == pytest.approx(fp.die.area)
