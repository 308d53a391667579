"""CMP floorplan builder (Figure 3).

The paper's 20-core die places two L2 cache bands (top and bottom) with
the cores arranged in a 5-column x 4-row array between them. The builder
generalises to other core counts by choosing a near-square core array.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

from ..config import ArchConfig
from .geometry import Rect
from .units import PlacedUnit, layout_core_units

# Fraction of die height devoted to each of the two L2 bands.
L2_BAND_FRACTION = 0.15


@dataclass(frozen=True)
class Floorplan:
    """A placed CMP floorplan.

    Attributes:
        die: The full die rectangle.
        cores: Core rectangles, indexed by core id (0-based; the paper's
            C1..C20 map to ids 0..19).
        l2_blocks: Uncore L2 cache rectangles.
        units: Every placed functional unit on the die (cores + L2).
    """

    die: Rect
    cores: Tuple[Rect, ...]
    l2_blocks: Tuple[Rect, ...]
    units: Tuple[PlacedUnit, ...]

    @property
    def n_cores(self) -> int:
        return len(self.cores)

    def core_units(self, core_id: int) -> List[PlacedUnit]:
        """All placed units belonging to one core."""
        if not 0 <= core_id < self.n_cores:
            raise ValueError("core_id out of range")
        return [u for u in self.units if u.core_id == core_id]

    def blocks(self) -> List[Tuple[str, Rect]]:
        """Thermal-model blocks: one per core plus the L2 bands."""
        out = [(f"core{i}", r) for i, r in enumerate(self.cores)]
        out.extend((f"l2_{j}", r) for j, r in enumerate(self.l2_blocks))
        return out

    @property
    def l2_area_share(self) -> np.ndarray:
        """Per-L2-block share of the total L2 area (sums to 1).

        Splits the shared L2's dynamic power across its floorplan
        blocks. Computed once and cached — this sits inside every
        system evaluation, the hottest path in the repo. The cached
        array is read-only so one evaluation cannot corrupt another.
        """
        cached = getattr(self, "_l2_area_share", None)
        if cached is None:
            share = np.array([r.area for r in self.l2_blocks])
            share = share / share.sum()
            share.setflags(write=False)
            object.__setattr__(self, "_l2_area_share", share)
            cached = share
        return cached


def _core_grid_shape(n_cores: int) -> Tuple[int, int]:
    """Pick a (cols, rows) arrangement close to the paper's 5x4."""
    if n_cores == 20:
        return 5, 4
    cols = int(math.ceil(math.sqrt(n_cores)))
    rows = int(math.ceil(n_cores / cols))
    return cols, rows


def build_floorplan(arch: ArchConfig) -> Floorplan:
    """Build the CMP floorplan for the given architecture config.

    The die is square (Table 4: 340 mm^2). Two horizontal L2 bands take
    ``L2_BAND_FRACTION`` of the height each; the cores tile the middle
    band in a (cols x rows) grid. With core counts that do not fill the
    grid, trailing grid slots are assigned to L2.
    """
    edge = arch.die_edge_mm
    die = Rect(0.0, 0.0, edge, edge)
    band = L2_BAND_FRACTION * edge
    l2_bottom = Rect(0.0, 0.0, edge, band)
    l2_top = Rect(0.0, edge - band, edge, edge)
    core_region = Rect(0.0, band, edge, edge - band)

    cols, rows = _core_grid_shape(arch.n_cores)
    cells = sorted(core_region.subgrid(cols, rows),
                   key=lambda crr: (rows - 1 - crr[1], crr[0]))
    # Sorted so that core 0 is the top-left cell, matching Figure 3's
    # C1 position, scanning left-to-right then downward.
    core_rects: List[Rect] = []
    extra_l2: List[Rect] = []
    for idx, (_, _, rect) in enumerate(cells):
        if idx < arch.n_cores:
            core_rects.append(rect)
        else:
            extra_l2.append(rect)

    units: List[PlacedUnit] = []
    for core_id, rect in enumerate(core_rects):
        units.extend(layout_core_units(rect, core_id))
    from .units import UnitSpec, UnitKind  # local to avoid cycle at import

    for l2_rect in [l2_bottom, l2_top, *extra_l2]:
        spec = UnitSpec("l2", UnitKind.SRAM, 1.0,
                        dynamic_weight=1.0, leakage_weight=1.0)
        units.append(PlacedUnit(spec=spec, rect=l2_rect, core_id=-1))

    return Floorplan(
        die=die,
        cores=tuple(core_rects),
        l2_blocks=tuple([l2_bottom, l2_top, *extra_l2]),
        units=tuple(units),
    )
