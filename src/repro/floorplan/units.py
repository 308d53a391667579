"""Functional-unit inventory of an Alpha 21264-like core.

Each core is decomposed into functional units, each either dominated by
combinational *logic* or by *SRAM* arrays. The distinction matters for
the critical-path model (Section 6.3): logic stages follow the
multiplier-derived path-delay distribution, SRAM stages follow the
6-transistor-cell access-time model.

Relative areas are loosely based on published 21264 floorplans; only
the proportions (and the logic/SRAM split) influence the results.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import List, Tuple

from .geometry import Rect


class UnitKind(enum.Enum):
    """Dominant circuit style of a functional unit."""

    LOGIC = "logic"
    SRAM = "sram"


@dataclass(frozen=True)
class UnitSpec:
    """Specification of one functional unit within a core.

    Attributes:
        name: Unit name (unique within a core).
        kind: Logic- or SRAM-dominated.
        area_fraction: Fraction of the core area occupied.
        dynamic_weight: Fraction of the core's dynamic power dissipated
            here (used for thermal power maps).
        leakage_weight: Fraction of the core's transistor (leakage)
            budget located here.
    """

    name: str
    kind: UnitKind
    area_fraction: float
    dynamic_weight: float
    leakage_weight: float

    def __post_init__(self) -> None:
        if not 0 < self.area_fraction <= 1:
            raise ValueError("area_fraction must be in (0, 1]")
        if self.dynamic_weight < 0 or self.leakage_weight < 0:
            raise ValueError("weights must be non-negative")


# Alpha 21264-like unit inventory. Fractions sum to 1.0 per column.
CORE_UNITS: Tuple[UnitSpec, ...] = (
    UnitSpec("icache", UnitKind.SRAM, 0.12, 0.10, 0.14),
    UnitSpec("dcache", UnitKind.SRAM, 0.12, 0.12, 0.14),
    UnitSpec("bpred", UnitKind.SRAM, 0.05, 0.04, 0.05),
    UnitSpec("itb_dtb", UnitKind.SRAM, 0.03, 0.02, 0.03),
    UnitSpec("regfile", UnitKind.SRAM, 0.06, 0.08, 0.07),
    UnitSpec("lsq", UnitKind.SRAM, 0.06, 0.07, 0.06),
    UnitSpec("rob_sched", UnitKind.SRAM, 0.08, 0.10, 0.09),
    UnitSpec("fetch_dec", UnitKind.LOGIC, 0.10, 0.11, 0.09),
    UnitSpec("rename", UnitKind.LOGIC, 0.06, 0.07, 0.05),
    UnitSpec("int_alu", UnitKind.LOGIC, 0.12, 0.14, 0.11),
    UnitSpec("fpu", UnitKind.LOGIC, 0.12, 0.10, 0.11),
    UnitSpec("clock_misc", UnitKind.LOGIC, 0.08, 0.05, 0.06),
)


def _validate_inventory() -> None:
    total_area = sum(u.area_fraction for u in CORE_UNITS)
    if abs(total_area - 1.0) > 1e-9:
        raise AssertionError(f"core unit areas sum to {total_area}, not 1")


_validate_inventory()


@dataclass(frozen=True)
class PlacedUnit:
    """A functional unit placed at absolute die coordinates."""

    spec: UnitSpec
    rect: Rect
    core_id: int  # -1 for uncore (L2) blocks


def layout_core_units(core_rect: Rect, core_id: int) -> List[PlacedUnit]:
    """Place the unit inventory inside one core's rectangle.

    Units are packed into vertical slices whose widths equal their area
    fractions — a simple but area-exact layout that preserves each
    unit's position relative to the die's variation map.
    """
    placed: List[PlacedUnit] = []
    x = core_rect.x0
    for spec in CORE_UNITS:
        w = spec.area_fraction * core_rect.width
        rect = Rect(x, core_rect.y0, x + w, core_rect.y1)
        placed.append(PlacedUnit(spec=spec, rect=rect, core_id=core_id))
        x += w
    return placed
