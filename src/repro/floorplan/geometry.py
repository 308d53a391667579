"""Planar geometry primitives for floorplans."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple


@dataclass(frozen=True)
class Rect:
    """Axis-aligned rectangle, coordinates in millimetres.

    ``(x0, y0)`` is the lower-left corner and ``(x1, y1)`` the
    upper-right corner.
    """

    x0: float
    y0: float
    x1: float
    y1: float

    def __post_init__(self) -> None:
        if self.x1 <= self.x0 or self.y1 <= self.y0:
            raise ValueError("rectangle must have positive extent")

    @property
    def width(self) -> float:
        return self.x1 - self.x0

    @property
    def height(self) -> float:
        return self.y1 - self.y0

    @property
    def area(self) -> float:
        return self.width * self.height

    @property
    def centre(self) -> Tuple[float, float]:
        return (0.5 * (self.x0 + self.x1), 0.5 * (self.y0 + self.y1))

    def overlaps(self, other: "Rect") -> bool:
        """Whether the two rectangles share interior area."""
        return not (
            self.x1 <= other.x0
            or other.x1 <= self.x0
            or self.y1 <= other.y0
            or other.y1 <= self.y0
        )

    def subgrid(self, cols: int, rows: int):
        """Split into a cols x rows grid of sub-rectangles.

        Yields ``(col, row, rect)`` tuples, column-major from the
        lower-left corner.
        """
        if cols <= 0 or rows <= 0:
            raise ValueError("grid dimensions must be positive")
        dw = self.width / cols
        dh = self.height / rows
        for c in range(cols):
            for r in range(rows):
                yield c, r, Rect(
                    self.x0 + c * dw,
                    self.y0 + r * dh,
                    self.x0 + (c + 1) * dw,
                    self.y0 + (r + 1) * dh,
                )
