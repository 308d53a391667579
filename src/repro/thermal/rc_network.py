"""Steady-state thermal RC network at floorplan-block granularity.

Each floorplan block (one node per core, one per L2 band) couples

* vertically to the heat-sink/ambient node through a conductance
  proportional to its area, and
* laterally to every block it abuts, through a conductance proportional
  to the shared boundary length.

Steady state solves ``G @ T = P + G_amb * T_amb`` where ``G`` is the
(symmetric, diagonally dominant) conductance Laplacian plus the ambient
coupling on the diagonal. The factorisation is cached, so repeated
solves with new power vectors — the inner loop of the leakage iteration
and of simulated annealing — cost one triangular solve each.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

import numpy as np
from scipy import linalg
from scipy.linalg import get_lapack_funcs

from ..floorplan import Floorplan, Rect

# Vertical (block -> heat sink) conductance per mm^2 of block area.
# Chosen jointly with the 60 C sink-base temperature so a fully loaded
# chip (~95 W over 340 mm^2) reaches the ~95-105 C the paper measures,
# while keeping the leakage-temperature loop gain safely below one.
VERTICAL_CONDUCTANCE_W_PER_K_MM2 = 0.011
# Lateral (block <-> block) conductance per mm of shared boundary —
# strong enough for meaningful spreading, weak enough for hot spots.
LATERAL_CONDUCTANCE_W_PER_K_MM = 0.05
# Heat-sink base (ambient node) temperature, kelvin. Lumps the true
# ambient with the sink/spreader resistance at typical load.
DEFAULT_AMBIENT_K = 333.15  # 60 C

# LAPACK dgetrs handle, resolved once (all networks are float64). Calling
# the raw routine skips scipy's per-call wrapper/validation layers, which
# dominate a 22x22 triangular solve; the arithmetic is the very routine
# ``linalg.lu_solve`` dispatches to, so results are bitwise unchanged.
_GETRS = None


def _getrs_for(lu_matrix: np.ndarray):
    global _GETRS
    if _GETRS is None:
        _GETRS, = get_lapack_funcs(("getrs",), (lu_matrix,))
    return _GETRS


# Coordinates (mm) closer than this count as a touching edge.
_EDGE_TOL_MM = 1e-9


def shared_edge_length(a: Rect, b: Rect) -> float:
    """Length of the boundary two rectangles share (0 if not abutting)."""
    tol = _EDGE_TOL_MM
    # Vertical shared edge: a's right touches b's left (or vice versa).
    if abs(a.x1 - b.x0) < tol or abs(b.x1 - a.x0) < tol:
        overlap = min(a.y1, b.y1) - max(a.y0, b.y0)
        return max(overlap, 0.0)
    if abs(a.y1 - b.y0) < tol or abs(b.y1 - a.y0) < tol:
        overlap = min(a.x1, b.x1) - max(a.x0, b.x0)
        return max(overlap, 0.0)
    return 0.0


class ThermalNetwork:
    """Cached steady-state solver for one floorplan.

    Node order is the order of ``floorplan.blocks()``: cores first
    (ids 0..n_cores-1) then L2 blocks.
    """

    def __init__(
        self,
        floorplan: Floorplan,
        ambient_k: float = DEFAULT_AMBIENT_K,
        g_vertical: float = VERTICAL_CONDUCTANCE_W_PER_K_MM2,
        g_lateral: float = LATERAL_CONDUCTANCE_W_PER_K_MM,
    ) -> None:
        if ambient_k <= 0:
            raise ValueError("ambient temperature must be positive kelvin")
        if g_vertical <= 0 or g_lateral < 0:
            raise ValueError("conductances must be positive")
        self.floorplan = floorplan
        self.ambient_k = ambient_k
        self.g_lateral = g_lateral
        blocks = floorplan.blocks()
        self.block_names: Tuple[str, ...] = tuple(name for name, _ in blocks)
        rects = [rect for _, rect in blocks]
        n = len(rects)
        g = np.zeros((n, n))
        g_amb = np.array([g_vertical * r.area for r in rects])
        for i in range(n):
            for j in range(i + 1, n):
                edge = shared_edge_length(rects[i], rects[j])
                if edge > 0:
                    gij = g_lateral * edge
                    g[i, j] -= gij
                    g[j, i] -= gij
                    g[i, i] += gij
                    g[j, j] += gij
        g[np.diag_indices(n)] += g_amb
        # The ambient term of every right-hand side, formed once.
        self._rhs_amb = g_amb * ambient_k
        self._lu = linalg.lu_factor(g)
        self.n_blocks = n

    def solve(self, power_w: Sequence[float]) -> np.ndarray:
        """Block temperatures (kelvin) for a block power vector (W)."""
        p = np.asarray(power_w, dtype=float)
        if p.shape != (self.n_blocks,):
            raise ValueError(
                f"power vector must have {self.n_blocks} entries")
        if np.any(p < 0):
            raise ValueError("block powers must be non-negative")
        rhs = p + self._rhs_amb
        return linalg.lu_solve(self._lu, rhs)

    def solve_many(self, power_w: np.ndarray) -> np.ndarray:
        """Batched :meth:`solve`: one power vector per row.

        Returns a ``(B, n_blocks)`` temperature matrix whose row ``b``
        is bitwise-identical to ``solve(power_w[b])``. LAPACK's
        multi-RHS ``getrs`` routes through blocked ``dtrsm`` kernels
        whose per-column rounding differs from the single-RHS solve,
        so the triangular solves deliberately stay per-row — each a
        direct single-vector ``getrs`` call (the routine ``lu_solve``
        itself dispatches to), solving in place into the RHS matrix so
        the loop carries no python wrapper or allocation overhead.
        Validation and the ambient term are hoisted out of the loop.
        """
        p = np.asarray(power_w, dtype=float)
        if p.ndim != 2 or p.shape[1] != self.n_blocks:
            raise ValueError(
                f"power matrix must have {self.n_blocks} columns")
        if (p < 0).any():
            raise ValueError("block powers must be non-negative")
        rhs = p + self._rhs_amb
        lu, piv = self._lu
        getrs = _getrs_for(lu)
        for b in range(rhs.shape[0]):
            _, info = getrs(lu, piv, rhs[b], overwrite_b=True)
            if info != 0:
                raise ValueError(
                    f"illegal value in {-info}-th argument of "
                    "internal getrs")
        return rhs
