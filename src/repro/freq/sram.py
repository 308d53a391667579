"""SRAM access-time model for memory-dominated pipeline stages.

Following the extension of Mukhopadhyay et al.'s 6-transistor-cell model
used by VARIUS (Section 6.3), the access time of an SRAM structure is
dominated by its *weakest* cell: the bitline discharge current of a cell
goes as ``(V - Vth)^alpha / Leff``, and the array read time is set by
the cell with the highest Vth (lowest read current) among the cells on
the accessed path.

With ``n`` cells drawing i.i.d. random Vth components, the expected
worst-case random offset is the Gaussian upper quantile
``sigma_ran * z(n)``; we use that deterministic equivalent plus the
grid cell's systematic component. The binning kernel
(:mod:`repro.chip.batch`) builds each SRAM stage's delay that
way from :func:`worst_cell_quantile` and :func:`gate_delay`.
"""

from __future__ import annotations

from functools import lru_cache

from scipy import stats

# Effective number of independent weakest-cell candidates per SRAM
# stage (cells along the critical access path of the structure).
SRAM_CELLS_PER_PATH = 4096


@lru_cache(maxsize=None)
def worst_cell_quantile(n_cells: int = SRAM_CELLS_PER_PATH) -> float:
    """Expected standardised maximum of ``n_cells`` Gaussian draws.

    Uses the standard extreme-value approximation
    ``E[max] ~= Phi^-1(1 - 1/(n+1))`` which is accurate to a few percent
    for the n we care about. The quantile is a pure function of
    ``n_cells`` yet sits inside every per-(die, core) path extraction,
    so the ``scipy`` ``ppf`` evaluation is memoised.
    """
    if n_cells < 1:
        raise ValueError("n_cells must be at least 1")
    return float(stats.norm.ppf(1.0 - 1.0 / (n_cells + 1)))
