"""Linear programming engines for LinOpt (two-phase Simplex family).

Three cross-checked engines live here: the tableau reference solver
(:mod:`.simplex`), the warm-started bounded-variable engine
(:mod:`.bounded`), and an optional scipy/HiGHS wrapper — all unified
behind the :mod:`.backends` seam (``REPRO_LP_BACKEND``).
"""

from .backends import (
    BoundedSimplexBackend,
    HighsBackend,
    LpBackend,
    LpProblem,
    ReferenceSimplexBackend,
    make_backend,
)
from .bounded import WarmState, solve_bounded
from .simplex import (
    STATUS_INFEASIBLE,
    STATUS_OPTIMAL,
    STATUS_UNBOUNDED,
    LpResult,
    solve_lp_maximize,
)

__all__ = [
    "BoundedSimplexBackend",
    "HighsBackend",
    "LpBackend",
    "LpProblem",
    "LpResult",
    "ReferenceSimplexBackend",
    "STATUS_INFEASIBLE",
    "STATUS_OPTIMAL",
    "STATUS_UNBOUNDED",
    "WarmState",
    "make_backend",
    "solve_bounded",
    "solve_lp_maximize",
]
