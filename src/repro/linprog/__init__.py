"""Linear programming engines for LinOpt (two-phase Simplex family).

Three cross-checked engines live here: the warm-started
bounded-variable engine (:mod:`.bounded`) that LinOpt runs, the tableau
reference solver (:mod:`.simplex`) and a scipy/HiGHS wrapper, each
behind the :class:`LpBackend` interface of :mod:`.backends`.
"""

from .backends import (
    BoundedSimplexBackend,
    HighsBackend,
    LpBackend,
    LpProblem,
    ReferenceSimplexBackend,
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
    "solve_bounded",
    "solve_lp_maximize",
]
