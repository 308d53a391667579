"""The LP engines behind LinOpt's per-interval solves.

LinOpt re-solves a near-identical LP every 10 ms interval (Section
4.3.1), so the solver sits on a hot path *and* feeds Fig. 15's
flops-to-time model. Each engine implements :class:`LpBackend`:

* :class:`BoundedSimplexBackend` — :func:`repro.linprog.bounded.solve_bounded`
  with warm-started re-solves, carrying a :class:`WarmState` across
  calls; the engine every LinOpt uses unless handed another;
* :class:`ReferenceSimplexBackend` —
  :func:`repro.linprog.simplex.solve_lp_maximize`, the bitwise
  reference (upper bounds appended as rows) and Fig. 15's textbook
  configuration;
* :class:`HighsBackend` — ``scipy.optimize.linprog(method="highs")``,
  the cross-check of the from-scratch engines.

Callers that want another engine pass an instance to
``LinOpt(lp_backend=...)``.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .bounded import WarmState, solve_bounded
from .simplex import (
    STATUS_INFEASIBLE,
    STATUS_OPTIMAL,
    STATUS_UNBOUNDED,
    LpResult,
    solve_lp_maximize,
)


@dataclass(frozen=True)
class LpProblem:
    """One LinOpt-shaped LP: maximise ``c @ x`` under row constraints.

    Attributes:
        c: Objective coefficients, shape (n,).
        a_ub: Inequality matrix (``a_ub @ x <= b_ub``), shape (m, n).
        b_ub: Inequality right-hand sides, shape (m,).
        upper: Optional per-variable upper bounds (``0 <= x <= upper``;
            ``None`` leaves variables unbounded above).
    """

    c: np.ndarray
    a_ub: np.ndarray
    b_ub: np.ndarray
    upper: Optional[np.ndarray] = None


class LpBackend(ABC):
    """Interface every LP engine implements.

    Backends may keep cross-solve state: the bounded engine carries the
    previous optimal basis for warm starts.
    """

    #: Short name recorded in ``LpResult.backend``.
    name: str = "abstract"

    @abstractmethod
    def solve(self, problem: LpProblem) -> LpResult:
        """Solve one problem and return an :class:`LpResult`."""


class ReferenceSimplexBackend(LpBackend):
    """The from-scratch two-phase tableau solver (bitwise reference)."""

    name = "reference"

    def solve(self, problem: LpProblem) -> LpResult:
        """Cold-solve via :func:`solve_lp_maximize`."""
        return solve_lp_maximize(problem.c, problem.a_ub,
                                 problem.b_ub, upper=problem.upper)


class BoundedSimplexBackend(LpBackend):
    """Bounded-variable engine with warm-started re-solves.

    Holds the :class:`WarmState` from the previous optimal solve and
    feeds it to the next call; :func:`solve_bounded` validates it
    against the new data and silently falls back to a cold solve when
    it is stale, so correctness never depends on the carried state.
    """

    name = "bounded"

    def __init__(self) -> None:
        self._warm: Optional[WarmState] = None

    def solve(self, problem: LpProblem) -> LpResult:
        """Solve, reusing the previous basis when it is still valid."""
        result, self._warm = solve_bounded(
            problem.c, problem.a_ub, problem.b_ub,
            upper=problem.upper, warm=self._warm)
        return result


class HighsBackend(LpBackend):
    """``scipy.optimize.linprog`` (HiGHS) cross-check backend.

    Reports ``flops=0`` — HiGHS does not expose a work count, so
    Fig. 15's flops-to-time model has nothing to convert (the
    experiment documents this; see EXPERIMENTS.md).
    """

    name = "highs"

    # scipy linprog status codes -> our status strings.
    _STATUS_MAP = {
        0: STATUS_OPTIMAL,
        2: STATUS_INFEASIBLE,
        3: STATUS_UNBOUNDED,
    }

    def solve(self, problem: LpProblem) -> LpResult:
        """Solve via HiGHS."""
        from scipy.optimize import linprog

        c = np.asarray(problem.c, dtype=float)
        n = c.size
        if problem.upper is None:
            bounds = [(0.0, None)] * n
        else:
            upper = np.asarray(problem.upper, dtype=float)
            bounds = [(0.0, float(u)) for u in upper]
        res = linprog(-c, A_ub=problem.a_ub, b_ub=problem.b_ub,
                      bounds=bounds, method="highs")
        status = self._STATUS_MAP.get(int(res.status),
                                      STATUS_INFEASIBLE)
        iterations = int(res.nit) if res.nit is not None else 0
        if status != STATUS_OPTIMAL or res.x is None:
            return LpResult(status, np.zeros(n), float("nan"),
                            iterations, 0, backend=self.name)
        x = np.asarray(res.x, dtype=float)
        return LpResult(STATUS_OPTIMAL, x, float(c @ x),
                        iterations, 0, backend=self.name)
