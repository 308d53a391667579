"""Pluggable LP backend seam for LinOpt's per-interval solves.

LinOpt re-solves a near-identical LP every 10 ms interval (Section
4.3.1), so the solver sits on a hot path *and* feeds Fig. 15's
flops-to-time model. This module wraps the available engines behind a
single :class:`LpBackend` interface so the power manager can swap
between them without caring which is active:

* ``reference`` — :func:`repro.linprog.simplex.solve_lp_maximize`,
  the bitwise reference (upper bounds appended as rows);
* ``bounded`` (default) — :func:`repro.linprog.bounded.solve_bounded`
  with warm-started re-solves, carrying a :class:`WarmState` across
  calls;
* ``highs`` — ``scipy.optimize.linprog(method="highs")``, optional and
  import-guarded; used to cross-check the from-scratch engines.

The active backend is chosen by :func:`make_backend`, which reads
``settings().lp_backend`` (``REPRO_LP_BACKEND``, default ``bounded``;
see :mod:`repro.settings`) when no explicit spec is given.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

from ..settings import settings
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

    Backends may keep cross-solve state (the bounded engine carries the
    previous optimal basis for warm starts); :meth:`reset` drops it,
    e.g. when the caller switches to an unrelated problem sequence.
    """

    #: Short name recorded in ``LpResult.backend``.
    name: str = "abstract"

    @abstractmethod
    def solve(self, problem: LpProblem) -> LpResult:
        """Solve one problem and return an :class:`LpResult`."""

    def reset(self) -> None:
        """Drop any cross-solve state (no-op for stateless backends)."""


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

    def __init__(self, warm_start: bool = True) -> None:
        """``warm_start=False`` forces every solve cold (for tests)."""
        self.warm_start = warm_start
        self._warm: Optional[WarmState] = None

    def solve(self, problem: LpProblem) -> LpResult:
        """Solve, reusing the previous basis when it is still valid."""
        warm = self._warm if self.warm_start else None
        result, self._warm = solve_bounded(
            problem.c, problem.a_ub, problem.b_ub,
            upper=problem.upper, warm=warm)
        return result

    def reset(self) -> None:
        """Discard the carried warm-start basis."""
        self._warm = None


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

    @staticmethod
    def available() -> bool:
        """Whether scipy's ``linprog`` can be imported."""
        try:
            from scipy.optimize import linprog  # noqa: F401
        except ImportError:  # pragma: no cover - scipy is a core dep
            return False
        return True

    def solve(self, problem: LpProblem) -> LpResult:
        """Solve via HiGHS; raises ImportError when scipy is absent."""
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


_REGISTRY = {
    "reference": ReferenceSimplexBackend,
    "bounded": BoundedSimplexBackend,
    "highs": HighsBackend,
}


def make_backend(
    spec: Union[str, LpBackend, None] = None,
) -> LpBackend:
    """Resolve a backend spec into a fresh :class:`LpBackend`.

    Args:
        spec: A backend name (``"reference"``, ``"bounded"``,
            ``"highs"``), an existing :class:`LpBackend` instance
            (returned as-is, so callers can inject configured or mock
            backends), or ``None`` for ``settings().lp_backend``
            (``REPRO_LP_BACKEND``, default ``"bounded"``).

    Returns:
        An :class:`LpBackend` ready to solve.

    Raises:
        ValueError: for an unknown backend name.
        ImportError: for ``"highs"`` when scipy is not installed.
    """
    if isinstance(spec, LpBackend):
        return spec
    name = (spec.strip().lower() if spec is not None
            else settings().lp_backend)
    if name not in _REGISTRY:
        raise ValueError(
            f"unknown LP backend {name!r}; expected one of "
            f"{sorted(_REGISTRY)}")
    if name == "highs" and not HighsBackend.available():
        raise ImportError(
            "LP backend 'highs' requires scipy.optimize.linprog")
    return _REGISTRY[name]()
