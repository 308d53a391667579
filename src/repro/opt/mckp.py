"""Exact multiple-choice knapsack (MCKP) solver.

The frozen-temperature DVFS-assignment problem is an MCKP: from each
thread's class of (power, throughput) operating points choose exactly
one per thread, maximising total throughput subject to a total power
budget. This module solves it *exactly* with the classical MCKP
branch and bound:

* classes are preprocessed with dominance pruning (a point costing
  more power for less throughput can never be chosen) and their upper
  convex hulls are extracted — on the hull, incremental efficiencies
  decrease, which makes Dantzig's greedy LP bound exact;
* each node evaluates the LP relaxation by walking a single globally
  pre-sorted list of hull upgrades (skipping fixed classes); the LP
  optimum is fractional in at most one class;
* branching fixes that *fractional class* to each of its items. When
  the LP optimum is integral it is also feasible, so the node yields
  an incumbent directly and closes.

Used by :class:`repro.pm.optimal.OptimalFrozen` as an exact reference
point between LinOpt's LP heuristic and the full thermally-coupled
SAnn search.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

EPS = 1e-12
# Safety cap on the nodes one branch-and-bound solve explores.
NODE_LIMIT = 200_000


@dataclass(frozen=True)
class MckpItem:
    """One operating point: its weight (power) and value (throughput).

    ``index`` is the caller's identifier (the DVFS level).
    """

    index: int
    weight: float
    value: float


@dataclass(frozen=True)
class MckpSolution:
    """Exact MCKP outcome.

    Attributes:
        choice: Chosen item ``index`` per class (None if infeasible).
        value: Total value of the chosen items.
        weight: Total weight of the chosen items.
        nodes: Branch-and-bound nodes explored.
    """

    choice: Optional[Tuple[int, ...]]
    value: float
    weight: float
    nodes: int

    @property
    def is_feasible(self) -> bool:
        return self.choice is not None


def _prepare_class(items: Sequence[MckpItem]) -> List[MckpItem]:
    """Sort by weight and drop dominated items."""
    if not items:
        raise ValueError("empty MCKP class")
    by_weight = sorted(items, key=lambda it: (it.weight, -it.value))
    kept: List[MckpItem] = []
    best_value = -np.inf
    for item in by_weight:
        if item.value > best_value:
            kept.append(item)
            best_value = item.value
    return kept


def _upper_hull(cls: Sequence[MckpItem]) -> List[MckpItem]:
    """Upper convex hull of a dominance-pruned class in (w, v) space."""
    hull: List[MckpItem] = []
    for item in cls:  # sorted by weight, value strictly increasing
        while len(hull) >= 2:
            a, b = hull[-2], hull[-1]
            lhs = (item.value - a.value) * (b.weight - a.weight)
            rhs = (b.value - a.value) * (item.weight - a.weight)
            if lhs >= rhs:
                hull.pop()
            else:
                break
        hull.append(item)
    return hull


@dataclass(frozen=True)
class _Upgrade:
    """A hull step of one class: pay dw weight for dv value."""

    cls: int
    step: int  # index within the class hull (to item step+1)
    dw: float
    dv: float

    @property
    def efficiency(self) -> float:
        return self.dv / self.dw


class _Instance:
    """Preprocessed problem shared by all nodes."""

    def __init__(self, classes: Sequence[Sequence[MckpItem]]) -> None:
        self.classes = [_prepare_class(c) for c in classes]
        self.hulls = [_upper_hull(c) for c in self.classes]
        upgrades: List[_Upgrade] = []
        for ci, hull in enumerate(self.hulls):
            for si in range(len(hull) - 1):
                dw = hull[si + 1].weight - hull[si].weight
                dv = hull[si + 1].value - hull[si].value
                if dw > EPS:
                    upgrades.append(_Upgrade(ci, si, dw, dv))
        # Tie-break by (class, step) so a class's equal-efficiency
        # upgrades stay in step order — the greedy walk requires it.
        self.upgrades = sorted(
            upgrades, key=lambda u: (-u.efficiency, u.cls, u.step))
        self.n = len(self.classes)


def _lp_relaxation(inst: _Instance, fixed: Dict[int, MckpItem],
                   capacity: float):
    """Greedy LP bound over the unfixed classes.

    Returns ``(bound, fractional_class, hull_steps)`` where
    ``hull_steps[c]`` is the hull position the greedy reached for each
    unfixed class (the integral LP choice when no class is
    fractional), or ``(-inf, None, None)`` when infeasible.
    """
    weight = 0.0
    value = 0.0
    for item in fixed.values():
        weight += item.weight
        value += item.value
    steps: Dict[int, int] = {}
    for ci in range(inst.n):
        if ci in fixed:
            continue
        base = inst.hulls[ci][0]
        weight += base.weight
        value += base.value
        steps[ci] = 0
    if weight > capacity + 1e-9:
        return -np.inf, None, None
    remaining = capacity - weight
    for up in inst.upgrades:
        if up.cls in fixed:
            continue
        if steps[up.cls] != up.step:
            continue  # earlier hull step was skipped: not applicable
        if up.dw <= remaining + EPS:
            remaining -= up.dw
            value += up.dv
            steps[up.cls] = up.step + 1
        else:
            value += up.efficiency * remaining
            return value, up.cls, steps
    return value, None, steps


def solve_mckp(
    classes: Sequence[Sequence[MckpItem]],
    capacity: float,
) -> MckpSolution:
    """Solve the MCKP exactly.

    Args:
        classes: One sequence of items per class; exactly one item per
            class must be chosen.
        capacity: Total weight budget.

    Returns:
        An :class:`MckpSolution`; ``choice`` is None when even the
        lightest selection exceeds the capacity.
    """
    if not classes:
        raise ValueError("need at least one class")
    inst = _Instance(classes)

    best_value = -np.inf
    best_fixed: Optional[Dict[int, MckpItem]] = None
    nodes = 0

    def consider_integral(fixed: Dict[int, MckpItem],
                          steps: Dict[int, int], value: float) -> None:
        nonlocal best_value, best_fixed
        if value > best_value + EPS:
            full = dict(fixed)
            for ci, step in steps.items():
                full[ci] = inst.hulls[ci][step]
            best_value = value
            best_fixed = full

    stack: List[Dict[int, MckpItem]] = [{}]
    while stack:
        fixed = stack.pop()
        nodes += 1
        if nodes > NODE_LIMIT:
            raise RuntimeError("MCKP node limit exceeded")
        bound, frac_cls, steps = _lp_relaxation(inst, fixed, capacity)
        if bound <= best_value + 1e-11:
            continue
        if frac_cls is None:
            # LP optimum integral -> feasible incumbent; node closed.
            consider_integral(fixed, steps, bound)
            continue
        # Branch: fix the fractional class to each of its items
        # (including non-hull items, which only branching can reach).
        for item in inst.classes[frac_cls]:
            child = dict(fixed)
            child[frac_cls] = item
            stack.append(child)

    if best_fixed is None:
        return MckpSolution(choice=None, value=-np.inf, weight=np.inf,
                            nodes=nodes)
    choice = [0] * inst.n
    total_weight = 0.0
    for ci, item in best_fixed.items():
        choice[ci] = item.index
        total_weight += item.weight
    return MckpSolution(choice=tuple(choice), value=float(best_value),
                        weight=float(total_weight), nodes=nodes)
