"""Figure 7: UniFreq — power (a) and ED^2 (b) relative to Random.

All cores run at the slowest core's frequency (no DVFS); the policies
that minimise power are Random (baseline), VarP and VarP&AppP, across
2-20 threads. Paper shape: VarP saves ~10 % power at light load (4
threads), savings shrink as load grows and vanish at 20 threads;
VarP&AppP tracks VarP; ED^2 follows power (frequency is unchanged).
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

from ..runtime.evaluation import evaluate_uniform_frequency
from ..sched import RandomPolicy, VarP, VarPAppP
from .common import ChipFactory, SweepResult
from .sched_runner import sweep_policies

THREAD_COUNTS: Tuple[int, ...] = (2, 4, 8, 16, 20)


def run(
    n_trials: Optional[int] = None,
    n_dies: Optional[int] = None,
    thread_counts: Sequence[int] = THREAD_COUNTS,
    factory: Optional[ChipFactory] = None,
    seed: int = 0,
) -> SweepResult:
    """Reproduce Figure 7."""
    return sweep_policies(
        "fig7", (RandomPolicy(), VarP(), VarPAppP()),
        evaluate_uniform_frequency,
        (("power", "Figure 7(a): UniFreq total power relative to Random "
                   "(paper: VarP ~0.90 at 4T, ~1.0 at 20T)"),
         ("ed2", "Figure 7(b): UniFreq ED^2 relative to Random "
                 "(follows the power savings)")),
        thread_counts, n_trials, n_dies, factory, seed)
