"""Figure 8: NUniFreq — power (a) and ED^2 (b) relative to Random.

Each core runs at its own maximum frequency (no DVFS); the power-
minimising policies are compared as in Figure 7. Paper shape: VarP /
VarP&AppP save ~14 % power at 4 threads, less with more threads, and
their ED^2 advantage is smaller than in UniFreq because picking the
lowest-leakage cores also tends to pick lower-frequency ones.
"""

from __future__ import annotations

from typing import Optional, Sequence

from ..runtime.evaluation import evaluate_max_levels
from ..sched import RandomPolicy, VarP, VarPAppP
from .common import ChipFactory, SweepResult
from .fig07_unifreq import THREAD_COUNTS
from .sched_runner import sweep_policies


def run(
    n_trials: Optional[int] = None,
    n_dies: Optional[int] = None,
    thread_counts: Sequence[int] = THREAD_COUNTS,
    factory: Optional[ChipFactory] = None,
    seed: int = 0,
) -> SweepResult:
    """Reproduce Figure 8."""
    return sweep_policies(
        "fig8", (RandomPolicy(), VarP(), VarPAppP()), evaluate_max_levels,
        (("power", "Figure 8(a): NUniFreq total power relative to Random "
                   "(paper: ~0.86 at 4T)"),
         ("ed2", "Figure 8(b): NUniFreq ED^2 relative to Random "
                 "(smaller gains than Fig 7b)")),
        thread_counts, n_trials, n_dies, factory, seed)
