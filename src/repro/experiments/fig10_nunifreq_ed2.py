"""Figure 10: NUniFreq ED^2 for the performance policies.

Same experiment as Figure 9, reporting ED^2 relative to Random. Paper
shape: at light load (<= 4 threads) VarF / VarF&AppIPC *increase* ED^2
(the fast cores they pick burn disproportionate power); at 8-20
threads VarF&AppIPC lowers ED^2 by 10-13 % thanks to its throughput
gains.
"""

from __future__ import annotations

from typing import Optional, Sequence

from ..runtime.evaluation import evaluate_max_levels
from ..sched import RandomPolicy, VarF, VarFAppIPC
from .common import ChipFactory, SweepResult
from .fig09_nunifreq_perf import THREAD_COUNTS
from .sched_runner import sweep_policies


def run(
    n_trials: Optional[int] = None,
    n_dies: Optional[int] = None,
    thread_counts: Sequence[int] = THREAD_COUNTS,
    factory: Optional[ChipFactory] = None,
    seed: int = 0,
) -> SweepResult:
    """Reproduce Figure 10."""
    return sweep_policies(
        "fig10", (RandomPolicy(), VarF(), VarFAppIPC()),
        evaluate_max_levels,
        (("ed2", "Figure 10: NUniFreq ED^2 relative to Random (paper: "
                 "VarF&AppIPC above 1.0 at <=4T, 0.87-0.90 at 8-20T)"),),
        thread_counts, n_trials, n_dies, factory, seed)
