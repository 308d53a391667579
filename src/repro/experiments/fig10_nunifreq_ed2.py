"""Figure 10: NUniFreq ED^2 for the performance policies.

Same experiment as Figure 9, reporting ED^2 relative to Random. Paper
shape: at light load (<= 4 threads) VarF / VarF&AppIPC *increase* ED^2
(the fast cores they pick burn disproportionate power); at 8-20
threads VarF&AppIPC lowers ED^2 by 10-13 % thanks to its throughput
gains.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Sequence

from ..runtime.evaluation import evaluate_max_levels
from ..sched import RandomPolicy, VarF, VarFAppIPC
from .common import (
    ChipFactory,
    default_n_dies,
    default_n_trials,
    format_rows,
)
from .fig09_nunifreq_perf import POLICY_ORDER, THREAD_COUNTS
from .sched_runner import PolicyAverages, run_policy_comparison


@dataclass(frozen=True)
class Fig10Result:
    results: Dict[int, Dict[str, PolicyAverages]]

    def format_table(self) -> str:
        rows = []
        for nt in sorted(self.results):
            per = self.results[nt]
            rows.append([nt] + [per[p].ed2 for p in POLICY_ORDER])
        header = ["threads"] + list(POLICY_ORDER)
        return format_rows(
            header, rows,
            "Figure 10: NUniFreq ED^2 relative to Random (paper: "
            "VarF&AppIPC above 1.0 at <=4T, 0.87-0.90 at 8-20T)")


def run(
    n_trials: Optional[int] = None,
    n_dies: Optional[int] = None,
    thread_counts: Sequence[int] = THREAD_COUNTS,
    factory: Optional[ChipFactory] = None,
    seed: int = 0,
) -> Fig10Result:
    """Reproduce Figure 10."""
    n_trials = n_trials or default_n_trials()
    n_dies = n_dies or min(default_n_dies(), n_trials)
    factory = factory or ChipFactory()
    policies = (RandomPolicy(), VarF(), VarFAppIPC())
    results = {}
    for nt in thread_counts:
        results[nt] = run_policy_comparison(
            factory, policies, evaluate_max_levels, nt, n_trials, n_dies,
            seed=seed, experiment="fig10")
    return Fig10Result(results=results)
