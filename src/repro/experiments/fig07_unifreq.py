"""Figure 7: UniFreq — power (a) and ED^2 (b) relative to Random.

All cores run at the slowest core's frequency (no DVFS); the policies
that minimise power are Random (baseline), VarP and VarP&AppP, across
2-20 threads. Paper shape: VarP saves ~10 % power at light load (4
threads), savings shrink as load grows and vanish at 20 threads;
VarP&AppP tracks VarP; ED^2 follows power (frequency is unchanged).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Sequence, Tuple

from ..runtime.evaluation import evaluate_uniform_frequency
from ..sched import RandomPolicy, VarP, VarPAppP
from .common import (
    ChipFactory,
    default_n_dies,
    default_n_trials,
    format_rows,
)
from .sched_runner import PolicyAverages, run_policy_comparison

THREAD_COUNTS: Tuple[int, ...] = (2, 4, 8, 16, 20)
POLICY_ORDER = ("Random", "VarP", "VarP&AppP")


@dataclass(frozen=True)
class Fig07Result:
    """Baseline-normalised power and ED^2 per (threads, policy)."""

    results: Dict[int, Dict[str, PolicyAverages]]

    def format_table(self) -> str:
        rows_a = []
        rows_b = []
        for nt in sorted(self.results):
            per = self.results[nt]
            rows_a.append([nt] + [per[p].power for p in POLICY_ORDER])
            rows_b.append([nt] + [per[p].ed2 for p in POLICY_ORDER])
        header = ["threads"] + list(POLICY_ORDER)
        return "\n".join([
            format_rows(header, rows_a,
                        "Figure 7(a): UniFreq total power relative to "
                        "Random (paper: VarP ~0.90 at 4T, ~1.0 at 20T)"),
            "",
            format_rows(header, rows_b,
                        "Figure 7(b): UniFreq ED^2 relative to Random "
                        "(follows the power savings)"),
        ])


def run(
    n_trials: Optional[int] = None,
    n_dies: Optional[int] = None,
    thread_counts: Sequence[int] = THREAD_COUNTS,
    factory: Optional[ChipFactory] = None,
    seed: int = 0,
) -> Fig07Result:
    """Reproduce Figure 7."""
    n_trials = n_trials or default_n_trials()
    n_dies = n_dies or min(default_n_dies(), n_trials)
    factory = factory or ChipFactory()
    policies = (RandomPolicy(), VarP(), VarPAppP())
    results = {}
    for nt in thread_counts:
        results[nt] = run_policy_comparison(
            factory, policies, evaluate_uniform_frequency, nt, n_trials,
            n_dies, seed=seed, experiment="fig7")
    return Fig07Result(results=results)
