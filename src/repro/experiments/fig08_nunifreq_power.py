"""Figure 8: NUniFreq — power (a) and ED^2 (b) relative to Random.

Each core runs at its own maximum frequency (no DVFS); the power-
minimising policies are compared as in Figure 7. Paper shape: VarP /
VarP&AppP save ~14 % power at 4 threads, less with more threads, and
their ED^2 advantage is smaller than in UniFreq because picking the
lowest-leakage cores also tends to pick lower-frequency ones.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Sequence, Tuple

from ..runtime.evaluation import evaluate_max_levels
from ..sched import RandomPolicy, VarP, VarPAppP
from .common import (
    ChipFactory,
    default_n_dies,
    default_n_trials,
    format_rows,
)
from .fig07_unifreq import POLICY_ORDER, THREAD_COUNTS
from .sched_runner import PolicyAverages, run_policy_comparison


@dataclass(frozen=True)
class Fig08Result:
    results: Dict[int, Dict[str, PolicyAverages]]

    def format_table(self) -> str:
        rows_a, rows_b = [], []
        for nt in sorted(self.results):
            per = self.results[nt]
            rows_a.append([nt] + [per[p].power for p in POLICY_ORDER])
            rows_b.append([nt] + [per[p].ed2 for p in POLICY_ORDER])
        header = ["threads"] + list(POLICY_ORDER)
        return "\n".join([
            format_rows(header, rows_a,
                        "Figure 8(a): NUniFreq total power relative to "
                        "Random (paper: ~0.86 at 4T)"),
            "",
            format_rows(header, rows_b,
                        "Figure 8(b): NUniFreq ED^2 relative to Random "
                        "(smaller gains than Fig 7b)"),
        ])


def run(
    n_trials: Optional[int] = None,
    n_dies: Optional[int] = None,
    thread_counts: Sequence[int] = THREAD_COUNTS,
    factory: Optional[ChipFactory] = None,
    seed: int = 0,
) -> Fig08Result:
    """Reproduce Figure 8."""
    n_trials = n_trials or default_n_trials()
    n_dies = n_dies or min(default_n_dies(), n_trials)
    factory = factory or ChipFactory()
    policies = (RandomPolicy(), VarP(), VarPAppP())
    results = {}
    for nt in thread_counts:
        results[nt] = run_policy_comparison(
            factory, policies, evaluate_max_levels, nt, n_trials, n_dies,
            seed=seed, experiment="fig8")
    return Fig08Result(results=results)
