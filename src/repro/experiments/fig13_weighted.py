"""Figure 13: weighted throughput (a) and weighted ED^2 (b).

Same experiment as Figure 11 but with weighted throughput "as the
optimisation goal" (Section 7.5): LinOpt's LP objective and SAnn's
energy maximise per-thread throughput normalised to its reference
throughput — fair to low-IPC applications — and the reported metrics
are the weighted ones. Paper shape: very similar to Figure 11 with
slightly smaller improvements (9-14 % weighted MIPS, 24-33 % weighted
ED^2 for LinOpt).
"""

from __future__ import annotations

from typing import Optional, Sequence

from ..config import COST_PERFORMANCE, PowerEnvironment
from .common import ChipFactory, SweepResult
from .fig11_dvfs import THREAD_COUNTS
from .pm_runner import sweep_algorithms


def run(
    n_trials: Optional[int] = None,
    n_dies: Optional[int] = None,
    thread_counts: Sequence[int] = THREAD_COUNTS,
    env: PowerEnvironment = COST_PERFORMANCE,
    include_sann: bool = True,
    protocol: str = "online",
    factory: Optional[ChipFactory] = None,
    seed: int = 0,
) -> SweepResult:
    """Reproduce Figure 13."""
    return sweep_algorithms(
        "fig13", {nt: (env, nt) for nt in sorted(thread_counts)}, "threads",
        (("weighted_mips", "Figure 13(a): weighted throughput relative to "
                           f"Random+Foxton* ({env.name}; paper: LinOpt "
                           "1.09-1.14, slightly below Fig 11a)"),
         ("weighted_ed2", "Figure 13(b): weighted ED^2 relative to "
                          "Random+Foxton* (paper: LinOpt 0.67-0.76)")),
        n_trials, n_dies, include_sann, protocol, objective="weighted",
        factory=factory, seed=seed)
