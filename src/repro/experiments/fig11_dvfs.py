"""Figure 11: NUniFreq+DVFS throughput (a) and ED^2 (b), Cost-Perf.

Average throughput and ED^2 of the four power-budget algorithms,
normalised to Random+Foxton*, in the Cost-Performance environment
(75 W at 20 threads, scaled with thread count), for 4-20 threads.

Paper shape to reproduce: VarF&AppIPC+Foxton* gains only 4-6 %;
VarF&AppIPC+LinOpt is markedly better (paper: 12-17 % MIPS, 30-38 %
ED^2 reduction); SAnn is within ~2 % of LinOpt despite orders of
magnitude more computation.
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

from ..config import COST_PERFORMANCE, PowerEnvironment
from .common import ChipFactory, SweepResult
from .pm_runner import sweep_algorithms

THREAD_COUNTS: Tuple[int, ...] = (4, 8, 16, 20)


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
    """Reproduce Figure 11."""
    return sweep_algorithms(
        "fig11", {nt: (env, nt) for nt in sorted(thread_counts)}, "threads",
        (("mips", "Figure 11(a): throughput relative to Random+Foxton* "
                  f"({env.name}; paper: LinOpt 1.12-1.17, Foxton* "
                  "1.04-1.06)"),
         ("ed2", "Figure 11(b): ED^2 relative to Random+Foxton* "
                 "(paper: LinOpt 0.62-0.70)")),
        n_trials, n_dies, include_sann, protocol, factory=factory,
        seed=seed)
