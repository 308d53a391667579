"""Figure 12: throughput across the three Power Environments.

All algorithms at 20 threads, normalised to Random+Foxton*, for the
Low Power (50 W), Cost-Performance (75 W) and High Performance (100 W)
budgets. Paper shape: the relative gains of VarF&AppIPC+LinOpt are
largest at the tightest budget (16 % / 12 % / 11 %).
"""

from __future__ import annotations

from typing import Optional

from ..config import POWER_ENVIRONMENTS
from .common import ChipFactory, SweepResult
from .pm_runner import sweep_algorithms


def run(
    n_trials: Optional[int] = None,
    n_dies: Optional[int] = None,
    n_threads: int = 20,
    include_sann: bool = True,
    protocol: str = "online",
    factory: Optional[ChipFactory] = None,
    seed: int = 0,
) -> SweepResult:
    """Reproduce Figure 12."""
    return sweep_algorithms(
        "fig12",
        {env.name: (env, n_threads) for env in POWER_ENVIRONMENTS},
        "power target",
        (("mips", "Figure 12: throughput relative to Random+Foxton*, 20 "
                  "threads (paper: LinOpt 1.16/1.12/1.11 across "
                  "50/75/100 W)"),),
        n_trials, n_dies, include_sann, protocol, factory=factory,
        seed=seed)
