"""Figure 14: power deviation from Ptarget vs LinOpt interval.

Runs the online simulation with LinOpt invoked at intervals from 2 s
down to 10 ms, for 4- and 20-thread workloads, and reports the mean
absolute deviation of consumed power from Ptarget (sampled every ms,
as the paper measures). Paper shape: deviation shrinks monotonically
as the interval shrinks, below ~1 % at 10 ms; the 4-thread runs
deviate more than the 20-thread runs at long intervals (fewer threads
average out less phase noise). Each thread count is one
:func:`~repro.experiments.common.trial_table` call (campaign
``fig14``) with the intervals as its methods.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from ..config import COST_PERFORMANCE, PowerEnvironment
from ..pm import LinOpt, LinOptConfig
from ..runtime.simulation import (
    TRANSITION_LATENCY_PER_LEVEL_S,
    OnlineSimulation,
)
from ..sched import VarFAppIPC
from .common import Arm, ChipFactory, format_rows, trial_table

INTERVALS_S: Tuple[float, ...] = (2.0, 1.0, 0.5, 0.1, 0.01)
THREAD_COUNTS: Tuple[int, ...] = (4, 20)
# Simulated duration spans several manager intervals but is capped to
# keep the experiment tractable (the paper simulates far longer runs).
MIN_DURATION_S = 0.08
DURATION_INTERVALS = 2.5


@dataclass(frozen=True)
class Fig14Result:
    """Mean |P - Ptarget| (%) per (interval, thread count)."""

    intervals_s: Tuple[float, ...]
    deviation_pct: Dict[int, Tuple[float, ...]]

    def format_table(self) -> str:
        rows = []
        for idx, interval in enumerate(self.intervals_s):
            label = (f"{interval:.0f}s" if interval >= 1
                     else f"{interval*1000:.0f}ms")
            rows.append([label] + [self.deviation_pct[nt][idx]
                                   for nt in sorted(self.deviation_pct)])
        header = ["interval"] + [f"{nt} threads"
                                 for nt in sorted(self.deviation_pct)]
        return format_rows(
            header, rows,
            "Figure 14: mean |power - Ptarget| (% of Ptarget) vs LinOpt "
            "interval (paper: monotonically decreasing, <1% at 10 ms)")


def run(
    intervals_s: Sequence[float] = INTERVALS_S,
    thread_counts: Sequence[int] = THREAD_COUNTS,
    env: PowerEnvironment = COST_PERFORMANCE,
    n_trials: int = 2,
    factory: Optional[ChipFactory] = None,
    seed: int = 0,
) -> Fig14Result:
    """Reproduce Figure 14."""
    factory = factory or ChipFactory()
    intervals = [Arm(f"{interval!r}s", interval) for interval in intervals_s]

    def measure(interval: Arm, trial: int, chip, workload, _rng):
        rng = np.random.default_rng([seed, trial, 37])
        assignment = VarFAppIPC().assign_with_profiling(chip, workload, rng)
        sim = OnlineSimulation(
            chip, workload, assignment, env,
            manager=LinOpt(LinOptConfig(n_iterations=3)),
            phase_seed=seed * 100 + trial)
        duration = max(DURATION_INTERVALS * interval.spec, MIN_DURATION_S)
        return [sim.run(duration, interval.spec).mean_abs_deviation_pct]

    deviation: Dict[int, Tuple[float, ...]] = {}
    for nt in thread_counts:
        table = trial_table(
            factory, intervals, measure, n_threads=nt, n_trials=n_trials,
            n_dies=n_trials, seed=seed, workload_tag=31,
            experiment="fig14", name_field="interval",
            key_fields={"env": repr(sorted(asdict(env).items())),
                        "transition_latency_s":
                        TRANSITION_LATENCY_PER_LEVEL_S})
        deviation[nt] = tuple(float(v) for v in table.mean(axis=0).ravel())
    return Fig14Result(intervals_s=tuple(intervals_s),
                       deviation_pct=deviation)
