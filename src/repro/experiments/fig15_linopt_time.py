"""Figure 15: LinOpt execution time vs thread count and environment.

The paper reports the Simplex solve time on a 4 GHz core (up to ~6 us
at 20 threads, growing with thread count and with looser power
budgets). Our Simplex is instrumented with a floating-point-operation
counter; the modelled time is ``flops / (4 GHz * FLOPS_PER_CYCLE)``.
We report the modelled time of a single LP solve (LinOpt's successive
passes each solve one such LP), plus the measured Python wall time for
reference.

The flop counter follows the unified accounting rules of
:mod:`repro.linprog.simplex`, so modelled times are comparable across
the simplex engines (``lp_backend`` takes an engine class, e.g.
:class:`~repro.linprog.ReferenceSimplexBackend`). Each invocation here
is a *cold* solve — a fresh manager and a fresh engine per trial,
matching the paper's single-invocation measurement — so the bounded
engine's warm-start savings do not appear in this figure.
:class:`~repro.linprog.HighsBackend` reports ``flops=0`` (no work
counter) and would model as 0 us; use the from-scratch engines for
Fig. 15.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple, Type

import numpy as np

from ..config import POWER_ENVIRONMENTS, PowerEnvironment
from ..linprog import BoundedSimplexBackend, LpBackend
from ..pm import LinOpt, LinOptConfig
from ..sched import VarFAppIPC
from ..workloads import make_workload
from .common import ChipFactory, format_rows

THREAD_COUNTS: Tuple[int, ...] = (1, 2, 4, 8, 16, 20)
# Sustained flops per cycle of the 4 GHz management core running the
# dense Simplex inner loop.
FLOPS_PER_CYCLE = 1.0
CLOCK_HZ = 4.0e9


@dataclass(frozen=True)
class Fig15Result:
    """Modelled single-LP solve time (us) per (threads, environment)."""

    thread_counts: Tuple[int, ...]
    modelled_us: Dict[str, Tuple[float, ...]]
    wall_us: Dict[str, Tuple[float, ...]]

    def format_table(self) -> str:
        env_names = list(self.modelled_us)
        rows = []
        for idx, nt in enumerate(self.thread_counts):
            rows.append([nt] + [self.modelled_us[e][idx]
                                for e in env_names])
        header = ["threads"] + [f"{e} (us)" for e in env_names]
        return format_rows(
            header, rows,
            "Figure 15: modelled LinOpt LP solve time on a 4 GHz core "
            "(paper: grows with threads, <=6 us at 20 threads)")


def run(
    thread_counts: Sequence[int] = THREAD_COUNTS,
    environments: Sequence[PowerEnvironment] = POWER_ENVIRONMENTS,
    n_trials: int = 4,
    factory: Optional[ChipFactory] = None,
    seed: int = 0,
    lp_backend: Type[LpBackend] = BoundedSimplexBackend,
) -> Fig15Result:
    """Reproduce Figure 15.

    ``lp_backend`` is the LP engine class to instrument; each trial
    builds a fresh manager around a fresh engine, so every solve is
    cold regardless of the engine's warm-start support.
    """
    factory = factory or ChipFactory()
    factory.prefetch(n_trials)
    modelled: Dict[str, List[float]] = {e.name: [] for e in environments}
    wall: Dict[str, List[float]] = {e.name: [] for e in environments}
    for nt in thread_counts:
        for env in environments:
            flops_samples = []
            wall_samples = []
            for trial in range(n_trials):
                chip = factory.chip(trial)
                workload = make_workload(
                    nt, np.random.default_rng([seed, trial, 41]))
                rng = np.random.default_rng([seed, trial, 43])
                assignment = VarFAppIPC().assign_with_profiling(
                    chip, workload, rng)
                manager = LinOpt(LinOptConfig(n_iterations=1,
                                              refill=False),
                                 lp_backend=lp_backend())
                t0 = time.perf_counter()
                result = manager.set_levels(chip, workload, assignment,
                                            env, rng)
                wall_samples.append((time.perf_counter() - t0) * 1e6)
                flops_samples.append(result.stats["lp_flops"])
            mean_flops = float(np.mean(flops_samples))
            modelled[env.name].append(
                mean_flops / (CLOCK_HZ * FLOPS_PER_CYCLE) * 1e6)
            wall[env.name].append(float(np.mean(wall_samples)))
    return Fig15Result(
        thread_counts=tuple(thread_counts),
        modelled_us={k: tuple(v) for k, v in modelled.items()},
        wall_us={k: tuple(v) for k, v in wall.items()},
    )
