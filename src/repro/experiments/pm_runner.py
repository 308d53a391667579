"""Shared trial runner for the power-management experiments (Figs 11-13).

Each trial pairs a (die, workload) draw with every algorithm in
Table 1's bottom block. Two evaluation protocols are provided:

* ``"online"`` (default, the paper's protocol): a time-stepped run of
  the phased workload with the manager re-invoked every DVFS interval
  (Figure 2); metrics are time averages. This is where LinOpt's
  IPC-adaptivity pays — Foxton* tracks only power.
* ``"static"``: a single manager decision on the phase-free workload,
  evaluated at steady state. Cheaper; used by tests and quick scans.

Metrics are normalised per-trial to ``Random+Foxton*`` and averaged.
This module only says how one (algorithm, die, workload) unit is
measured under either protocol, and :func:`sweep_algorithms` runs the
comparison at every point of a figure; the trial loop, campaign resume
and normalisation are :func:`repro.experiments.common.trial_table` and
:func:`~repro.experiments.common.normalise`.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import (Any, Callable, Dict, List, Mapping, Optional,
                    Sequence, Tuple)

import numpy as np

from ..chip import ChipProfile
from ..config import PowerEnvironment
from ..pm import FoxtonStar, LinOpt, LinOptConfig, PowerManager, SAnnManager
from ..runtime.simulation import (
    TRANSITION_LATENCY_PER_LEVEL_S,
    OnlineSimulation,
)
from ..sched import RandomPolicy, SchedulingPolicy, VarFAppIPC
from ..workloads import Workload
from .common import (ChipFactory, SweepResult, default_n_trials,
                     normalise, require_baseline, trial_table)

# Default online-protocol timing (scaled down from the paper's full
# SESC runs; REPRO_FULL experiments pass longer durations).
DEFAULT_DURATION_S = 0.12
DEFAULT_INTERVAL_S = 0.010
# SAnn evaluations per online invocation (the paper's 1e6 is hopeless
# on-line — that asymmetry is the paper's own point).
SANN_ONLINE_EVALS = 400
SANN_STATIC_EVALS = 3000


@dataclass(frozen=True)
class AlgorithmSpec:
    """One Table 1 row: a scheduling policy + a power manager."""

    name: str
    policy: SchedulingPolicy
    make_manager: Callable[[], PowerManager]


def standard_algorithms(include_sann: bool = True,
                        online: bool = True,
                        objective: str = "mips",
                        ) -> Tuple[AlgorithmSpec, ...]:
    """The four algorithms of Table 1's power-budget block.

    ``objective`` selects what LinOpt and SAnn maximise: raw MIPS
    (Figures 11-12) or weighted throughput (Figure 13's optimisation
    goal). Foxton* has no objective — it only tracks power.
    """
    linopt_cfg = LinOptConfig(n_iterations=3 if online else 6,
                              objective=objective)
    sann_evals = SANN_ONLINE_EVALS if online else SANN_STATIC_EVALS
    algos = [
        AlgorithmSpec("Random+Foxton*", RandomPolicy(), FoxtonStar),
        AlgorithmSpec("VarF&AppIPC+Foxton*", VarFAppIPC(), FoxtonStar),
        AlgorithmSpec("VarF&AppIPC+LinOpt", VarFAppIPC(),
                      lambda: LinOpt(linopt_cfg)),
    ]
    if include_sann:
        algos.append(AlgorithmSpec(
            "VarF&AppIPC+SAnn", VarFAppIPC(),
            lambda: SAnnManager(n_evaluations=sann_evals,
                                objective=objective)))
    return tuple(algos)


@dataclass(frozen=True)
class PmAverages:
    """Per-algorithm means, normalised to the baseline algorithm."""

    algorithm: str
    mips: float
    weighted_mips: float
    ed2: float
    weighted_ed2: float
    power: float


def run_pm_comparison(
    factory: ChipFactory,
    env: PowerEnvironment,
    n_threads: int,
    n_trials: int,
    n_dies: int,
    algorithms: Optional[Sequence[AlgorithmSpec]] = None,
    protocol: str = "online",
    duration_s: float = DEFAULT_DURATION_S,
    interval_s: float = DEFAULT_INTERVAL_S,
    baseline: str = "Random+Foxton*",
    seed: int = 0,
    experiment: Optional[str] = None,
) -> Dict[str, PmAverages]:
    """Compare the power-budget algorithms at one (env, thread count).

    The online protocol charges
    :data:`~repro.runtime.simulation.TRANSITION_LATENCY_PER_LEVEL_S`
    per V/f level stepped. ``experiment`` is the campaign tag (e.g.
    ``"fig11"``): with resume mode active, completed (trial,
    algorithm) units checkpoint to the campaign journal and are
    skipped on rerun.
    Algorithm names must be distinct and include ``baseline``, and
    ``n_trials`` and ``n_dies`` must be at least 1.

    Returns a mapping algorithm name -> baseline-normalised averages.
    """
    if protocol not in ("online", "static"):
        raise ValueError("protocol must be 'online' or 'static'")
    if algorithms is None:
        algorithms = standard_algorithms(online=protocol == "online")
    names = [algo.name for algo in algorithms]
    require_baseline(names, baseline)

    def measure(algo: AlgorithmSpec, trial: int, chip: ChipProfile,
                workload: Workload, rng: np.random.Generator,
                ) -> List[float]:
        assignment = algo.policy.assign_with_profiling(chip, workload, rng)
        manager = algo.make_manager()
        if protocol == "online":
            trace = OnlineSimulation(
                chip, workload, assignment, env, manager=manager,
                phase_seed=seed * 100 + trial,
            ).run(duration_s, interval_s)
            return [trace.mean_throughput_mips,
                    trace.mean_weighted_throughput,
                    trace.ed2_relative,
                    trace.weighted_ed2_relative,
                    trace.mean_power_w]
        state = manager.set_levels(chip, workload, assignment, env,
                                   rng).state
        return [state.throughput_mips,
                state.weighted_throughput(workload),
                state.ed2_relative,
                state.weighted_ed2_relative(workload),
                state.total_power]

    table = trial_table(
        factory, algorithms, measure, n_threads=n_threads,
        n_trials=n_trials, n_dies=n_dies, seed=seed,
        workload_tag=23, experiment=experiment, name_field="algo",
        key_fields={
            "kind": "pm",
            "env": repr(sorted(asdict(env).items())),
            "protocol": protocol, "duration_s": duration_s,
            "interval_s": interval_s,
            # Keyed so journals that recorded the latency resume.
            "transition_latency_s": TRANSITION_LATENCY_PER_LEVEL_S})
    return {name: PmAverages(name, *(float(v) for v in mean))
            for name, mean in normalise(table, names, baseline).items()}


def sweep_algorithms(
    experiment: str,
    points: Mapping[Any, Tuple[PowerEnvironment, int]],
    row_header: str,
    panels: Sequence[Tuple[str, str]],
    n_trials: Optional[int] = None,
    n_dies: Optional[int] = None,
    include_sann: bool = True,
    protocol: str = "online",
    objective: str = "mips",
    factory: Optional[ChipFactory] = None,
    seed: int = 0,
) -> SweepResult:
    """One power-management figure: :func:`run_pm_comparison` of the
    :func:`standard_algorithms` at every point under the
    ``experiment`` campaign tag.

    ``points`` maps each row label (a thread count, or an environment
    name) to the ``(env, n_threads)`` it runs, in row order; columns
    follow the algorithms; ``panels`` are the ``(PmAverages field,
    title)`` tables the figure prints. Without ``n_trials`` the sweep
    runs half the reduced (or ``REPRO_FULL``) trial count, at least 3,
    and without ``n_dies`` one die per trial.
    """
    n_trials = n_trials or max(default_n_trials() // 2, 3)
    n_dies = n_dies or n_trials
    factory = factory or ChipFactory()
    algorithms = standard_algorithms(include_sann=include_sann,
                                     online=protocol == "online",
                                     objective=objective)
    results = {point: run_pm_comparison(
                   factory, env, n_threads, n_trials, n_dies,
                   algorithms=algorithms, protocol=protocol, seed=seed,
                   experiment=experiment)
               for point, (env, n_threads) in points.items()}
    return SweepResult(results, row_header,
                       tuple(algo.name for algo in algorithms),
                       tuple(panels))
