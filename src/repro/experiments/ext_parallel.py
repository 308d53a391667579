"""Extension experiment: parallel applications (paper Section 8).

Evaluates a barrier-synchronised parallel application on the
variation-affected CMP:

* **Performance instability** (Balakrishnan et al., Section 2):
  iteration throughput varies die-to-die and mapping-to-mapping much
  more than for a homogeneous chip; VarF mapping removes the
  mapping-induced part.
* **Barrier-aware DVFS**: at maximum levels, workers on fast cores
  waste their advantage waiting at barriers. The BarrierAware manager
  drops every non-critical core to the cheapest level meeting the
  common pace, saving power at (nearly) no performance cost — and
  under a power budget it beats pace-oblivious managers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from ..config import COST_PERFORMANCE, PowerEnvironment
from ..pm import FoxtonStar
from ..pm.barrier import BarrierAwarePm
from ..runtime.evaluation import evaluate_max_levels
from ..sched import RandomPolicy, VarF
from ..workloads import Workload, get_app
from ..workloads.parallel import ParallelApplication
from .common import ChipFactory, format_rows

#: Table 5 application every worker of the parallel program runs.
WORKER_APP = "crafty"


@dataclass(frozen=True)
class ExtParallelResult:
    """Summary of the parallel-application extension study."""

    random_throughput_cv: float
    varf_throughput_cv: float
    maxlevel_slack: float
    barrier_slack: float
    barrier_power_saving: float
    budget_speedup: float

    def format_table(self) -> str:
        rows = [
            ["die-to-die throughput CV, Random mapping",
             self.random_throughput_cv],
            ["die-to-die throughput CV, VarF mapping",
             self.varf_throughput_cv],
            ["barrier-wait fraction at max levels",
             self.maxlevel_slack],
            ["barrier-wait fraction, BarrierAware", self.barrier_slack],
            ["power saved by BarrierAware at equal pace",
             self.barrier_power_saving],
            ["BarrierAware / Foxton* throughput under budget",
             self.budget_speedup],
        ]
        return format_rows(["metric", "value"], rows,
                           "Extension: barrier-parallel application on a "
                           "variation-affected CMP (Section 8)")


def run(
    n_dies: int = 6,
    n_workers: int = 16,
    env: PowerEnvironment = COST_PERFORMANCE,
    factory: Optional[ChipFactory] = None,
    seed: int = 0,
) -> ExtParallelResult:
    """Run the parallel-application study."""
    factory = factory or ChipFactory()
    factory.prefetch(n_dies)
    app = ParallelApplication(worker=get_app(WORKER_APP),
                              n_threads=n_workers)
    workload = Workload(tuple(get_app(WORKER_APP)
                              for _ in range(n_workers)))

    tp_random, tp_varf = [], []
    slack_max, slack_ba, power_saving, budget_gain = [], [], [], []
    for die in range(n_dies):
        chip = factory.chip(die)
        rng = np.random.default_rng([seed, die])
        asg_rand = RandomPolicy().assign(chip, workload, rng)
        asg_varf = VarF().assign(chip, workload, rng)

        st_rand = evaluate_max_levels(chip, workload, asg_rand)
        st_varf = evaluate_max_levels(chip, workload, asg_varf)
        tp_random.append(app.throughput_ips(st_rand.freqs))
        tp_varf.append(app.throughput_ips(st_varf.freqs))
        slack_max.append(app.slack_fraction(st_rand.freqs))

        # Pace-equalisation at no performance cost: generous budget so
        # only the barrier logic (not the budget) shapes the solution.
        generous = PowerEnvironment("Generous", 400.0, p_core_max=50.0)
        ba = BarrierAwarePm().set_levels(chip, workload, asg_varf,
                                         generous)
        slack_ba.append(app.slack_fraction(ba.state.freqs))
        pace_max = app.throughput_ips(st_varf.freqs)
        pace_ba = app.throughput_ips(ba.state.freqs)
        if pace_ba >= 0.98 * pace_max:
            power_saving.append(1.0 - ba.state.total_power
                                / st_varf.total_power)

        # Under a real budget: barrier-aware vs pace-oblivious Foxton*.
        fox = FoxtonStar().set_levels(chip, workload, asg_varf, env)
        bab = BarrierAwarePm().set_levels(chip, workload, asg_varf, env)
        budget_gain.append(app.throughput_ips(bab.state.freqs)
                           / app.throughput_ips(fox.state.freqs))

    def cv(xs):
        xs = np.asarray(xs)
        return float(xs.std() / xs.mean())

    return ExtParallelResult(
        random_throughput_cv=cv(tp_random),
        varf_throughput_cv=cv(tp_varf),
        maxlevel_slack=float(np.mean(slack_max)),
        barrier_slack=float(np.mean(slack_ba)),
        barrier_power_saving=float(np.mean(power_saving))
        if power_saving else 0.0,
        budget_speedup=float(np.mean(budget_gain)),
    )
