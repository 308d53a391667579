"""Benchmark: event-driven online simulation vs the dense reference.

Runs the Figure 14 configuration (4-thread workload, LinOpt at the
2 s interval, 2.5 intervals of simulated time) through
``OnlineSimulation.run`` and through the per-sample reference loop
``tests.references.run_dense``, records steps/sec and the number of
full-system evaluations, and asserts the event-driven loop needs at
least 10x fewer ``evaluate_levels`` calls while producing an identical
sensor trace.
"""

import time

import numpy as np
from conftest import emit

from repro.config import COST_PERFORMANCE
from repro.experiments.common import format_rows
from repro.pm import LinOpt, LinOptConfig
from repro.runtime import OnlineSimulation
from repro.runtime.evaluation import EVALUATION_COUNTER
from repro.sched import VarFAppIPC
from repro.workloads import make_workload
from tests.references import run_dense

# The long-interval end of Figure 14's sweep: LinOpt every 2 s,
# 2.5 intervals simulated (fig14_granularity's duration rule).
INTERVAL_S = 2.0
DURATION_S = 5.0
N_THREADS = 4


def test_simulation_event_loop_speedup(benchmark, factory, results_dir):
    chip = factory.chip(0)
    workload = make_workload(N_THREADS, np.random.default_rng([0, 0, 31]))
    assignment = VarFAppIPC().assign_with_profiling(
        chip, workload, np.random.default_rng([0, 0, 37]))

    def run(loop):
        sim = OnlineSimulation(
            chip, workload, assignment, COST_PERFORMANCE,
            manager=LinOpt(LinOptConfig(n_iterations=3)), phase_seed=0)
        EVALUATION_COUNTER.reset()
        start = time.perf_counter()
        trace = loop(sim, DURATION_S, INTERVAL_S)
        wall_s = time.perf_counter() - start
        return trace, EVALUATION_COUNTER.evaluations, wall_s

    dense_trace, dense_evals, dense_wall = run(run_dense)
    event_trace, event_evals, event_wall = benchmark.pedantic(
        lambda: run(OnlineSimulation.run), rounds=1, iterations=1)

    n_steps = dense_trace.times_s.size
    table = format_rows(
        ["loop", "evaluate_levels", "steps/s", "wall s"],
        [["dense", dense_evals, n_steps / dense_wall, dense_wall],
         ["event", event_evals, n_steps / event_wall, event_wall]],
        "Online simulation: event-driven loop vs dense reference "
        f"(Fig 14 config: {N_THREADS} threads, LinOpt @ {INTERVAL_S:.0f} s, "
        f"{DURATION_S:.0f} s simulated)")
    emit(results_dir, "simulation_perf", table,
         benchmark=benchmark,
         metrics={"dense_evals": dense_evals,
                  "event_evals": event_evals,
                  "eval_reduction": dense_evals / event_evals})

    # Identical sensor traces (the loops are bitwise-equivalent) ...
    np.testing.assert_array_equal(dense_trace.power_w, event_trace.power_w)
    np.testing.assert_array_equal(dense_trace.throughput_mips,
                                  event_trace.throughput_mips)
    assert dense_trace.transition_time_s == event_trace.transition_time_s
    # ... at a >= 10x reduction in full-system evaluations.
    assert dense_evals >= 10 * event_evals
