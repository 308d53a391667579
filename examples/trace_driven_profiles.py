"""Trace-driven profiling: derive application profiles from the core
simulator instead of Table 5 calibration, and run the full scheduling +
power-management stack on them.

This exercises the SESC-substitute path end to end: synthetic traces
-> cache hierarchy + interval core model -> AppProfile -> LinOpt.

Run with::

    python examples/trace_driven_profiles.py
"""

import numpy as np

from repro.config import COST_PERFORMANCE
from repro.coresim import derive_class_profiles
from repro.experiments.common import ChipFactory
from repro.pm import FoxtonStar, LinOpt
from repro.sched import VarFAppIPC
from repro.workloads import Workload


def main() -> None:
    print("Simulating synthetic traces on the interval core model...")
    derived = derive_class_profiles(n_instructions=80_000)
    for name, sp in derived.items():
        p = sp.profile
        print(f"  {name:10s}: IPC {p.ipc_ref:.2f} @4GHz "
              f"({p.ipc_at(2e9):.2f} @2GHz), "
              f"{p.dynamic_power_ref:.1f} W dynamic, "
              f"memory CPI share {p.mem_cpi_fraction:.2f}")

    # A 12-thread workload drawn from the simulated classes.
    profiles = [sp.profile for sp in derived.values()]
    threads = tuple(profiles[i % len(profiles)] for i in range(12))
    workload = Workload(threads)

    chip = ChipFactory().chip(0)
    rng = np.random.default_rng(5)
    assignment = VarFAppIPC().assign_with_profiling(chip, workload, rng)
    fox = FoxtonStar().set_levels(chip, workload, assignment,
                                  COST_PERFORMANCE)
    lin = LinOpt().set_levels(chip, workload, assignment,
                              COST_PERFORMANCE)
    print(f"\n12 simulated threads under "
          f"{COST_PERFORMANCE.p_target(12, chip.n_cores):.1f} W:")
    print(f"  Foxton*: {fox.state.throughput_mips:7.0f} MIPS at "
          f"{fox.state.total_power:.1f} W")
    print(f"  LinOpt : {lin.state.throughput_mips:7.0f} MIPS at "
          f"{lin.state.total_power:.1f} W "
          f"(+{(lin.state.throughput_mips / fox.state.throughput_mips - 1) * 100:.1f}%)")
    print("\nThe whole pipeline — traces, caches, interval model, "
          "variation, LP — with no Table 5 numbers in sight.")


if __name__ == "__main__":
    main()
