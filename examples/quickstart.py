"""Quickstart: manufacture a variation-affected 20-core CMP, schedule a
workload on it variation-aware, and manage power with LinOpt.

Run with::

    python examples/quickstart.py
"""

import numpy as np

from repro.chip import characterize_dies
from repro.config import COST_PERFORMANCE, DEFAULT_ARCH, DEFAULT_TECH
from repro.pm import FoxtonStar, LinOpt
from repro.runtime import evaluate_max_levels
from repro.sched import RandomPolicy, VarFAppIPC
from repro.variation import DieBatch
from repro.workloads import make_workload


def main() -> None:
    # 1. Manufacture a batch of dies with within-die Vth/Leff variation
    #    (VARIUS model, Table 4 parameters) and characterise one die
    #    the way the chip manufacturer would: per-core (V, f) tables,
    #    leakage models and static-power ratings.
    batch = DieBatch(DEFAULT_TECH, DEFAULT_ARCH, n_dies=4, seed=42)
    chip = characterize_dies([batch[0]], DEFAULT_TECH, DEFAULT_ARCH)[0]

    fmax_ghz = chip.fmax_array / 1e9
    print(f"Die 0: {chip.n_cores} cores, fmax "
          f"{fmax_ghz.min():.2f}-{fmax_ghz.max():.2f} GHz "
          f"(ratio {fmax_ghz.max() / fmax_ghz.min():.2f}), "
          f"rated static power "
          f"{chip.static_rated_array.min():.2f}-"
          f"{chip.static_rated_array.max():.2f} W")

    # 2. Draw a 16-application multiprogrammed workload from the SPEC
    #    pool (Table 5 profiles) and map it onto cores.
    rng = np.random.default_rng(7)
    workload = make_workload(16, rng)
    print("Workload:", ", ".join(app.name for app in workload))

    random_asg = RandomPolicy().assign_with_profiling(chip, workload, rng)
    smart_asg = VarFAppIPC().assign_with_profiling(chip, workload, rng)

    # 3. Without DVFS (NUniFreq), compare the schedulers at max levels.
    st_random = evaluate_max_levels(chip, workload, random_asg)
    st_smart = evaluate_max_levels(chip, workload, smart_asg)
    print(f"\nNUniFreq  Random      : {st_random.throughput_mips:8.0f} MIPS "
          f"at {st_random.total_power:5.1f} W")
    print(f"NUniFreq  VarF&AppIPC : {st_smart.throughput_mips:8.0f} MIPS "
          f"at {st_smart.total_power:5.1f} W "
          f"(+{(st_smart.throughput_mips / st_random.throughput_mips - 1) * 100:.1f}%)")

    # 4. Under a 75 W chip budget, compare Foxton* with LinOpt.
    env = COST_PERFORMANCE
    fox = FoxtonStar().set_levels(chip, workload, smart_asg, env)
    lin = LinOpt().set_levels(chip, workload, smart_asg, env)
    print(f"\nBudget {env.p_target(16, chip.n_cores):.0f} W "
          f"({env.name}):")
    print(f"  Foxton* : {fox.state.throughput_mips:8.0f} MIPS "
          f"at {fox.state.total_power:5.1f} W")
    print(f"  LinOpt  : {lin.state.throughput_mips:8.0f} MIPS "
          f"at {lin.state.total_power:5.1f} W "
          f"(+{(lin.state.throughput_mips / fox.state.throughput_mips - 1) * 100:.1f}%, "
          f"{lin.stats['lp_pivots']:.0f} Simplex pivots)")
    volts = [round(float(chip.cores[c].vf_table.voltages[lv]), 2)
             for c, lv in zip(smart_asg.core_of, lin.levels)]
    print(f"  LinOpt per-core voltages: {volts}")


if __name__ == "__main__":
    main()
