"""Temperature-aware scheduling (paper Section 8 future work).

Compares the paper's VarP policy with the VarTemp extension, which
penalises cores in the hot centre of the die. Reports power, peak
temperature and the temperature spread across the die for a
half-loaded CMP.

Run with::

    python examples/thermal_aware.py
"""

import numpy as np

from repro.config import celsius
from repro.experiments.common import ChipFactory
from repro.runtime import evaluate_max_levels
from repro.sched import RandomPolicy, VarP, VarTemp
from repro.workloads import make_workload

N_THREADS = 10
N_TRIALS = 6


def main() -> None:
    factory = ChipFactory()
    results = {}
    for policy in (RandomPolicy(), VarP(), VarTemp()):
        powers, peaks, spreads = [], [], []
        for trial in range(N_TRIALS):
            chip = factory.chip(trial % 3)
            workload = make_workload(
                N_THREADS, np.random.default_rng(trial))
            rng = np.random.default_rng(100 + trial)
            assignment = policy.assign_with_profiling(chip, workload, rng)
            state = evaluate_max_levels(chip, workload, assignment)
            core_temps = state.block_temps[: chip.n_cores]
            active = list(assignment.core_of)
            powers.append(state.total_power)
            peaks.append(celsius(float(core_temps[active].max())))
            spreads.append(float(core_temps[active].max()
                                 - core_temps[active].min()))
        results[policy.name] = (np.mean(powers), np.mean(peaks),
                                np.mean(spreads))

    print(f"{N_THREADS} threads on a 20-core die "
          f"({N_TRIALS} trials, no DVFS):\n")
    print(f"{'policy':10s} {'power (W)':>10s} {'peak T (C)':>11s} "
          f"{'spread (K)':>11s}")
    for name, (p, t, s) in results.items():
        print(f"{name:10s} {p:10.1f} {t:11.1f} {s:11.1f}")
    print("\nVarTemp trades a little of VarP's leakage optimality for "
          "cooler, more uniform silicon — the extension Section 8 of "
          "the paper sketches.")


if __name__ == "__main__":
    main()
