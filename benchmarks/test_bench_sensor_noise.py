"""Benchmark: sensor-noise robustness of the full algorithm stack.

The paper's algorithms consume on-chip power and IPC sensor readings
(Table 3). This bench re-runs the VarF&AppIPC+LinOpt pipeline with
realistic sensor imperfections (Foxton-class sensors: ~0.1 W power
quantisation plus Gaussian noise) and checks the gains survive.
"""

import numpy as np
from conftest import emit

from repro.config import COST_PERFORMANCE
from repro.experiments.common import format_rows
from repro.pm import FoxtonStar, LinOpt
from repro.power import IpcSensor, PowerSensor, SensorSpec
from repro.sched import RandomPolicy, VarFAppIPC
from repro.workloads import make_workload

NOISE_LEVELS = (0.0, 0.05, 0.2)  # watts of sensor sigma


def _gain(factory, power_sigma: float, n_trials: int = 3) -> float:
    gains = []
    for trial in range(n_trials):
        chip = factory.chip(trial)
        rng = np.random.default_rng(trial)
        wl = make_workload(16, rng)
        asg_rand = RandomPolicy().assign_with_profiling(chip, wl, rng)
        asg_smart = VarFAppIPC().assign_with_profiling(chip, wl, rng)
        base = FoxtonStar().set_levels(chip, wl, asg_rand,
                                       COST_PERFORMANCE)
        manager = LinOpt(
            power_sensor=PowerSensor(
                SensorSpec(noise_sigma=power_sigma, quantum=0.1),
                np.random.default_rng(trial + 100)),
            ipc_sensor=IpcSensor(
                SensorSpec(noise_sigma=power_sigma / 10),
                np.random.default_rng(trial + 200)))
        lin = manager.set_levels(chip, wl, asg_smart, COST_PERFORMANCE)
        gains.append(lin.state.throughput_mips
                     / base.state.throughput_mips)
    return float(np.mean(gains))


def test_sensor_noise_robustness(benchmark, factory, results_dir):
    def run():
        return {sigma: _gain(factory, sigma) for sigma in NOISE_LEVELS}

    gains = benchmark.pedantic(run, rounds=1, iterations=1)
    table = format_rows(
        ["sensor sigma (W)", "LinOpt gain vs Random+Foxton*"],
        [[f"{s:.2f}", g] for s, g in gains.items()],
        "Robustness: LinOpt gain under sensor noise/quantisation")
    emit(results_dir, "sensor_noise", table,
         benchmark=benchmark,
         metrics={f"gain_sigma_{s:.2f}": g for s, g in gains.items()})

    clean = gains[0.0]
    noisy = gains[max(NOISE_LEVELS)]
    assert clean > 1.0
    # Rankings and LP fits are robust: heavy noise costs at most a few
    # points of the gain.
    assert noisy > clean - 0.05
