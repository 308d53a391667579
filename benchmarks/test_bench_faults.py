"""Benchmark: graceful degradation under injected faults (ext_faults).

Regenerates the ``ext_faults`` degradation curves — throughput and
power deviation vs sensor-noise sigma and vs random fault rate with
the full protection stack on (per-core sensor bank, power-budget
watchdog, LinOpt -> Foxton* -> all-minimum fallback chain) — plus the
seeded dead-sensor/core-offline scenario the acceptance regression in
``tests/test_faults.py`` pins.
"""

from conftest import emit

from repro.experiments import ext_faults


def test_faults_degradation(benchmark, results_dir):
    result = benchmark.pedantic(ext_faults.run, rounds=1, iterations=1)
    clean = result.noise_arms[0]
    noisy = result.noise_arms[-1]
    emit(results_dir, "ext_faults", result.format_table(),
         benchmark=benchmark,
         metrics={"clean_throughput_mips": clean.mean_throughput_mips,
                  "noisy_throughput_mips": noisy.mean_throughput_mips,
                  "scenario_watchdog_deviation_pct":
                  result.scenario.watchdog.mean_abs_deviation_pct,
                  "scenario_watchdog_triggers":
                  len(result.scenario.watchdog.watchdog_triggers)})

    # Degradation is graceful: heavy noise must not collapse throughput.
    assert noisy.mean_throughput_mips > 0.9 * clean.mean_throughput_mips

    # The seeded scenario's watchdog arm holds deviation within 2x the
    # fault-free run while the no-watchdog ablation overshoots more.
    sc = result.scenario
    assert (sc.watchdog.mean_abs_deviation_pct
            <= 2.0 * sc.fault_free.mean_abs_deviation_pct)
    assert sc.ablation.mean_overshoot_w > sc.watchdog.mean_overshoot_w
