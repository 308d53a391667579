"""Benchmark: regenerate Figure 8 (NUniFreq power and ED^2)."""

from conftest import emit

from repro.experiments import fig08_nunifreq_power
from repro.settings import settings


def test_fig08_nunifreq_power(benchmark, factory, results_dir):
    n_trials = 20 if settings().full else 8

    result = benchmark.pedantic(
        lambda: fig08_nunifreq_power.run(n_trials=n_trials,
                                         factory=factory),
        rounds=1, iterations=1)
    light = result.results[4]
    full = result.results[20]
    emit(results_dir, "fig08", result.format_table(),
         benchmark=benchmark,
         metrics={"varp_power_4t": light["VarP"].power,
                  "varp_power_20t": full["VarP"].power,
                  "varp_ed2_4t": light["VarP"].ed2})
    # Paper: ~14% savings at 4 threads, decreasing with load.
    assert light["VarP"].power < 0.92
    assert full["VarP"].power > light["VarP"].power
    # ED^2 gains are weaker than the power gains (the selected
    # low-leakage cores also tend to be slower).
    assert light["VarP"].ed2 > light["VarP"].power
