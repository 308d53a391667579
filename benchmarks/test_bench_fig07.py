"""Benchmark: regenerate Figure 7 (UniFreq power and ED^2)."""

import pytest
from conftest import emit

from repro.experiments import fig07_unifreq
from repro.settings import settings


def test_fig07_unifreq(benchmark, factory, results_dir):
    n_trials = 20 if settings().full else 8

    result = benchmark.pedantic(
        lambda: fig07_unifreq.run(n_trials=n_trials, factory=factory),
        rounds=1, iterations=1)
    light = result.results[4]
    full = result.results[20]
    emit(results_dir, "fig07", result.format_table(),
         benchmark=benchmark,
         metrics={"varp_power_4t": light["VarP"].power,
                  "varp_power_20t": full["VarP"].power,
                  "varp_ed2_4t": light["VarP"].ed2,
                  "varpappp_power_4t": light["VarP&AppP"].power})
    # Paper: VarP saves ~10% power at 4 threads, ~nothing at 20.
    assert light["VarP"].power < 0.95
    assert full["VarP"].power > 0.95
    # ED^2 follows power (frequency unchanged in UniFreq).
    assert light["VarP"].ed2 == pytest.approx(light["VarP"].power,
                                              abs=0.02)
    # VarP&AppP tracks VarP on power.
    assert abs(light["VarP&AppP"].power - light["VarP"].power) < 0.05
