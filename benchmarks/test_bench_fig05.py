"""Benchmark: regenerate Figure 5 (ratios vs Vth sigma/mu)."""

from conftest import emit

from repro.experiments import fig05_sigma_sweep
from repro.settings import settings


def test_fig05_sigma_sweep(benchmark, results_dir):
    n_dies = 200 if settings().full else 8

    result = benchmark.pedantic(
        lambda: fig05_sigma_sweep.run(n_dies=n_dies),
        rounds=1, iterations=1)
    emit(results_dir, "fig05", result.format_table(),
         benchmark=benchmark,
         metrics={"sigma_over_mu": result.sigma_over_mu,
                  "freq_ratio": result.freq_ratio,
                  "power_ratio": result.power_ratio,
                  "n_dies": n_dies})

    # Paper shape: both ratios increase monotonically with sigma/mu,
    # and even sigma/mu = 0.06 shows significant variation.
    assert all(a <= b for a, b in zip(result.freq_ratio,
                                      result.freq_ratio[1:]))
    assert all(a <= b for a, b in zip(result.power_ratio,
                                      result.power_ratio[1:]))
    assert result.freq_ratio[1] > 1.08  # sigma/mu = 0.06 already matters
