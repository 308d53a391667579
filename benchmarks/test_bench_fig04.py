"""Benchmark: regenerate Figure 4 (variation histograms)."""

from conftest import emit

from repro.experiments import fig04_variation
from repro.settings import settings


def test_fig04_variation_histograms(benchmark, factory, results_dir):
    n_dies = 200 if settings().full else 24

    result = benchmark.pedantic(
        lambda: fig04_variation.run(n_dies=n_dies, factory=factory),
        rounds=1, iterations=1)
    emit(results_dir, "fig04", result.format_table(),
         benchmark=benchmark,
         metrics={"mean_freq_ratio": result.mean_freq_ratio,
                  "mean_power_ratio": result.mean_power_ratio,
                  "min_freq_ratio": float(result.freq_ratios.min()),
                  "n_dies": n_dies})

    # Paper shape: frequency ratios mostly 1.2-1.5 (mean ~1.33);
    # power ratios large (paper 1.4-1.7; our calibration runs higher).
    assert 1.15 < result.mean_freq_ratio < 1.55
    assert 1.4 < result.mean_power_ratio < 2.6
    assert result.freq_ratios.min() > 1.05
