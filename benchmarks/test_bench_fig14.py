"""Benchmark: regenerate Figure 14 (power deviation vs LinOpt
interval)."""

from conftest import emit

from repro.experiments import fig14_granularity
from repro.settings import settings


def test_fig14_linopt_granularity(benchmark, factory, results_dir):
    # The 2 s / 1 s intervals need seconds of simulated time; trim the
    # sweep for the default run.
    intervals = ((2.0, 1.0, 0.5, 0.1, 0.01) if settings().full
                 else (1.0, 0.5, 0.1, 0.01))

    result = benchmark.pedantic(
        lambda: fig14_granularity.run(intervals_s=intervals,
                                      n_trials=1, factory=factory),
        rounds=1, iterations=1)
    metrics = {f"deviation_pct_10ms_{nt}t": devs[-1]
               for nt, devs in result.deviation_pct.items()}
    emit(results_dir, "fig14", result.format_table(),
         benchmark=benchmark, metrics=metrics)

    for nt, devs in result.deviation_pct.items():
        # Paper shape: deviation shrinks as the interval shrinks and is
        # small (<~1-2%) at the 10 ms production setting.
        assert devs[-1] <= devs[0] + 0.3
        assert devs[-1] < 3.0
