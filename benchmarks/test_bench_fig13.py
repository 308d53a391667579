"""Benchmark: regenerate Figure 13 (weighted throughput and ED^2)."""

from conftest import emit

from repro.experiments import fig13_weighted
from repro.settings import settings


def test_fig13_weighted_metrics(benchmark, factory, results_dir):
    n_trials = 8 if settings().full else 2

    result = benchmark.pedantic(
        lambda: fig13_weighted.run(n_trials=n_trials,
                                   thread_counts=(8, 20),
                                   factory=factory,
                                   protocol="online"),
        rounds=1, iterations=1)
    metrics = {}
    for nt, per in result.results.items():
        lin = per["VarF&AppIPC+LinOpt"]
        metrics[f"linopt_weighted_mips_{nt}t"] = lin.weighted_mips
        metrics[f"linopt_weighted_ed2_{nt}t"] = lin.weighted_ed2
    emit(results_dir, "fig13", result.format_table(),
         benchmark=benchmark, metrics=metrics)

    for nt, per in result.results.items():
        lin = per["VarF&AppIPC+LinOpt"]
        # Paper: weighted gains resemble Fig 11 but slightly smaller;
        # LinOpt still clearly improves both weighted metrics.
        assert lin.weighted_mips > 1.0
        assert lin.weighted_ed2 < 1.0
        # The weighted gain should not exceed the raw-MIPS gain by
        # much (raw MIPS favours high-IPC threads more).
        assert lin.weighted_mips < lin.mips + 0.05
