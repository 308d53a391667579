"""Benchmark: regenerate Figure 11 (NUniFreq+DVFS throughput/ED^2,
Cost-Performance) with the online phased protocol."""

from conftest import emit

from repro.experiments import fig11_dvfs
from repro.settings import settings


def test_fig11_dvfs_cost_performance(benchmark, factory, results_dir):
    n_trials = 8 if settings().full else 3

    result = benchmark.pedantic(
        lambda: fig11_dvfs.run(n_trials=n_trials, factory=factory,
                               protocol="online"),
        rounds=1, iterations=1)
    metrics = {}
    for nt, per in result.results.items():
        metrics[f"linopt_mips_{nt}t"] = per["VarF&AppIPC+LinOpt"].mips
        metrics[f"linopt_ed2_{nt}t"] = per["VarF&AppIPC+LinOpt"].ed2
    emit(results_dir, "fig11", result.format_table(),
         benchmark=benchmark, metrics=metrics)

    for nt, per in result.results.items():
        base = per["Random+Foxton*"]
        fox = per["VarF&AppIPC+Foxton*"]
        lin = per["VarF&AppIPC+LinOpt"]
        sann = per["VarF&AppIPC+SAnn"]
        # Ordering (paper): LinOpt >> Foxton* > baseline; SAnn ~ LinOpt.
        assert abs(base.mips - 1.0) < 1e-9
        assert lin.mips > fox.mips - 0.01
        assert lin.mips > 1.02
        assert lin.ed2 < 0.95            # paper: 0.62-0.70
        assert abs(sann.mips - lin.mips) < 0.05  # paper: within 2%
