"""Benchmark: regenerate Figure 12 (throughput across power
environments, 20 threads)."""

from conftest import emit

from repro.experiments import fig12_power_envs
from repro.settings import settings


def test_fig12_power_environments(benchmark, factory, results_dir):
    n_trials = 8 if settings().full else 3

    result = benchmark.pedantic(
        lambda: fig12_power_envs.run(n_trials=n_trials, factory=factory,
                                     protocol="online"),
        rounds=1, iterations=1)
    lin = {env: per["VarF&AppIPC+LinOpt"].mips
           for env, per in result.results.items()}
    emit(results_dir, "fig12", result.format_table(),
         benchmark=benchmark,
         metrics={f"linopt_mips_{env.lower().replace(' ', '_')}": gain
                  for env, gain in lin.items()})
    # Paper shape: gains are largest at the tightest power target
    # (16% / 12% / 11% across 50/75/100 W).
    assert lin["Low Power"] >= lin["High Performance"] - 0.02
    for env, gain in lin.items():
        assert gain > 1.01, f"no LinOpt gain in {env}"
