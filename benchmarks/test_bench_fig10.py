"""Benchmark: regenerate Figure 10 (NUniFreq ED^2)."""

from conftest import emit

from repro.experiments import fig10_nunifreq_ed2
from repro.settings import settings


def test_fig10_nunifreq_ed2(benchmark, factory, results_dir):
    n_trials = 20 if settings().full else 8

    result = benchmark.pedantic(
        lambda: fig10_nunifreq_ed2.run(n_trials=n_trials,
                                       factory=factory),
        rounds=1, iterations=1)
    full = result.results[20]
    emit(results_dir, "fig10", result.format_table(),
         benchmark=benchmark,
         metrics={"varfappipc_ed2_20t": full["VarF&AppIPC"].ed2,
                  "varf_ed2_20t": full["VarF"].ed2})
    # Paper: at 8-20 threads VarF&AppIPC cuts ED^2 by 10-13%.
    assert full["VarF&AppIPC"].ed2 < 0.97
    # And always at least matches VarF (its throughput is higher for
    # the same cores).
    for nt, per in result.results.items():
        assert per["VarF&AppIPC"].ed2 <= per["VarF"].ed2 + 0.03
