"""Benchmark: regenerate Figure 9 (NUniFreq frequency/throughput) and
the Section 7.4 NUniFreq-vs-UniFreq comparison."""

from conftest import emit

from repro.experiments import fig09_nunifreq_perf
from repro.settings import settings


def test_fig09_nunifreq_performance(benchmark, factory, results_dir):
    n_trials = 20 if settings().full else 8

    result = benchmark.pedantic(
        lambda: fig09_nunifreq_perf.run(n_trials=n_trials,
                                        factory=factory),
        rounds=1, iterations=1)
    light = result.results[4]
    full = result.results[20]
    emit(results_dir, "fig09", result.format_table(),
         benchmark=benchmark,
         metrics={"varf_freq_4t": light["VarF"].frequency,
                  "varf_freq_20t": full["VarF"].frequency,
                  "varfappipc_mips_4t": light["VarF&AppIPC"].mips,
                  "varfappipc_mips_20t": full["VarF&AppIPC"].mips,
                  "nunifreq_freq_ratio":
                  result.nunifreq_vs_unifreq.frequency_ratio,
                  "nunifreq_ed2_ratio":
                  result.nunifreq_vs_unifreq.ed2_ratio})
    # Paper: VarF +10% frequency at light load, degenerating to Random
    # at 20 threads; VarF&AppIPC +5-10% MIPS throughout.
    assert light["VarF"].frequency > 1.05
    assert abs(full["VarF"].frequency - 1.0) < 0.02
    assert light["VarF&AppIPC"].mips > 1.03
    assert full["VarF&AppIPC"].mips > 1.02
    # Section 7.4: NUniFreq vs UniFreq at 20 threads: ~+15% frequency,
    # ~+10% power, ~-20% ED^2.
    cmp = result.nunifreq_vs_unifreq
    assert 1.08 < cmp.frequency_ratio < 1.25
    assert 1.02 < cmp.power_ratio < 1.30
    assert 0.70 < cmp.ed2_ratio < 0.95
