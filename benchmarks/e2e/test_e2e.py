"""Tests of the end-to-end benchmark itself.

The fast tests run with::

    PYTHONPATH=src python -m pytest benchmarks/e2e/test_e2e.py

and the ones that run whole workloads (minutes) with ``-m slow``.
"""

from __future__ import annotations

import json
import pathlib
import shutil
import subprocess
import sys
import time

import pytest

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent.parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402

#: Where each span must fire (all others listed in NEVER must not).
#: "Moves" columns of the README's layer map: a span predicted to
#: move nothing on a workload has zero calls there.
FIRES = {
    "fig11_sann": (
        "kernel.evaluate_levels_batch", "thermal.solve_many",
        "thermal.solve", "thermal.solve_with_leakage",
        "evaluation.evaluate_levels", "evaluation.evaluate_explicit",
        "simulation.run_to_end", "pm.sann.set_levels",
        "pm.linopt.set_levels", "pm.foxton.set_levels", "linprog.solve",
        "variation.sample_batch", "chip.characterize_dies",
        "parallel.characterize_batch", "sched.assign_with_profiling"),
    "fleet_cold": (
        "kernel.evaluate_levels_fleet", "thermal.solve_many",
        "variation.sample_batch", "chip.characterize_dies",
        "parallel.characterize_batch", "fleet.fleet_die_metrics",
        "fleet.write_shard", "parallel.journal.record"),
    "daemon_durable": (
        "kernel.evaluate_levels_batch", "thermal.solve_many",
        "thermal.solve", "thermal.solve_with_leakage",
        "evaluation.evaluate_levels", "evaluation.evaluate_explicit",
        "simulation.advance_until", "pm.linopt.set_levels",
        "pm.resilient.set_levels", "linprog.solve",
        "variation.sample_batch", "chip.characterize_dies",
        "parallel.characterize_batch", "sched.assign_with_profiling",
        "daemon.oplog.append", "daemon.snapshot.write", "daemon.recover",
        "daemon.controller.advance", "daemon.controller.register"),
}
_DAEMON = tuple(n for n in spans.SPAN_NAMES if n.startswith("daemon."))
_FLEET = ("kernel.evaluate_levels_fleet", "fleet.fleet_die_metrics",
          "fleet.write_shard", "parallel.journal.record")
NEVER = {
    "fig11_sann": _DAEMON + _FLEET + ("pm.resilient.set_levels",),
    "fleet_cold": _DAEMON + (
        "kernel.evaluate_levels_batch", "pm.sann.set_levels",
        "pm.linopt.set_levels", "pm.foxton.set_levels",
        "pm.resilient.set_levels", "linprog.solve",
        "simulation.advance_until", "simulation.run_to_end",
        "sched.assign_with_profiling"),
    "daemon_durable": _FLEET + ("pm.sann.set_levels",),
}


def _run(root: pathlib.Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(root / "benchmarks" / "e2e" / "run.py"),
         *args], capture_output=True, text=True, timeout=600)


def _result(proc: subprocess.CompletedProcess) -> dict:
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_spans_nest_with_self_time():
    rec = spans.Recorder(sampled=("inner",))

    def inner():
        time.sleep(0.02)
        return [1, 2, 3]

    traced = rec.wrap("inner", inner,
                      lambda r, result: r.count("rows", len(result)))
    with rec.span("outer"):
        time.sleep(0.02)
        traced()
        traced()
    calls, self_ns, total_ns = rec.spans["outer"]
    inner_calls, inner_self, inner_total = rec.spans["inner"]
    assert calls == 1 and inner_calls == 2
    assert inner_self == inner_total
    assert self_ns == total_ns - inner_total
    assert 0.015e9 < self_ns < total_ns
    assert rec.counts["rows"] == 6.0
    assert len(rec.samples["inner"]) == 2


def test_merge_sums_processes():
    a = {"spans": {"x": [1, 2, 3]}, "samples": {"x": [3]},
         "counts": {"c": 1.0}}
    b = {"spans": {"x": [2, 1, 1], "y": [1, 1, 1]},
         "samples": {"x": [1]}, "counts": {"c": 2.0}}
    merged = spans.merge([a, b])
    assert merged["spans"] == {"x": [3, 3, 4], "y": [1, 1, 1]}
    assert merged["samples"] == {"x": [3, 1]}
    assert merged["counts"] == {"c": 3.0}
    metrics = spans.layer_metrics(merged, wall_s=1.0)
    for name in spans.SPAN_NAMES:
        assert f"{name}.calls" in metrics


_INSTALL_PROBE = r"""
import sys
sys.path.insert(0, sys.argv[1])
import spans
import repro.fleet.campaign as campaign
import repro.parallel.runner as runner
import repro.runtime.simulation as simulation
from repro.runtime.kernel import EvalKernel
before = (simulation.evaluate_levels, campaign.characterize_batch,
          runner.characterize_dies, EvalKernel.evaluate_levels_batch)
spans.install(spans.new_recorder())
after = (simulation.evaluate_levels, campaign.characterize_batch,
         runner.characterize_dies, EvalKernel.evaluate_levels_batch)
assert all(a is not b for a, b in zip(before, after)), after
assert all(a.__wrapped__ is b for a, b in zip(after, before))
print("ok")
"""


def test_install_rebinds_every_import_site():
    proc = subprocess.run(
        [sys.executable, "-c", _INSTALL_PROBE, str(HERE)],
        capture_output=True, text=True, timeout=120,
        env={"PYTHONPATH": str(ROOT / "src"), "PATH": ""})
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "ok"


def _declared(kind: str) -> dict:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in bench[kind]}


def _printed(metrics) -> dict:
    return {name: unit for name, (_, unit) in metrics.items()}


def test_end_to_end_metrics_are_the_declared_ones():
    # Two 64-die chunks of 0.5 s, each next to a probe that ran at
    # twice its nominal time: calibrated, that is 256 dies/s.
    result = {"ops": [["chunk", 0.0, 0.5, 64], ["chunk", 0.6, 0.5, 64]],
              "probes": [[0.55, 2e-3], [1.15, 2e-3]],
              "concurrency": 1, "peak_rss_kb": 2048}
    launch = run.Launch(1.0, 2e-3, result, [])
    metrics = run.end_to_end(launch, [launch])
    assert _printed(metrics) == _declared("end_to_end")
    assert metrics["ops_per_s"][0] == pytest.approx(256.0)
    assert metrics["setup_s"][0] == pytest.approx(0.5)
    assert metrics["peak_rss_mb"][0] == pytest.approx(2.0)


@pytest.mark.parametrize("workload", ["fleet_cold", "daemon_durable"])
def test_per_layer_metrics_are_the_declared_ones(workload):
    result = {"workload": workload, "timed_wall_s": 2.0,
              "concurrency": 2, "probes": [[0.0, 1e-3], [1.0, 1e-3]],
              "ops": [["advance", 0.1 * i, 0.01, 1] for i in range(20)],
              "restarts": [{"recovery_s": 4.0}], "tenants": 32}
    # Untraced, each advance took 6 ms while the probe ran at 0.75 of
    # its traced time: calibrated, 8 ms against the traced 10 ms.
    untraced = dict(result, probes=[[0.0, 0.75e-3]],
                    ops=[["advance", 0.1 * i, 0.006, 1]
                         for i in range(20)])
    # The controller served 0.15 of the clients' 0.2 s of latency.
    merged = spans.merge([{
        "spans": {"workload.timed": [1, 10, 100],
                  "daemon.controller.advance": [20, 1, 150_000_000]},
        "samples": {"pm.linopt.set_levels": [5_000_000]},
        "counts": {}}])
    metrics = run.per_layer(result, merged, untraced)
    assert _printed(metrics) == _declared("per_layer")
    assert metrics["trace.overhead_frac"][0] == pytest.approx(0.25)
    assert metrics["pm.linopt.decision_p50_intervals"][0] == 0.5
    assert metrics["daemon.controller.advance.total_frac"][0] == 0.075
    if workload == "daemon_durable":
        assert metrics["daemon.advance_p50_intervals"][0] == 1.0
        assert metrics["daemon.transport_frac"][0] == pytest.approx(0.25)
        assert metrics["daemon.recovered_tenants_per_s"][0] == 8.0
    else:
        assert metrics["daemon.recovered_tenants_per_s"][0] == 0.0


def _fleet_result(digest: str) -> dict:
    summary = {"freq_ratio": {"mean": 1.2, "count": 1600},
               "power_ratio": {"mean": 1.5, "count": 1600}}
    return {"workload": "fleet_cold", "seed": 0,
            "passes": [{"digest": digest, "ops": 1600,
                        "summary": summary}]}


def test_digest_mismatch_fails_every_covered_op():
    pinned = {"seed": 0, "fleet_cold": "a" * 64}
    good = checks.verify(_fleet_result("a" * 64), pinned)
    assert good.correct and good.attempted == 1600
    bad = checks.verify(_fleet_result("b" * 64), pinned)
    assert not bad.correct
    assert bad.failed == bad.attempted == 1600
    # Other seeds are held to the orderings only.
    other = dict(_fleet_result("b" * 64), seed=1)
    assert checks.verify(other, pinned).correct


def test_refuses_to_run_without_the_package(tmp_path):
    (tmp_path / "benchmarks").mkdir()
    shutil.copytree(HERE, tmp_path / "benchmarks" / "e2e",
                    ignore=shutil.ignore_patterns(".work", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = _run(tmp_path, "--workload", "fleet_cold", "--seed", "0",
                "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


@pytest.mark.slow
def test_forced_digest_mismatch_fails_the_run(tmp_path):
    (tmp_path / "benchmarks").mkdir()
    shutil.copytree(HERE, tmp_path / "benchmarks" / "e2e",
                    ignore=shutil.ignore_patterns(".work", "__pycache__"))
    (tmp_path / "src").symlink_to(ROOT / "src")
    pinned_path = tmp_path / "benchmarks" / "e2e" / "digests.json"
    pinned = json.loads(pinned_path.read_text())
    pinned["fleet_cold"] = "0" * 64
    pinned_path.write_text(json.dumps(pinned))
    proc = _run(tmp_path, "--workload", "fleet_cold", "--seed", "0",
                "--seconds", "1", "--trace", "0")
    assert proc.returncode == 1, proc.stderr
    result = _result(proc)
    assert result["correct"] is False
    assert result["failed"] == result["attempted"] > 0
    assert "CHECK FAILED" in proc.stderr


@pytest.mark.slow
@pytest.mark.parametrize("workload", sorted(FIRES))
def test_traced_run_matches_the_layer_map(workload):
    proc = _run(ROOT, "--workload", workload, "--seed", "0",
                "--seconds", "1", "--trace", "1")
    assert proc.returncode == 0, proc.stderr
    result = _result(proc)
    # run.py checks the traced run's digests against the untraced
    # run's, so a correct traced run proves tracing changed nothing.
    assert result["correct"] is True and result["failed"] == 0
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    for name in FIRES[workload]:
        assert metrics[f"{name}.calls"] > 0, name
    for name in NEVER[workload]:
        assert metrics[f"{name}.calls"] == 0, name
    assert 0 <= metrics["trace.unattributed_frac"] < 0.10
