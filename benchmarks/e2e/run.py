"""End-to-end benchmark of the repro package.

One workload, as ``BENCHMARK.json``'s command runs it::

    python3 benchmarks/e2e/run.py --workload fig11_sann --seed 0 \
        --seconds 8 --trace 0

All three workloads (``--workload`` omitted), or N runs per workload
on seeds ``seed .. seed+N-1`` with medians and quartiles::

    python3 benchmarks/e2e/run.py --seed 0
    python3 benchmarks/e2e/run.py --workload fleet_cold --repeat 5

Each measured process is a fresh child (``workloads.py``) with a
pinned environment and its own scratch directory under
``benchmarks/e2e/.work``, removed afterwards. ``--trace 0`` reports
the end-to-end metrics; set-up is launched three times and its median
reported. ``--trace 1`` runs the workload untraced and then traced and
reports the per-layer metrics. Every metric prints by name with its
unit; the last stdout line is one JSON object. The exit code is 0 when
every output check passed, 1 when one failed, 2 when the benchmark
could not run.
"""

from __future__ import annotations

import argparse
import bisect
import contextlib
import json
import os
import pathlib
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent.parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import spans  # noqa: E402

WORKLOADS = ("fleet_cold", "fig11_sann", "daemon_durable")
DEFAULT_SECONDS = 8.0
#: Set-up is timed over this many launches and reported as the median.
SETUP_LAUNCHES = 3
#: Wall-clock budget of one run (all its launches together).
RUN_BUDGET_S = 170.0
#: The calibration probe's time on the nominal host (see Probe in
#: workloads.py); calibrated times are in seconds of that host.
PROBE_NOMINAL_S = 1e-3
#: Probes within this many seconds of an op calibrate it.
PROBE_WINDOW_S = 0.25

Metrics = Dict[str, Tuple[float, str]]


class BenchmarkError(RuntimeError):
    """The benchmark itself could not run (no result is printed)."""


@dataclass
class Launch:
    """What one workload child reported: its set-up time, the probe
    time it measured right after set-up, its result and span dumps."""

    setup_s: float
    probe_s: float
    result: Optional[Dict[str, Any]]
    dumps: List[Dict[str, Any]]


def child_env(tmp: pathlib.Path) -> Dict[str, str]:
    """The pinned environment of every measured process.

    Every ``REPRO_*`` knob is dropped so that no resume journal, LP
    backend or characterisation mode leaks in from the caller; the
    on-disk cache is off so set-up always characterises cold.
    """
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("REPRO_")}
    env.update({
        "REPRO_NO_CACHE": "1",
        "REPRO_WORKERS": "1",
        "OMP_NUM_THREADS": "1",
        "OPENBLAS_NUM_THREADS": "1",
        "MKL_NUM_THREADS": "1",
        "PYTHONHASHSEED": "0",
        "PYTHONPATH": str(ROOT / "src"),
        "TMPDIR": str(tmp),
    })
    return env


def kill_group(pgid: int) -> None:
    """SIGKILL every process left in a workload child's group."""
    with contextlib.suppress(ProcessLookupError):
        os.killpg(pgid, signal.SIGKILL)


def wait_group(pgid: int, timeout_s: float = 10.0) -> None:
    """Wait until no process of the group is left (its grandchildren
    are not ours to ``wait`` for)."""
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        try:
            os.killpg(pgid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.05)
    raise BenchmarkError(f"processes of group {pgid} did not end")


def launch(workload: str, seed: int, seconds: float,
           work: pathlib.Path, deadline: float, traced: bool = False,
           setup_only: bool = False) -> Launch:
    """Run one workload child to completion and collect its report."""
    work.mkdir(parents=True)
    cmd = [sys.executable, str(HERE / "workloads.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", repr(seconds), "--out", str(work)]
    if traced:
        cmd.append("--trace")
    if setup_only:
        cmd.append("--setup-only")
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchmarkError("run budget exhausted")
    start = time.perf_counter()
    # Its own session, so that a kill also reaches the daemons it runs.
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                            cwd=ROOT, env=child_env(work),
                            start_new_session=True)
    timer = threading.Timer(remaining, kill_group, (proc.pid,))
    timer.start()
    try:
        ready = proc.stdout.readline()
        setup_s = time.perf_counter() - start
        proc.stdout.read()
        code = proc.wait()
    finally:
        timer.cancel()
        kill_group(proc.pid)
        proc.wait()
        proc.stdout.close()
        wait_group(proc.pid)
    word, _, probe = ready.partition(" ")
    if word != "READY" or code != 0:
        raise BenchmarkError(f"{workload} child failed (exit {code})")
    if setup_only:
        return Launch(setup_s, float(probe), None, [])
    with open(work / "result.json", encoding="utf-8") as fh:
        result = json.load(fh)
    dumps = []
    for path in sorted(work.glob("spans-*.json")):
        with open(path, encoding="utf-8") as fh:
            dumps.append(json.load(fh))
    return Launch(setup_s, float(probe), result, dumps)


def ops_per_s(result: Dict[str, Any]) -> float:
    """Units of work per calibrated second at the run's median pace.

    Each op's wall time is calibrated: scaled by ``PROBE_NOMINAL_S``
    over the median probe time taken within ``PROBE_WINDOW_S`` of it
    (or the nearest probe). The probe runs no repro code, so a change
    in the program moves the calibrated time, while a host that is
    running slower for the moment slows both and cancels out. Each
    class of op (one power manager's decisions, fleet chunks,
    advances) is then charged its median calibrated time per unit of
    work for every unit it did. With ``concurrency`` ops in flight
    (the daemon's two clients) the pace is multiplied by it, as
    Little's law gives it.
    """
    probes = sorted(result["probes"])
    times = [t for t, _ in probes]
    per_unit: Dict[str, List[float]] = {}
    units: Dict[str, int] = {}
    for name, start, seconds, count in result["ops"]:
        lo = bisect.bisect_left(times, start - PROBE_WINDOW_S)
        hi = bisect.bisect_right(times, start + seconds + PROBE_WINDOW_S)
        window = [p for _, p in probes[lo:hi]]
        if not window:
            near = min(range(len(times)),
                       key=lambda i: abs(times[i] - start))
            window = [probes[near][1]]
        scale = PROBE_NOMINAL_S / statistics.median(window)
        per_unit.setdefault(name, []).append(seconds / count * scale)
        units[name] = units.get(name, 0) + count
    busy = sum(statistics.median(per_unit[name]) * units[name]
               for name in per_unit)
    return result["concurrency"] * sum(units.values()) / busy


def end_to_end(run: Launch, setups: List[Launch]) -> Metrics:
    result = run.result
    setup = [s.setup_s * PROBE_NOMINAL_S / s.probe_s for s in setups]
    return {
        "setup_s": (statistics.median(setup), "s"),
        "ops_per_s": (ops_per_s(result), "1/s"),
        "peak_rss_mb": (result["peak_rss_kb"] / 1024.0, "MB"),
    }


def per_layer(result: Dict[str, Any], merged: Dict[str, Any],
              untraced: Dict[str, Any]) -> Metrics:
    """Per-layer metrics of a traced run (uncalibrated host time;
    ``untraced`` is the same workload's untraced result)."""
    wall = result["timed_wall_s"]
    out = spans.layer_metrics(merged, wall)
    latencies = [seconds for _, _, seconds, _ in result["ops"]]
    latency = sum(latencies)
    daemon = dict.fromkeys(("daemon.advance_p50_intervals",
                            "daemon.advance_p99_intervals",
                            "daemon.transport_frac"), (0.0, "ratio"))
    daemon["daemon.recovered_tenants_per_s"] = (0.0, "1/s")
    if result["workload"] == "daemon_durable":
        cuts = statistics.quantiles(latencies, n=100, method="inclusive")
        interval = spans.CONTROL_INTERVAL_S
        served = merged["spans"]["daemon.controller.advance"][2] / 1e9
        recovery = statistics.median(
            r["recovery_s"] for r in result["restarts"])
        daemon = {
            "daemon.advance_p50_intervals": (cuts[49] / interval, "ratio"),
            "daemon.advance_p99_intervals": (cuts[98] / interval, "ratio"),
            "daemon.transport_frac": (1.0 - served / latency, "ratio"),
            "daemon.recovered_tenants_per_s": (
                result["tenants"] / recovery, "1/s"),
        }
        # The work runs on the client threads, so the root's share
        # is whatever those threads spent outside an advance.
        unattributed = 1.0 - latency / (result["concurrency"] * wall)
    else:
        _, self_ns, total_ns = merged["spans"]["workload.timed"]
        unattributed = self_ns / total_ns
    out.update(daemon)
    out["trace.wall_s"] = (wall, "s")
    out["trace.overhead_frac"] = (
        ops_per_s(untraced) / ops_per_s(result) - 1.0, "ratio")
    out["trace.unattributed_frac"] = (unattributed, "ratio")
    return out


def simulated(result: Dict[str, Any]) -> Dict[str, float]:
    """Headline simulated outputs of a run's first pass (host-free,
    exact for a given seed; the digests pin them)."""
    out = result["passes"][0]
    if result["workload"] == "fig11_sann":
        table = out["averages"]
        return {"linopt_mips_gain": table["VarF&AppIPC+LinOpt"][0],
                "linopt_ed2": table["VarF&AppIPC+LinOpt"][2],
                "foxton_mips_gain": table["VarF&AppIPC+Foxton*"][0],
                "sann_mips_gain": table["VarF&AppIPC+SAnn"][0]}
    if result["workload"] == "fleet_cold":
        return {f"mean_{name}": m["mean"]
                for name, m in sorted(out["summary"].items())}
    return {"decisions": float(sum(out["decisions"]))}


def run_once(workload: str, seed: int, seconds: float, trace: bool,
             ) -> Tuple[Metrics, checks.Verdict, Dict[str, float]]:
    """One measured run of one workload: metrics, checks, outputs."""
    deadline = time.monotonic() + RUN_BUDGET_S
    pinned = checks.load_pinned()
    scratch = HERE / ".work"
    scratch.mkdir(exist_ok=True)
    work = pathlib.Path(tempfile.mkdtemp(prefix=f"{workload}-",
                                         dir=scratch))
    try:
        if not trace:
            setups = [launch(workload, seed, seconds, work / f"setup{i}",
                             deadline, setup_only=True)
                      for i in range(SETUP_LAUNCHES - 1)]
            run = launch(workload, seed, seconds, work / "run", deadline)
            return (end_to_end(run, setups + [run]),
                    checks.verify(run.result, pinned),
                    simulated(run.result))
        plain = launch(workload, seed, seconds, work / "plain",
                       deadline).result
        traced = launch(workload, seed, seconds, work / "traced",
                        deadline, traced=True)
        verdict = checks.verify(plain, pinned)
        again = checks.verify(traced.result, pinned,
                              reference=plain["passes"][0]["digest"])
        verdict.failed = max(verdict.failed, again.failed)
        verdict.problems += [f"traced {p}" for p in again.problems]
        metrics = per_layer(traced.result, spans.merge(traced.dumps),
                            plain)
        return metrics, verdict, simulated(plain)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _fmt(value: float) -> str:
    return f"{value:.6g}"


def print_metrics(workload: str, metrics: Metrics) -> None:
    width = max(len(name) for name in metrics)
    print(f"== {workload}")
    for name, (value, unit) in metrics.items():
        print(f"  {name.ljust(width)}  {_fmt(value):>12} {unit}")


def print_layers(workload: str, metrics: Metrics) -> None:
    """The per-layer table: spans by self time, then the counters.
    Span shares are also shown as seconds of the timed phase."""
    names = [n[:-len(".calls")] for n in metrics if n.endswith(".calls")]
    names.sort(key=lambda n: -metrics[f"{n}.self_frac"][0])
    wall = metrics["trace.wall_s"][0]
    print(f"== {workload} (traced)")
    print(f"  {'span':<30} {'calls':>9} {'self_frac':>10} "
          f"{'total_frac':>10} {'self_s':>9} {'total_s':>9}")
    for name in names:
        share, total = (metrics[f"{name}.self_frac"][0],
                        metrics[f"{name}.total_frac"][0])
        print(f"  {name:<30} {metrics[name + '.calls'][0]:>9.0f} "
              f"{share:>10.4f} {total:>10.4f} "
              f"{share * wall:>9.3f} {total * wall:>9.3f}")
    for name, (value, unit) in metrics.items():
        if not name.endswith((".calls", ".self_frac", ".total_frac")):
            print(f"  {name:<41} {_fmt(value):>12} {unit}")


def print_spread(workload: str, runs: List[Metrics]) -> Metrics:
    """Median and quartiles of each metric over repeated runs."""
    print(f"== {workload}: {len(runs)} runs")
    print(f"  {'metric':<34} {'median':>12} {'q1':>12} {'q3':>12} "
          f"{'iqr/med':>8}")
    medians = {}
    for name, (_, unit) in runs[0].items():
        values = [run[name][0] for run in runs]
        q1, med, q3 = statistics.quantiles(values, n=4)
        spread = (q3 - q1) / med if med else 0.0
        print(f"  {name:<34} {_fmt(med):>12} {_fmt(q1):>12} "
              f"{_fmt(q3):>12} {spread:>8.3f} {unit}")
        medians[name] = (med, unit)
    return medians


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description="End-to-end benchmark of the repro package.")
    parser.add_argument("--workload", choices=WORKLOADS, default=None,
                        help="one workload (default: all three)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS,
                        help="minimum measured time per run; a run "
                             "repeats its workload pass until it has "
                             "passed (default %(default)s)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: report per-layer metrics from a traced "
                             "run instead of the end-to-end metrics")
    parser.add_argument("--repeat", type=int, default=1,
                        help="runs per workload, on consecutive seeds; "
                             "prints medians and quartiles")
    args = parser.parse_args(argv)
    if args.seed < 0 or args.repeat < 1 or args.seconds <= 0:
        parser.error("--seed must be >= 0, --repeat >= 1, "
                     "--seconds > 0")
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"run.py: no repro package under {ROOT / 'src'}",
              file=sys.stderr)
        return 2

    workloads = [args.workload] if args.workload else list(WORKLOADS)
    attempted = failed = 0
    problems: List[str] = []
    reported: Metrics = {}
    try:
        for workload in workloads:
            runs = []
            for k in range(args.repeat):
                metrics, verdict, outputs = run_once(
                    workload, args.seed + k, args.seconds,
                    bool(args.trace))
                attempted += verdict.attempted
                failed += verdict.failed
                problems += [f"{workload} seed {args.seed + k}: {p}"
                             for p in verdict.problems]
                if args.repeat == 1:
                    (print_layers if args.trace else print_metrics)(
                        workload, metrics)
                print(f"  seed {args.seed + k} simulated: " + ", ".join(
                    f"{name}={value:.6g}"
                    for name, value in outputs.items()))
                runs.append(metrics)
            if args.repeat > 1:
                metrics = print_spread(workload, runs)
            prefix = "" if args.workload else f"{workload}."
            reported.update({prefix + name: value
                             for name, value in metrics.items()})
    except BenchmarkError as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 2
    for problem in problems:
        print(f"CHECK FAILED: {problem}", file=sys.stderr)
    correct = failed == 0 and not problems
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in reported.items()}}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
