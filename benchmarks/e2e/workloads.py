"""Workload bodies of the end-to-end benchmark, one per child process.

``run.py`` starts this file once per measured process::

    python3 benchmarks/e2e/workloads.py --workload fleet_cold --seed 0 \
        --seconds 8 --out DIR [--trace] [--setup-only]

The child performs the workload's set-up, prints ``READY <probe_s>``
on stdout (the parent times set-up from launch to that line), then
repeats the workload's *pass* until ``--seconds`` have elapsed, at
least once. A pass is a fixed, seeded unit of work whose outputs are
deterministic, so every pass of a run must produce the same digest.
The child writes ``DIR/result.json`` (op timings, probe timeline, pass
outputs, memory) and, traced, ``DIR/spans-workload.json``. It prints
nothing else on stdout.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import hashlib
import json
import pathlib
import resource
import signal
import statistics
import subprocess
import sys
import threading
import time
from typing import Any, Dict, List, Optional, Tuple

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import spans  # noqa: E402
from repro.pm import PmResult, PowerManager  # noqa: E402
from repro.runtime import evaluate_levels  # noqa: E402

FIG11_THREADS = 20
#: Three short trials (three dies and workload draws) rather than one
#: long one: what a decision costs depends on the seed's die and
#: workload, and more draws per run average that out (README.md).
FIG11_TRIALS = 3
FIG11_DURATION_S = 0.04
#: Seeds tried before giving up on finding a thermally feasible input.
FIG11_ATTEMPTS = 8
FLEET_CHUNK = 64
DAEMON_TENANTS = 32
DAEMON_CLIENTS = 2
DAEMON_SLICE_S = spans.CONTROL_INTERVAL_S
DAEMON_RESTARTS = 3
#: Bound on every wait for a daemon process (start, shutdown).
DAEMON_WAIT_S = 60.0


class Probe:
    """A fixed, repro-independent calibration probe.

    One call measures the thread CPU time of 60 rounds of the
    operations the package's kernels spend their time in: interpreter
    work, ufuncs on small arrays and a small LU solve (about 1 ms on a
    quiet host). The host this runs on changes speed by up to 1.5x for
    seconds to minutes at a time; ``run.py`` divides each op's time by
    the probe times taken around it, which removes those swings but
    not a change in the program. CPU time rather than wall time keeps
    a probe that waits for the interpreter lock (the daemon's two
    client threads) from reading as a slow host.
    """

    def __init__(self) -> None:
        import numpy as np
        from scipy.linalg import lu_factor, lu_solve
        self._np = np
        self._lu_solve = lu_solve
        self._x = np.linspace(0.5, 1.5, 2048).reshape(4, 512)
        self._lu = lu_factor(np.eye(40) * 4.0
                             + np.linspace(0.0, 1.0, 1600).reshape(40, 40))

    def __call__(self) -> float:
        np, x = self._np, self._x
        t0 = time.thread_time()
        out = np.empty_like(x)  # per call: client threads probe at once
        acc = 0
        for _ in range(60):
            np.exp(-x, out=out)
            np.multiply(out, x, out=out)
            acc += int(np.argmax(self._lu_solve(self._lu, out[0, :40])))
            acc += sum(range(48))
        return time.thread_time() - t0


class Workload:
    """One workload: set-up, repeated passes, then a finishing phase.

    ``ops`` collects ``(class, start, seconds, units)`` for every
    timed operation and ``probes`` the ``(time, seconds)`` timeline of
    calibration probes taken between ops; ``concurrency`` is how many
    ops are in flight at once.
    """

    concurrency = 1

    def __init__(self, seed: int, out: pathlib.Path, probe: Probe,
                 recorder: Optional[spans.Recorder]) -> None:
        self.seed = seed
        self.out = out
        self.recorder = recorder
        self.ops: List[Tuple[str, float, float, int]] = []
        self.probes: List[Tuple[float, float]] = []
        self._probe = probe

    def probe(self) -> None:
        self.probes.append((time.perf_counter(), self._probe()))

    def setup(self) -> None:
        raise NotImplementedError

    def run_pass(self, index: int) -> Dict[str, Any]:
        raise NotImplementedError

    def finish(self) -> Dict[str, Any]:
        return {"peak_rss_kb": resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss}

    def close(self) -> None:
        """Release processes and sockets (runs on every exit path)."""


class TopLevelScreen(PowerManager):
    """A manager that evaluates every core at its top level, then
    parks every core at its lowest one (see Fig11Sann)."""

    name = "top-level screen"

    def set_levels(self, chip, workload, assignment, env, rng=None,
                   ipc_multipliers=None, ceff_multipliers=None,
                   **_ignored) -> PmResult:
        phase = {"ipc_multipliers": ipc_multipliers,
                 "ceff_multipliers": ceff_multipliers}
        evaluate_levels(chip, workload, assignment,
                        self._top_levels(chip, assignment), **phase)
        floor = [0] * assignment.n_threads
        return PmResult(levels=tuple(floor), evaluations=2,
                        state=evaluate_levels(chip, workload, assignment,
                                              floor, **phase))


class Fig11Sann(Workload):
    """Fig 11 at 20 threads: Cost-Performance, online protocol, all
    four Table 1 algorithms, three 40 ms trials (48 decisions)."""

    def setup(self) -> None:
        from repro.config import COST_PERFORMANCE
        from repro.experiments.pm_runner import (
            run_pm_comparison,
            standard_algorithms,
        )
        self._env = COST_PERFORMANCE
        self._run = run_pm_comparison
        specs = standard_algorithms(online=True)
        self._algorithms = [dataclasses.replace(
            spec, make_manager=self._timed(spec)) for spec in specs]
        self._inputs_seed, self._factory = self._feasible_inputs(specs)

    def _feasible_inputs(self, specs):
        """The first seed (``--seed``, then seeds derived from it) whose
        trials the model can simulate, with its characterised dies.

        A few dies of the 20-core population run away thermally with
        every core at its top level, and the first decision of every
        trial evaluates exactly that. A screening pass replays the
        run's decision points with a manager that evaluates the top
        levels and then parks every core at its lowest one, so it
        fails wherever the real run could and is otherwise cheap.
        """
        import numpy as np
        from repro.experiments.common import ChipFactory
        screen = [dataclasses.replace(spec, make_manager=TopLevelScreen)
                  for spec in specs]
        for attempt in range(FIG11_ATTEMPTS):
            seed = self.seed if attempt == 0 else int(
                np.random.SeedSequence([self.seed, attempt])
                .generate_state(1)[0])
            factory = ChipFactory(seed=seed, workers=1, cache=None)
            try:
                self._run(factory, self._env, FIG11_THREADS, FIG11_TRIALS,
                          FIG11_TRIALS, algorithms=screen,
                          protocol="online", seed=seed,
                          duration_s=FIG11_DURATION_S,
                          interval_s=spans.CONTROL_INTERVAL_S)
            except RuntimeError:
                # ThermalRunawayError, or a leakage-temperature loop
                # that does not converge: the input is infeasible.
                continue
            return seed, factory
        raise RuntimeError(f"no thermally feasible fig11 input in "
                           f"{FIG11_ATTEMPTS} seeds from {self.seed}")

    def _timed(self, spec):
        """A manager factory whose managers time each decision.

        A decision's units of work are the candidate states it
        examined: system evaluations plus SAnn memo hits. Their number
        varies with the seed's die and workload, but not with how fast
        the program examines them, so the rate per unit compares
        across seeds where decisions per second would not.
        """
        make, name = spec.make_manager, spec.name

        def make_manager():
            manager = make()
            decide = manager.set_levels

            def set_levels(*args, **kwargs):
                self.probe()
                t0 = time.perf_counter()
                result = decide(*args, **kwargs)
                seconds = time.perf_counter() - t0
                units = result.evaluations + int(
                    result.stats.get("sa_cache_hits", 0))
                self.ops.append((name, t0, seconds, units))
                self.probe()
                return result

            manager.set_levels = set_levels
            return manager

        return make_manager

    def run_pass(self, index: int) -> Dict[str, Any]:
        first = len(self.ops)
        averages = self._run(self._factory, self._env, FIG11_THREADS,
                             FIG11_TRIALS, FIG11_TRIALS,
                             algorithms=self._algorithms,
                             protocol="online", seed=self._inputs_seed,
                             duration_s=FIG11_DURATION_S,
                             interval_s=spans.CONTROL_INTERVAL_S)
        table = {name: [avg.mips, avg.weighted_mips, avg.ed2,
                        avg.weighted_ed2, avg.power]
                 for name, avg in averages.items()}
        return {"digest": checks.fig11_digest(table),
                "averages": table, "ops": len(self.ops) - first}


class FleetCold(Workload):
    """A cold fleet campaign: 1600 FLEET_ARCH dies, one worker, the
    characterisation cache off, chunks of 64."""

    def setup(self) -> None:
        from repro.fleet import FleetPlan, run_fleet_campaign
        self._run = run_fleet_campaign
        self._plan = FleetPlan(name="fleet", n_dies=checks.FLEET_DIES,
                               seed=self.seed, chunk_dies=FLEET_CHUNK)

    def run_pass(self, index: int) -> Dict[str, Any]:
        done = [0]
        self.probe()
        mark = [time.perf_counter()]

        def progress(dies: int, total: int) -> None:
            now = time.perf_counter()
            self.ops.append(("chunk", mark[0], now - mark[0],
                             dies - done[0]))
            done[0] = dies
            self.probe()
            mark[0] = time.perf_counter()

        result = self._run(self._plan, self.out / f"pass{index}",
                           workers=1, cache=None, progress=progress)
        raw = result.summary_path.read_bytes()
        metrics = json.loads(raw)["metrics"]
        return {"digest": hashlib.sha256(raw).hexdigest(),
                "ops": done[0],
                "summary": {name: {"mean": m["mean"], "count": m["count"]}
                            for name, m in metrics.items()}}


def tenant_specs(seed: int) -> List[Dict[str, Any]]:
    """The daemon's tenants: 4-core chips, Cost-Performance, the
    default resilient LinOpt stack, seeds drawn from the run seed."""
    import numpy as np
    rng = np.random.default_rng([seed, 0xDAE])
    return [{"seed": int(s), "n_cores": 4, "env": "cost_performance",
             "duration_s": checks.DAEMON_ROUNDS * DAEMON_SLICE_S,
             "dvfs_interval_s": DAEMON_SLICE_S}
            for s in rng.integers(0, 2**31 - 1, size=DAEMON_TENANTS)]


class DaemonDurable(Workload):
    """A durable daemon child serving 32 tenants to a closed loop of
    two client threads, then SIGKILLed and restarted three times."""

    concurrency = DAEMON_CLIENTS
    _proc: Optional[subprocess.Popen] = None
    _clients: Tuple[Any, ...] = ()

    def setup(self) -> None:
        from repro.daemon.client import DaemonClient, DaemonError
        self._client_cls = DaemonClient
        self._error_cls = DaemonError
        self._state = self.out / "state"
        self._launches = 0
        self._specs = tenant_specs(self.seed)
        self._names: List[str] = []
        self._peak_kb = 0
        port = self._spawn()
        self._clients = [self._client_cls("127.0.0.1", port)
                         for _ in range(DAEMON_CLIENTS)]
        self._pass_names = self._register(0)

    def _spawn(self) -> int:
        """Start a daemon on the state dir; its port once listening."""
        cmd = [sys.executable, str(HERE / "daemon_launcher.py")]
        if self.recorder is not None:
            cmd += ["--spans",
                    str(self.out / f"spans-daemon-{self._launches}.json")]
        cmd += ["--", "--state-dir", str(self._state), "--port", "0"]
        self._launches += 1
        self._proc = subprocess.Popen(cmd, stdout=subprocess.PIPE,
                                      text=True, cwd=ROOT)
        timer = threading.Timer(DAEMON_WAIT_S, self._proc.kill)
        timer.start()
        try:
            for line in self._proc.stdout:
                if line.startswith("repro daemon listening on "):
                    return int(line.rsplit(":", 1)[1])
        finally:
            timer.cancel()
        raise RuntimeError("daemon exited before listening")

    def _register(self, index: int) -> List[str]:
        names = [f"p{index}-t{i:02d}" for i in range(DAEMON_TENANTS)]
        for i, (name, spec) in enumerate(zip(names, self._specs)):
            self._clients[i % DAEMON_CLIENTS].register(name, **spec)
        self._names.extend(names)
        return names

    def _drive(self, client, names: List[str],
               streams: Dict[str, List[Any]], errors: List[str]) -> None:
        """One closed-loop client: its tenants, one slice per round."""
        for r in range(1, checks.DAEMON_ROUNDS + 1):
            self.probe()
            for name in names:
                t0 = time.perf_counter()
                try:
                    reply = client.advance(name,
                                           until_s=r * DAEMON_SLICE_S)
                except self._error_cls as exc:
                    errors.append(f"{name}: {exc}")
                    continue
                self.ops.append(("advance", t0,
                                 time.perf_counter() - t0, 1))
                streams[name].extend(reply["decisions"])
        self.probe()

    def run_pass(self, index: int) -> Dict[str, Any]:
        if index > 0:
            self._pass_names = self._register(index)
        names = self._pass_names
        streams: Dict[str, List[Any]] = {name: [] for name in names}
        errors: List[str] = []
        threads = [threading.Thread(
            target=self._drive,
            args=(client, names[k::DAEMON_CLIENTS], streams, errors))
            for k, client in enumerate(self._clients)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        if index == 0:
            # The daemon's high-water mark while serving one pass's
            # tenants (later passes add tenants, so they would not
            # compare with a one-pass run).
            self._peak_kb = _peak_rss_kb(self._proc.pid)
        ordered = [streams[name] for name in names]
        return {"digest": checks.daemon_digest(ordered),
                "ops": DAEMON_TENANTS * checks.DAEMON_ROUNDS,
                "errors": errors,
                "decisions": [len(s) for s in ordered]}

    def _traces(self, client) -> Dict[str, Any]:
        return {name: client.request("trace", tenant=name)
                for name in self._names}

    def _stop(self) -> None:
        """SIGKILL untraced; traced, the ``shutdown`` verb lets the
        daemon write its spans. Every op was fsynced before its reply,
        so both leave the same state on disk."""
        proc, self._proc = self._proc, None
        if self.recorder is None:
            proc.send_signal(signal.SIGKILL)
        else:
            with contextlib.suppress(OSError, self._error_cls):
                self._clients[0].request("shutdown")
        try:
            proc.wait(DAEMON_WAIT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
        proc.stdout.close()
        for client in self._clients:
            client.close()
        self._clients = ()

    def finish(self) -> Dict[str, Any]:
        before = self._traces(self._clients[0])
        self._stop()
        restarts = []
        for _ in range(DAEMON_RESTARTS):
            t0 = time.perf_counter()
            port = self._spawn()
            self._clients = [self._client_cls("127.0.0.1", port)]
            ping = self._clients[0].ping()
            ready_s = time.perf_counter() - t0
            status = self._clients[0].request("status")
            restarts.append({
                "recovery_s": ready_s,
                "tenants": ping["tenants"],
                "quarantined": status["telemetry"]["quarantined"],
                "recovery": status["recovery"],
                "traces_match": self._traces(self._clients[0]) == before,
            })
            self._stop()
        return {"peak_rss_kb": self._peak_kb, "restarts": restarts,
                "tenants": len(self._names)}

    def close(self) -> None:
        if self._proc is not None:
            self._proc.kill()
            self._proc.wait()
            self._proc.stdout.close()
            self._proc = None
        for client in self._clients:
            client.close()


def _peak_rss_kb(pid: int) -> int:
    """A live process's resident-set high-water mark (``VmHWM``)."""
    with open(f"/proc/{pid}/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError(f"no VmHWM for pid {pid}")


WORKLOADS = {
    "fig11_sann": Fig11Sann,
    "fleet_cold": FleetCold,
    "daemon_durable": DaemonDurable,
}


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)
    out = pathlib.Path(args.out)

    recorder = None
    if args.trace:
        recorder = spans.new_recorder()
        spans.install(recorder)
    probe = Probe()
    workload = WORKLOADS[args.workload](args.seed, out, probe, recorder)
    try:
        workload.setup()
        print(f"READY {statistics.median(probe() for _ in range(5))!r}",
              flush=True)
        if args.setup_only:
            return 0
        root = (recorder.span("workload.timed") if recorder is not None
                else contextlib.nullcontext())
        passes = []
        start = time.perf_counter()
        with root:
            while True:
                passes.append(workload.run_pass(len(passes)))
                if time.perf_counter() - start >= args.seconds:
                    break
        wall = time.perf_counter() - start
        result = {"workload": args.workload, "seed": args.seed,
                  "passes": passes, "ops": workload.ops,
                  "probes": workload.probes,
                  "concurrency": workload.concurrency,
                  "timed_wall_s": wall}
        result.update(workload.finish())
    finally:
        workload.close()
    if recorder is not None:
        recorder.dump(str(out / "spans-workload.json"))
    with open(out / "result.json", "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
