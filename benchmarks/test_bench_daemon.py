"""Benchmark: the resilient daemon serving a fleet of tenants.

Stands up a real :class:`~repro.daemon.ServerThread` (asyncio loop,
TCP sockets, NDJSON protocol) and drives it the way the acceptance
scenario does: a burst of tenant registrations from several client
connections, then interleaved advances until every tenant finishes.
The record reports registration throughput (tenants/s), the daemon's
own p99 actuation latency for ``advance`` requests, and the
dropped-frame counter of the pub/sub path (which must stay zero for a
consumer that keeps up).

Throughput and latency are machine-dependent, so they are enforced
through the perf gate's ``floors`` mechanism rather than the drift
check; the decision/advance counters are deterministic and pinned.
"""

import time

from conftest import emit

from repro.daemon import DaemonClient, DaemonController, ServerThread
from repro.experiments.common import format_rows

N_TENANTS = 32
N_CLIENTS = 4
SLICES = (0.01, 0.02, None)  # None = to_end
# Registration (characterise-once chips + per-tenant stack assembly)
# sustains well over 20 tenants/s on any recent machine; the floor
# only guards against order-of-magnitude collapses.
MIN_TENANTS_PER_S = 5.0

N_RECOVER = 16
# Recovery restores snapshots (no chip re-characterisation) so it
# sustains hundreds of tenants/s; like the registration floor this
# only catches order-of-magnitude collapses (e.g. snapshot loading
# silently falling back to full characterise-and-replay).
MIN_RECOVERY_TENANTS_PER_S = 5.0


def _register_all(host, port):
    """(registration wall, evaluations summed over every decision the
    advance replies stream)."""
    clients = [DaemonClient(host, port) for _ in range(N_CLIENTS)]
    try:
        t0 = time.perf_counter()
        for i in range(N_TENANTS):
            clients[i % N_CLIENTS].register(
                f"bench-{i:02d}", seed=i % 8, n_cores=4, n_threads=3,
                duration_s=0.03, dvfs_interval_s=0.01)
        register_wall = time.perf_counter() - t0
        evaluations = 0
        for until in SLICES:
            for i in range(N_TENANTS):
                client = clients[i % N_CLIENTS]
                if until is None:
                    reply = client.advance(f"bench-{i:02d}", to_end=True)
                else:
                    reply = client.advance(f"bench-{i:02d}",
                                           until_s=until)
                evaluations += sum(d["evaluations"]
                                   for d in reply["decisions"])
        return register_wall, evaluations
    finally:
        for client in clients:
            client.close()


def test_daemon_service_throughput(benchmark, results_dir):
    controller = DaemonController(cache=None)
    with ServerThread(controller) as (host, port):
        register_wall, evaluations = benchmark.pedantic(
            _register_all, args=(host, port), rounds=1, iterations=1)
        with DaemonClient(host, port) as client:
            status = client.status()

    snapshot = status["telemetry"]
    counters = snapshot["counters"]
    advance = snapshot["latency"]["advance"]
    throughput = N_TENANTS / register_wall
    # What the tenants did is read from their status entries.
    decisions = sum(info["decisions"] for info in status["tenants"])
    finished = sum(info["status"] == "finished"
                   for info in status["tenants"])
    quarantines = len(snapshot["quarantined"])

    assert counters["tenants_registered"] == N_TENANTS
    assert finished == N_TENANTS
    assert quarantines == 0

    metrics = {
        # Deterministic protocol counters: pinned by the drift check.
        "tenants_registered": float(counters["tenants_registered"]),
        "tenants_finished": float(finished),
        "advances": float(counters["advances"]),
        "decisions": float(decisions),
        "advance_evaluations": float(evaluations),
        "dropped_frames": float(counters["dropped_frames"]),
        "quarantines": float(quarantines),
        # Machine-dependent: exempt from drift, floored below.
        "register_throughput_tenants_per_s": throughput,
        "register_wall_s": register_wall,
        "advance_p99_s": advance["p99_s"],
        "advance_p50_s": advance["p50_s"],
    }
    table = format_rows(
        ["metric", "value"],
        [["tenants served", N_TENANTS],
         ["register throughput (tenants/s)", throughput],
         ["advance p50 (ms)", 1e3 * advance["p50_s"]],
         ["advance p99 (ms)", 1e3 * advance["p99_s"]],
         ["decisions streamed", decisions],
         ["dropped frames", counters["dropped_frames"]]],
        f"Daemon serving {N_TENANTS} tenants over {N_CLIENTS} "
        f"connections (3 interleaved slices each)")
    emit(results_dir, "daemon", table, benchmark=benchmark,
         metrics=metrics,
         extra={"floors": {
             "register_throughput_tenants_per_s": MIN_TENANTS_PER_S}})

    assert throughput >= MIN_TENANTS_PER_S, (
        f"daemon registered only {throughput:.1f} tenants/s "
        f"(floor {MIN_TENANTS_PER_S})")


def _durable_spec(i):
    return dict(tenant=f"dur-{i:02d}", env="low_power",
                policy="VarF&AppIPC", manager=None, noise_sigma=0.0,
                watchdog=False, faults=None, seed=i % 4, n_cores=2,
                n_threads=2, duration_s=0.03, dvfs_interval_s=0.01)


def _populate_state(state_dir):
    controller = DaemonController(cache=None, state_dir=state_dir,
                                  snapshot_every=4)
    for i in range(N_RECOVER):
        controller.register(_durable_spec(i))
        for until in (0.01, 0.02, 0.03):
            controller.advance(f"dur-{i:02d}", until_s=until)
    return controller


def test_daemon_recovery_throughput(benchmark, results_dir, tmp_path):
    """Crash-recovery cost: rebuild a populated state directory.

    Writes N_RECOVER durable tenants (register + three advances each,
    snapshot_every=4 so each tenant ends snapshot-covered), drops the
    controller as a crash would, and times a cold
    :class:`DaemonController` construction over the same state dir —
    which runs the full recovery pass (snapshot restore, oplog
    replay, divergence checks) before it returns.
    """
    state_dir = tmp_path / "state"
    before = _populate_state(state_dir)
    digests = {name: before._get(name).stepper.decision_digest()
               for name in (f"dur-{i:02d}" for i in range(N_RECOVER))}
    del before

    def _recover():
        t0 = time.perf_counter()
        controller = DaemonController(cache=None, state_dir=state_dir)
        return controller, time.perf_counter() - t0

    recovered, recovery_wall = benchmark.pedantic(
        _recover, rounds=1, iterations=1)
    stats = recovered.last_recovery
    rate = N_RECOVER / recovery_wall

    assert stats.tenants_recovered == N_RECOVER
    assert stats.tenants_quarantined == 0
    for name, digest in digests.items():
        assert recovered._get(name).stepper.decision_digest() == digest

    metrics = {
        # Deterministic recovery counters: pinned by the drift check.
        "tenants_recovered": float(stats.tenants_recovered),
        "tenants_quarantined": float(stats.tenants_quarantined),
        "ops_replayed": float(stats.ops_replayed),
        "snapshot_restores": float(stats.snapshot_restores),
        # Machine-dependent: exempt from drift, floored below.
        "recovery_tenants_per_s": rate,
        "recovery_wall_s": recovery_wall,
        "recovery_per_100_tenants_s": 100.0 / rate,
    }
    table = format_rows(
        ["metric", "value"],
        [["tenants recovered", stats.tenants_recovered],
         ["recovery throughput (tenants/s)", rate],
         ["recovery per 100 tenants (s)", 100.0 / rate],
         ["ops replayed", stats.ops_replayed],
         ["snapshot restores", stats.snapshot_restores]],
        f"Daemon recovery of {N_RECOVER} durable tenants from a "
        f"crashed state directory")
    emit(results_dir, "daemon_recovery", table, benchmark=benchmark,
         metrics=metrics,
         extra={"floors": {
             "recovery_tenants_per_s": MIN_RECOVERY_TENANTS_PER_S}})

    assert rate >= MIN_RECOVERY_TENANTS_PER_S, (
        f"daemon recovered only {rate:.1f} tenants/s "
        f"(floor {MIN_RECOVERY_TENANTS_PER_S})")
