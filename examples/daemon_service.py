"""Serve chips through the resilient power-management daemon.

Stands up a real daemon in-process (background thread), connects a
:class:`~repro.daemon.ReconnectingClient` over TCP (the client that
rides out a daemon restart: it reconnects with backoff, resubscribes
and stamps request ids so a resent request is answered from the
journal, not re-executed), registers two tenants — one healthy, one with a
scripted fault schedule — drives them while subscribed to the
actuation stream, and prints the decision events, the shared
resilience timeline and the daemon's live telemetry. Ends with the
daemon's drain-then-stop shutdown.

Run:  PYTHONPATH=src python examples/daemon_service.py
"""

from repro.daemon import DaemonController, ReconnectingClient, ServerThread


def main() -> None:
    controller = DaemonController()
    with ServerThread(controller) as (host, port):
        with ReconnectingClient(host, port) as client:
            client.subscribe("*")

            client.register("healthy", seed=3, n_cores=4, n_threads=3,
                            duration_s=0.03, dvfs_interval_s=0.01)
            client.register(
                "faulty", seed=5, n_cores=4, n_threads=3,
                duration_s=0.03, dvfs_interval_s=0.01,
                noise_sigma=0.05, watchdog=True,
                faults=[{"time_s": 0.012, "kind": "sensor_dead",
                         "target": 0},
                        {"time_s": 0.015, "kind": "manager_error"}])

            # Drive both tenants in interleaved slices, as a
            # controller loop would.
            for until in (0.01, 0.02, None):
                for tenant in ("healthy", "faulty"):
                    if until is None:
                        client.advance(tenant, to_end=True)
                    else:
                        client.advance(tenant, until_s=until)

            print("actuation stream (tenant, event, t, tier):")
            for event in client.drain_events(timeout_s=0.3):
                data = event["data"]
                if event["event"] == "decision":
                    print(f"  {event['tenant']:8s} decision  "
                          f"t={data['time_s']:.3f}s "
                          f"tier={data['resilience_tier']} "
                          f"levels={data['levels']}")
                else:
                    print(f"  {event['tenant'] or '-':8s} "
                          f"{event['event']}")

            print()
            reply = client.request("timeline", tenant="faulty")
            print(reply["timeline"])

            print()
            telemetry = client.telemetry()
            counters = telemetry["counters"]
            print("telemetry (non-zero counters):")
            for name in sorted(counters):
                if counters[name]:
                    print(f"  {name:24s} {counters[name]}")
            advance = telemetry["latency"].get("advance")
            if advance:
                print(f"  advance p99              "
                      f"{advance['p99_s'] * 1e3:.2f} ms")


if __name__ == "__main__":
    main()
