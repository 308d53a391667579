"""Chaos tests: the daemon under hostile clients and crashing tenants.

Every test stands up a real server (background thread, real sockets)
and attacks it: abrupt disconnects mid-request, malformed/oversized/
unknown-version frames, subscribers too slow for their bounded event
queue, and manager stacks that crash outright. The invariant under
test is always the same — the blast radius stays confined (one reply,
one connection, or one tenant) and the daemon keeps serving everyone
else.
"""

from __future__ import annotations

import json
import socket
import time

import pytest

from repro.daemon import (
    DaemonClient,
    DaemonController,
    DaemonError,
    ServerThread,
)
from repro.daemon.protocol import PROTOCOL_VERSION


def fast_tenant(client, name, **overrides):
    spec = dict(seed=3, n_cores=4, n_threads=3, duration_s=0.03,
                dvfs_interval_s=0.01)
    spec.update(overrides)
    return client.register(name, **spec)


def raw_request(client, rtype, req_id=1, **payload):
    frame = {"v": PROTOCOL_VERSION, "type": rtype, "id": req_id}
    frame.update(payload)
    client.send_raw((json.dumps(frame) + "\n").encode("utf-8"))


class TestHostileFrames:
    def test_malformed_frames_get_typed_errors_not_disconnects(self):
        with ServerThread(DaemonController(cache=None)) as (host,
                                                            port):
            with DaemonClient(host, port) as client:
                for raw in (b"not json at all\n", b"[1,2,3]\n",
                            b"\xff\xfe\xfd\n", b'{"v":1}\n'):
                    client.send_raw(raw)
                    reply = client.read_frame()
                    assert reply["ok"] is False
                    assert reply["error"]["code"] == "malformed"
                # Same connection still serves real requests.
                assert client.ping()["pong"]

    def test_unknown_version_is_survivable(self):
        with ServerThread(DaemonController(cache=None)) as (host,
                                                            port):
            with DaemonClient(host, port) as client:
                client.send_raw(b'{"v": 99, "type": "ping"}\n')
                reply = client.read_frame()
                assert reply["error"]["code"] == "unknown_version"
                assert client.ping()["pong"]
                tele = client.telemetry()
                assert tele["counters"][
                    "unknown_version_frames"] == 1

    def test_oversized_frame_survives_connection(self):
        # Above the frame budget but under the transport hard limit:
        # the frame is read, refused with a typed error, and the
        # connection carries on.
        ctl = DaemonController(cache=None)
        with ServerThread(ctl, max_frame_bytes=1024) as (host, port):
            with DaemonClient(host, port) as client:
                raw_request(client, "ping", junk="x" * 4096)
                reply = client.read_frame()
                assert reply["error"]["code"] == "oversized"
                assert client.ping()["pong"]
                assert ctl.telemetry.get("oversized_frames") == 1

    def test_hard_limit_overrun_closes_only_that_connection(self):
        # A frame that overruns the 8x hard read limit desynchronises
        # the stream: that connection gets an oversized error and is
        # dropped — but the server (and other clients) live on.
        ctl = DaemonController(cache=None)
        with ServerThread(ctl, max_frame_bytes=1024) as (host, port):
            with DaemonClient(host, port) as witness:
                assert witness.ping()["pong"]
                with DaemonClient(host, port) as attacker:
                    attacker.send_raw(b"y" * (80 * 1024) + b"\n")
                    reply = attacker.read_frame()
                    assert reply["error"]["code"] == "oversized"
                    assert attacker.read_frame() is None  # EOF
                # The witness connection never noticed.
                assert witness.ping()["pong"]
                fast_tenant(witness, "t0")
                assert witness.advance("t0",
                                       to_end=True)["finished"]


class TestAbruptDisconnect:
    def test_disconnect_mid_request_leaves_server_healthy(self):
        ctl = DaemonController(cache=None)
        with ServerThread(ctl) as (host, port):
            with DaemonClient(host, port) as client:
                fast_tenant(client, "t0")
            # Fire an advance and hang up before the reply.
            rude = DaemonClient(host, port)
            raw_request(rude, "advance", tenant="t0", to_end=True)
            rude._sock.close()
            # The request still ran to completion server-side and
            # the tenant's state is intact for the next client.
            deadline = time.monotonic() + 10
            with DaemonClient(host, port) as client:
                while time.monotonic() < deadline:
                    if client.request("tenant_info",
                                      tenant="t0")["finished"]:
                        break
                    time.sleep(0.01)
                info = client.request("tenant_info", tenant="t0")
                assert info["finished"]
                assert client.request("trace",
                                      tenant="t0")["decisions"] == 3

    def test_disconnect_while_subscribed_does_not_break_publish(self):
        ctl = DaemonController(cache=None)
        with ServerThread(ctl) as (host, port):
            ghost = DaemonClient(host, port)
            ghost.subscribe("*")
            ghost._sock.close()  # subscriber vanishes without a word
            with DaemonClient(host, port) as client:
                fast_tenant(client, "t0")
                # Publishing to the dead subscriber must not disturb
                # the request path.
                assert client.advance("t0", to_end=True)["finished"]
                assert client.ping()["pong"]

    def test_idle_clients_are_reaped(self):
        ctl = DaemonController(cache=None)
        with ServerThread(ctl, idle_timeout_s=0.2) as (host, port):
            idler = DaemonClient(host, port)
            assert idler.ping()["pong"]
            # Go silent past the timeout: the server hangs up on us.
            idler._sock.settimeout(5.0)
            assert idler._readline() == b""  # EOF from the reaper
            idler.close()
            assert ctl.telemetry.get("idle_reaped") == 1
            # Fresh connections are unaffected.
            with DaemonClient(host, port) as client:
                assert client.ping()["pong"]


class TestSlowSubscriber:
    def test_bounded_queue_drops_oldest_and_counts(self):
        # queue_size=2 while one advance publishes 3 decisions plus a
        # finished event back-to-back (no scheduling point between
        # them), so the overflow is deterministic: the oldest events
        # fall out, the freshest survive, and dropped_frames says so.
        ctl = DaemonController(cache=None)
        with ServerThread(ctl, queue_size=2) as (host, port):
            with DaemonClient(host, port) as subscriber, \
                    DaemonClient(host, port) as driver:
                fast_tenant(driver, "t0")
                # Subscribe only now so the queue sees exactly the
                # advance burst (no registered event in flight).
                subscriber.subscribe("t0")
                assert driver.advance("t0", to_end=True)["finished"]
                events = subscriber.drain_events(timeout_s=0.5)
                kinds = [e["event"] for e in events]
                assert len(events) == 2  # the queue's bound
                assert kinds[-1] == "finished"
                assert events[0]["event"] == "decision"
                assert events[0]["data"]["time_s"] == 0.02  # freshest
                assert ctl.telemetry.get("dropped_frames") == 2
            # The driver's replies were never dropped: direct writes
            # bypass the event queue entirely.
            assert ctl.telemetry.get("advances") == 1

    def test_fast_subscriber_loses_nothing(self):
        ctl = DaemonController(cache=None)
        with ServerThread(ctl, queue_size=64) as (host, port):
            with DaemonClient(host, port) as client:
                client.subscribe("t0")
                fast_tenant(client, "t0")
                client.advance("t0", to_end=True)
                events = client.drain_events(timeout_s=0.5)
                kinds = [e["event"] for e in events]
                assert kinds.count("decision") == 3
                assert ctl.telemetry.get("dropped_frames") == 0


class TestTenantBlastRadius:
    def test_manager_fault_quarantines_one_tenant_only(self):
        ctl = DaemonController(cache=None)
        with ServerThread(ctl) as (host, port):
            with DaemonClient(host, port) as client:
                client.subscribe("*")
                fast_tenant(client, "victim", manager={
                    "primary": "crashing", "crash_after": 1,
                    "resilient": False})
                fast_tenant(client, "bystander")
                with pytest.raises(DaemonError) as err:
                    client.advance("victim", to_end=True)
                assert err.value.code == "quarantined"
                # The failure was announced on the event stream.
                events = client.drain_events(timeout_s=0.5)
                assert any(e["event"] == "quarantined"
                           and e["tenant"] == "victim"
                           for e in events)
                # Every later touch gets the same typed error...
                with pytest.raises(DaemonError) as err:
                    client.advance("victim", until_s=0.01)
                assert err.value.code == "quarantined"
                # ...while the bystander, the connection and the
                # server itself are all untouched.
                assert client.advance("bystander",
                                      to_end=True)["finished"]
                trace = client.request("trace", tenant="bystander")
                assert trace["fallback_activations"] == 0
                assert list(ctl.quarantined()) == ["victim"]
                # Quarantined tenants can still be unregistered.
                out = client.request("unregister", tenant="victim")
                assert out["status"] == "quarantined"

    def test_resilient_tenant_degrades_instead_of_dying(self):
        ctl = DaemonController(cache=None)
        with ServerThread(ctl) as (host, port):
            with DaemonClient(host, port) as client:
                fast_tenant(client, "t0", manager={
                    "primary": "crashing", "crash_after": 2,
                    "resilient": True})
                out = client.advance("t0", to_end=True)
                tiers = [d["resilience_tier"]
                         for d in out["decisions"]]
                assert tiers[0] == 0
                assert all(t >= 1 for t in tiers[1:])
                assert ctl.quarantined() == {}


class TestRawSocketAbuse:
    def test_half_open_and_empty_lines(self):
        with ServerThread(DaemonController(cache=None)) as (host,
                                                            port):
            # A connection that sends nothing and leaves.
            drive_by = socket.create_connection((host, port),
                                                timeout=5)
            drive_by.close()
            # Empty lines are malformed frames, not crashes.
            with DaemonClient(host, port) as client:
                client.send_raw(b"\n\n")
                for _ in range(2):
                    reply = client.read_frame()
                    assert reply["error"]["code"] == "malformed"
                assert client.ping()["pong"]
