"""Tests for the resilient power-management daemon.

Layer by layer: protocol framing, declarative schemas, telemetry,
the transport-free controller, the asyncio server over real sockets,
and — at the end — the multi-tenant acceptance scenario: 200
concurrent tenants with injected sensor/core/manager faults and
client churn, zero cross-tenant interference (unfaulted tenants'
decision streams bitwise-identical to driving the stepper directly),
documented tier degradation, and a clean drain-then-stop exit.
"""

from __future__ import annotations

import json
import threading
import time

import pytest

from repro.daemon import (
    DaemonClient,
    DaemonController,
    DaemonError,
    DaemonTelemetry,
    ProtocolError,
    ServerThread,
    build_config,
    build_stepper,
    decision_to_dict,
    decode_frame,
    encode_frame,
    validate_request,
)
from repro.daemon.protocol import (
    ERR_INVALID,
    ERR_MALFORMED,
    ERR_OVERSIZED,
    ERR_UNKNOWN_TYPE,
    ERR_UNKNOWN_VERSION,
    PROTOCOL_VERSION,
    error_frame,
    event_frame,
    reply_frame,
)


def _frame(rtype, **payload):
    out = {"v": PROTOCOL_VERSION, "type": rtype}
    out.update(payload)
    return out


class TestProtocol:
    def test_roundtrip(self):
        frame = _frame("ping", id=3)
        assert decode_frame(encode_frame(frame)) == frame

    def test_oversized_frame_is_typed(self):
        line = encode_frame(_frame("ping", junk="x" * 100))
        with pytest.raises(ProtocolError) as err:
            decode_frame(line, max_frame_bytes=64)
        assert err.value.code == ERR_OVERSIZED

    def test_malformed_frames_are_typed(self):
        for line in (b"not json\n", b"[1, 2, 3]\n", b'"str"\n',
                     b"\xff\xfe\n", b'{"v": 1}\n',
                     b'{"v": 1, "type": 7}\n'):
            with pytest.raises(ProtocolError) as err:
                decode_frame(line)
            assert err.value.code in (ERR_MALFORMED,
                                      ERR_UNKNOWN_VERSION)

    def test_unknown_version_is_typed(self):
        for version in (0, 2, "1", None):
            with pytest.raises(ProtocolError) as err:
                decode_frame(encode_frame({"v": version,
                                           "type": "ping"}))
            assert err.value.code == ERR_UNKNOWN_VERSION

    def test_frame_builders_carry_version(self):
        assert reply_frame(1, {})["v"] == PROTOCOL_VERSION
        assert error_frame(1, ERR_INVALID, "x")["ok"] is False
        assert event_frame("t", "decision", {})["type"] == "event"

    def test_unknown_error_code_rejected(self):
        with pytest.raises(ValueError):
            ProtocolError("no_such_code", "boom")


class TestSchemas:
    def test_register_defaults(self):
        rtype, payload = validate_request(
            _frame("register", tenant="a"))
        assert rtype == "register"
        assert payload["seed"] == 0
        assert payload["n_cores"] == 4
        assert payload["env"] == "low_power"
        assert payload["policy"] == "VarF&AppIPC"

    def test_unknown_type(self):
        with pytest.raises(ProtocolError) as err:
            validate_request(_frame("launch_missiles"))
        assert err.value.code == ERR_UNKNOWN_TYPE

    def test_missing_required_field(self):
        with pytest.raises(ProtocolError) as err:
            validate_request(_frame("register"))
        assert err.value.code == ERR_INVALID

    def test_unknown_field_rejected(self):
        with pytest.raises(ProtocolError) as err:
            validate_request(_frame("ping", surprise=1))
        assert err.value.code == ERR_INVALID

    def test_type_confusion_rejected(self):
        bad = [
            _frame("register", tenant="a", seed=True),
            _frame("register", tenant="a", seed="7"),
            _frame("register", tenant=""),
            _frame("register", tenant="a", n_cores=1),
            _frame("register", tenant="a", env="warp_drive"),
            _frame("register", tenant="a", policy="NoSuchPolicy"),
            _frame("register", tenant="a", duration_s=-1.0),
            _frame("register", tenant="a",
                   manager={"primary": "bogus"}),
            _frame("register", tenant="a",
                   manager={"deadline_s": 0}),
            _frame("register", tenant="a",
                   faults=[{"kind": "nope", "time_s": 0.0}]),
            _frame("register", tenant="a",
                   faults=[{"kind": "sensor_dead", "time_s": -1.0}]),
            _frame("advance", tenant="a"),
            _frame("advance", tenant="a", until_s=0.0),
            _frame("inject", tenant="a", kind="sensor_dead"),
            _frame("timeline", tenant="a", width=5),
        ]
        for frame in bad:
            with pytest.raises(ProtocolError) as err:
                validate_request(frame)
            assert err.value.code == ERR_INVALID, frame

    def test_advance_variants(self):
        _, payload = validate_request(
            _frame("advance", tenant="a", until_s=0.01))
        assert payload["until_s"] == 0.01
        _, payload = validate_request(
            _frame("advance", tenant="a", to_end=True))
        assert payload["to_end"] is True


class TestTelemetry:
    def test_counters(self):
        tele = DaemonTelemetry()
        tele.incr("frames_in")
        tele.incr("frames_in", 2)
        assert tele.get("frames_in") == 3
        with pytest.raises(KeyError):
            tele.incr("made_up_counter")

    def test_latency_percentiles(self):
        tele = DaemonTelemetry()
        for ms in range(1, 101):
            tele.observe_latency("advance", ms / 1000.0)
        snap = tele.snapshot()
        stats = snap["latency"]["advance"]
        assert stats["count"] == 100
        assert 0.045 <= stats["p50_s"] <= 0.055
        assert stats["p99_s"] <= stats["max_s"] == 0.1
        assert "unseen" not in snap["latency"]

    def test_snapshot_has_stable_shape(self):
        snap = DaemonTelemetry().snapshot()
        assert snap["counters"]["dropped_frames"] == 0
        assert snap["latency"] == {}


def _fallback_status(ctl, name):
    """``(resilience_tier, cause, fallback_activations)`` of a
    tenant's ``status`` entry."""
    info = ctl.tenant_info(name)
    return (info["resilience_tier"], info["cause"],
            info["fallback_activations"])


def register_payload(tenant, **overrides):
    """A small, fast tenant registration (validated)."""
    frame = _frame("register", tenant=tenant, seed=3, n_cores=4,
                   n_threads=3, duration_s=0.03,
                   dvfs_interval_s=0.01)
    frame.update(overrides)
    return validate_request(frame)[1]


class TestController:
    def test_register_advance_trace(self):
        ctl = DaemonController(cache=None)
        info = ctl.register(register_payload("t0"))
        assert info["status"] == "active"
        out = ctl.advance("t0", until_s=0.015)
        assert [d["time_s"] for d in out["decisions"]] == [0.0, 0.01]
        out = ctl.advance("t0", to_end=True)
        assert out["finished"]
        trace = ctl.trace("t0")
        assert trace["decisions"] == 3
        assert ctl.tenant_info("t0")["status"] == "finished"
        assert ctl.unregister("t0")["status"] == "finished"
        assert ctl.tenants() == []

    def test_duplicate_and_unknown_tenant(self):
        ctl = DaemonController(cache=None)
        ctl.register(register_payload("t0"))
        with pytest.raises(ProtocolError) as err:
            ctl.register(register_payload("t0"))
        assert err.value.code == "duplicate_tenant"
        with pytest.raises(ProtocolError) as err:
            ctl.advance("ghost", to_end=True)
        assert err.value.code == "unknown_tenant"

    def test_threads_cannot_exceed_cores(self):
        with pytest.raises(ProtocolError) as err:
            build_config(register_payload("t0", n_threads=5))
        assert err.value.code == ERR_INVALID

    def test_trace_before_finish_is_invalid(self):
        ctl = DaemonController(cache=None)
        ctl.register(register_payload("t0"))
        with pytest.raises(ProtocolError) as err:
            ctl.trace("t0")
        assert err.value.code == ERR_INVALID

    def test_crash_quarantines_only_that_tenant(self):
        ctl = DaemonController(cache=None)
        ctl.register(register_payload("victim", manager={
            "primary": "crashing", "crash_after": 2,
            "resilient": False}))
        ctl.register(register_payload("bystander"))
        ctl.advance("victim", until_s=0.005)  # first call survives
        with pytest.raises(ProtocolError) as err:
            ctl.advance("victim", to_end=True)
        assert err.value.code == "quarantined"
        assert ctl.tenant_info("victim")["status"] == "quarantined"
        assert "ManagerFault" in str(
            ctl.tenant_info("victim")["quarantine_reason"])
        # Still quarantined on the next touch, and listed as such.
        with pytest.raises(ProtocolError) as err:
            ctl.advance("victim", to_end=True)
        assert err.value.code == "quarantined"
        assert list(ctl.quarantined()) == ["victim"]
        # The bystander is untouched.
        out = ctl.advance("bystander", to_end=True)
        assert out["finished"]
        assert ctl.trace("bystander")["fallback_activations"] == 0

    def test_resilient_crash_degrades_tiers_not_quarantine(self):
        ctl = DaemonController(cache=None)
        ctl.register(register_payload("t0", manager={
            "primary": "crashing", "crash_after": 2,
            "resilient": True}))
        out = ctl.advance("t0", to_end=True)
        tiers = [d["resilience_tier"] for d in out["decisions"]]
        assert tiers[0] == 0 and all(t >= 1 for t in tiers[1:])
        assert ctl.tenant_info("t0")["status"] == "finished"
        trace = ctl.trace("t0")
        assert trace["fallback_activations"] == 2
        # The scripted crash is a ManagerFault: an injected cause.
        assert trace["causes"] == {"injected": 2}
        assert ctl.quarantined() == {}

    def test_tier_transitions_are_counted(self):
        ctl = DaemonController(cache=None)
        ctl.register(register_payload("t0", manager={
            "primary": "crashing", "crash_after": 2,
            "resilient": True}))
        ctl.advance("t0", until_s=0.005)  # tier 0 decides
        assert _fallback_status(ctl, "t0") == (0, None, 0)
        # The fall to tier 1 counts once, and a deduped retry adds
        # nothing; staying there is no new transition.
        ctl.advance("t0", until_s=0.02, request_id="r1")
        ctl.advance("t0", until_s=0.02, request_id="r1")  # deduped
        assert _fallback_status(ctl, "t0") == (1, "injected", 1)
        ctl.advance("t0", to_end=True)
        assert ctl.trace("t0")["tier_transitions"] == [[0.01, 1]]
        assert _fallback_status(ctl, "t0") == (1, "injected", 2)

    def test_deadline_supervision_escalates(self):
        ctl = DaemonController(cache=None)
        # A deadline no wall clock can meet: every invocation
        # escalates past tier 0.
        ctl.register(register_payload("t0", manager={
            "deadline_s": 1e-9}))
        out = ctl.advance("t0", to_end=True)
        assert all(d["resilience_tier"] >= 1
                   for d in out["decisions"])
        assert {cause.split(",")[0] for cause
                in ctl.trace("t0")["causes"]} == {"deadline"}

    def test_inject_manager_fault(self):
        ctl = DaemonController(cache=None)
        ctl.register(register_payload("t0"))
        ctl.inject("t0", "manager_error")
        out = ctl.advance("t0", until_s=0.005)
        assert out["decisions"][0]["resilience_tier"] >= 1
        assert ctl.tenant_info("t0")["cause"].startswith("injected")

    def test_inject_needs_resilient_manager(self):
        ctl = DaemonController(cache=None)
        ctl.register(register_payload("t0", manager={
            "primary": "foxton", "resilient": False}))
        with pytest.raises(ProtocolError) as err:
            ctl.inject("t0", "manager_error")
        assert err.value.code == ERR_INVALID

    def test_timeline_shares_report_renderer(self):
        ctl = DaemonController(cache=None)
        ctl.register(register_payload("t0", manager={
            "deadline_s": 1e-9}))
        ctl.advance("t0", to_end=True)
        text = ctl.timeline("t0")["timeline"]
        # Same lanes as the ext-faults chart (one rendering path).
        for lane in ("faults", "watchdog", "tier fallback",
                     "lp fallback"):
            assert lane in text
        assert "*" in text  # the deadline misses mark the lane

    def test_telemetry_snapshot_counts_tenants(self):
        ctl = DaemonController(cache=None)
        ctl.register(register_payload("a"))
        ctl.register(register_payload("b"))
        ctl.advance("a", to_end=True)
        snap = ctl.telemetry_snapshot()
        assert snap["tenants"] == {"active": 1, "finished": 1}


class TestServer:
    def test_full_session_over_sockets(self):
        with ServerThread(DaemonController(cache=None)) as (host,
                                                            port):
            with DaemonClient(host, port) as client:
                assert client.ping()["pong"]
                client.subscribe("t0")
                client.register("t0", seed=3, n_cores=4, n_threads=3,
                                duration_s=0.03,
                                dvfs_interval_s=0.01)
                out = client.advance("t0", to_end=True)
                assert out["finished"]
                assert len(out["decisions"]) == 3
                events = client.drain_events(timeout_s=0.3)
                kinds = [e["event"] for e in events]
                assert kinds.count("decision") == 3
                assert kinds[-1] == "finished"
                trace = client.request("trace", tenant="t0")
                assert trace["decisions"] == 3

    def test_typed_errors_over_sockets(self):
        with ServerThread(DaemonController(cache=None)) as (host,
                                                            port):
            with DaemonClient(host, port) as client:
                with pytest.raises(DaemonError) as err:
                    client.advance("ghost", to_end=True)
                assert err.value.code == "unknown_tenant"
                with pytest.raises(DaemonError) as err:
                    client.request("register", tenant="x",
                                   n_cores=100)
                assert err.value.code == "invalid"
                assert client.ping()["pong"]

    def test_drain_refuses_new_tenants(self):
        with ServerThread(DaemonController(cache=None)) as (host,
                                                            port):
            with DaemonClient(host, port) as client:
                client.register("t0", duration_s=0.01,
                                dvfs_interval_s=0.01)
                assert client.request("drain")["draining"]
                with pytest.raises(DaemonError) as err:
                    client.register("t1", duration_s=0.01,
                                    dvfs_interval_s=0.01)
                assert err.value.code == "draining"
                # Existing tenants still complete during drain.
                assert client.advance("t0", to_end=True)["finished"]

    def test_shutdown_request_stops_server(self):
        thread = ServerThread(DaemonController(cache=None))
        host, port = thread.start()
        with DaemonClient(host, port) as client:
            assert client.request("shutdown")["stopping"]
        deadline = time.monotonic() + 10
        while (not thread.server._stopped.is_set()
               and time.monotonic() < deadline):
            time.sleep(0.01)
        assert thread.server._stopped.is_set()
        thread.stop()
        assert not thread._thread.is_alive()

    def test_decisions_roundtrip_floats_exactly(self):
        # JSON float round-trips are exact in Python, so a decision
        # published over the wire equals the in-process one bitwise.
        ctl = DaemonController(cache=None)
        ctl.register(register_payload("t0"))
        out = ctl.advance("t0", to_end=True)
        wire = json.loads(json.dumps(out["decisions"]))
        assert wire == out["decisions"]


N_TENANTS = 200
SLICES = (0.01, 0.02, None)  # None = to_end


def _tenant_spec(i):
    """Tenant i's registration overrides + expected fault class."""
    name = f"chip-{i:03d}"
    seed = i % 8
    group = i % 10
    if group == 0:
        # Scheduled manager fault mid-run: one-shot tier escalation.
        return name, register_payload(
            name, seed=seed,
            faults=[{"time_s": 0.012, "kind": "manager_error"}],
        ), "manager_fault"
    if group == 5:
        # Scripted primary crash absorbed by the fallback chain.
        return name, register_payload(
            name, seed=seed,
            manager={"primary": "crashing", "crash_after": 2,
                     "resilient": True}), "crashing"
    if group == 7:
        # Sensor + core faults under the full protection stack.
        return name, register_payload(
            name, seed=seed, noise_sigma=0.05, watchdog=True,
            faults=[{"time_s": 0.011, "kind": "sensor_dead",
                     "target": 0},
                    {"time_s": 0.013, "kind": "core_offline",
                     "target": 0}]), "hw_faults"
    return name, register_payload(name, seed=seed), "clean"


class TestAcceptanceScenario:
    """200 tenants, faults, churn: isolation + determinism + drain."""

    def test_two_hundred_tenants(self):
        specs = [_tenant_spec(i) for i in range(N_TENANTS)]
        controller = DaemonController(cache=None)
        thread = ServerThread(controller)
        host, port = thread.start()

        # Reference decision streams computed by driving the stepper
        # directly — the ground truth daemon tenants must match
        # bitwise. Chips come from an independent controller so no
        # state is shared with the server.
        reference = {}
        ref_ctl = DaemonController(cache=None)
        for name, payload, kind in specs:
            if kind in ("clean", "hw_faults"):
                config = build_config(payload)
                chip = ref_ctl._factory(config.n_cores,
                                        config.seed).chip(0)
                stepper = build_stepper(config, chip,
                                        bank_seed=config.seed + 42)
                stepper.run_to_end()
                reference[name] = [decision_to_dict(d)
                                   for d in stepper.decisions]

        # Drive via several concurrent clients with churn: every
        # client is replaced by a fresh connection between slices,
        # and the old ones are abandoned without goodbye.
        n_clients = 8
        shards = [specs[k::n_clients] for k in range(n_clients)]
        failures = []

        def drive(shard, barrier):
            clients = []
            try:
                client = DaemonClient(host, port)
                clients.append(client)
                for name, payload, _ in shard:
                    spec = {k: v for k, v in payload.items()
                            if v is not None and k != "tenant"}
                    client.register(name, **spec)
                barrier.wait(timeout=120)
                for until in SLICES:
                    for name, _, _ in shard:
                        if until is None:
                            client.advance(name, to_end=True)
                        else:
                            client.advance(name, until_s=until)
                    # Churn: hang up abruptly mid-campaign and carry
                    # on over a fresh connection.
                    old = client
                    client = DaemonClient(host, port)
                    clients.append(client)
                    old._sock.close()
            except Exception as exc:  # pragma: no cover - fail path
                failures.append(exc)
            finally:
                for c in clients:
                    try:
                        c.close()
                    except OSError:
                        pass

        barrier = threading.Barrier(n_clients)
        threads = [threading.Thread(target=drive, args=(shard,
                                                        barrier))
                   for shard in shards]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=300)
        assert not failures, failures

        # Collect results over a fresh connection.
        with DaemonClient(host, port) as client:
            tele = client.telemetry()
            assert tele["counters"]["tenants_registered"] == N_TENANTS
            assert tele["tenants"] == {"finished": N_TENANTS}
            assert tele["quarantined"] == {}

            for name, payload, kind in specs:
                info = client.request("tenant_info", tenant=name)
                assert info["finished"], name
                trace = client.request("trace", tenant=name)
                if kind == "clean":
                    assert trace["fallback_activations"] == 0, name
                elif kind == "manager_fault":
                    assert trace["fallback_activations"] >= 1, name
                elif kind == "crashing":
                    assert trace["fallback_activations"] >= 2, name
                    assert trace["tier_transitions"], name
                if name in reference:
                    assert trace["decisions"] == \
                        len(reference[name]), name

        # Bitwise identity of the unfaulted tenants' decision
        # streams: replay each one's decisions via the daemon's own
        # tenant objects and compare to the reference.
        for name, payload, kind in specs:
            if name not in reference:
                continue
            tenant = controller._get(name)
            got = [decision_to_dict(d)
                   for d in tenant.stepper.decisions]
            assert got == reference[name], (
                f"tenant {name} diverged from direct stepper run")

        # Drain-then-stop: clean exit with the thread joined.
        thread.stop()
        assert not thread._thread.is_alive()
