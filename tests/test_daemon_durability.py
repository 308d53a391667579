"""Durability tests: op logs, snapshots, recovery, reconnection.

Three layers, mirroring the stack: :mod:`repro.daemon.durability`
units (torn-tail-tolerant op logs, sealed snapshots with
quarantine), :class:`DaemonController` crash recovery (decision
streams bitwise-identical to an uninterrupted run, idempotent
replays, divergence quarantine), and the wire level (a
:class:`ReconnectingClient` surviving daemon restarts mid-request and
mid-subscription with deterministic backoff) — capped by a real
SIGKILL-and-restart chaos test against the ``repro daemon`` CLI.
"""

from __future__ import annotations

import hashlib
import json
import os
import pathlib
import pickle
import signal
import subprocess
import sys
import time

import pytest

from repro.daemon import (
    DaemonController,
    DaemonError,
    ProtocolError,
    ReconnectingClient,
    ServerThread,
    backoff_delay_s,
)
from repro.daemon import controller as controller_module
from repro.daemon.durability import (
    OPLOG_FILENAME,
    SNAPSHOT_FORMAT,
    OpLog,
    StateDir,
    TenantStore,
    tenant_dir_name,
)
from repro.storage import decode_line, encode_line

TENANT_SPEC = dict(seed=3, n_cores=2, n_threads=2,
                   duration_s=0.05, dvfs_interval_s=0.01)

#: Tenant options that force a sensor bank (sensor_feed target).
SENSED_SPEC = dict(TENANT_SPEC, noise_sigma=0.02)


def register_payload(name, **overrides):
    """A fully-defaulted register payload for direct controller calls
    (the schema layer normally fills these defaults in)."""
    payload = dict(tenant=name, env="low_power", policy="VarF&AppIPC",
                   manager=None, noise_sigma=0.0, watchdog=False,
                   faults=None, **TENANT_SPEC)
    payload.update(overrides)
    return payload


def wire_payload(name, **overrides):
    """The same registration as sent over the wire: ``None`` fields
    are omitted (the schema rejects explicit nulls and fills its own
    defaults)."""
    return {k: v for k, v in
            register_payload(name, **overrides).items()
            if v is not None}


def durable_controller(tmp_path, **kwargs):
    kwargs.setdefault("cache", None)
    return DaemonController(state_dir=tmp_path / "state", **kwargs)


# ---------------------------------------------------------------------------
# Op log units


class TestOpLog:
    def test_append_replay_roundtrip(self, tmp_path):
        path = tmp_path / OPLOG_FILENAME
        log = OpLog(path)
        log.append("register", {"tenant": "a"}, {"ok": 1}, "r-1")
        log.append("advance", {"until_s": 0.01}, {"ok": 2}, None)
        fresh = OpLog(path)
        assert [r.seq for r in fresh.records] == [0, 1]
        assert fresh.records[0].request_id == "r-1"
        assert fresh.records[1].payload == {"until_s": 0.01}
        assert fresh.next_seq == 2

    def test_torn_tail_is_dropped_then_truncated(self, tmp_path):
        path = tmp_path / OPLOG_FILENAME
        log = OpLog(path)
        log.append("register", {"tenant": "a"}, {}, None)
        log.append("advance", {"until_s": 0.01}, {}, None)
        intact = path.read_bytes()
        # A crash mid-append leaves a torn (newline-less) tail.
        path.write_bytes(intact + b'{"kind": "op", "seq": 2')
        fresh = OpLog(path)
        assert len(fresh.records) == 2
        # The next append truncates the untrusted tail first.
        fresh.append("advance", {"until_s": 0.02}, {}, None)
        again = OpLog(path)
        assert [r.seq for r in again.records] == [0, 1, 2]
        assert again.records[2].payload == {"until_s": 0.02}

    def test_bit_rot_stops_replay_at_trusted_prefix(self, tmp_path):
        path = tmp_path / OPLOG_FILENAME
        log = OpLog(path)
        for k in range(3):
            log.append("advance", {"until_s": 0.01 * k}, {}, None)
        lines = path.read_bytes().splitlines(keepends=True)
        # Flip a payload byte in record 1: its content key fails.
        lines[1] = lines[1].replace(b'"until_s"', b'"untiL_s"')
        path.write_bytes(b"".join(lines))
        fresh = OpLog(path)
        assert [r.seq for r in fresh.records] == [0]

    def test_reordered_records_are_untrusted(self, tmp_path):
        path = tmp_path / OPLOG_FILENAME
        log = OpLog(path)
        for k in range(3):
            log.append("advance", {"until_s": 0.01 * k}, {}, None)
        lines = path.read_bytes().splitlines(keepends=True)
        path.write_bytes(lines[0] + lines[2] + lines[1])
        fresh = OpLog(path)
        assert [r.seq for r in fresh.records] == [0]

    def test_tenant_dir_name_is_safe_and_stable(self):
        name = tenant_dir_name("ten/ant: spaced*")
        assert "/" not in name and "*" not in name and " " not in name
        assert name == tenant_dir_name("ten/ant: spaced*")
        assert tenant_dir_name("a") != tenant_dir_name("b")
        # Distinct names never collide on the sanitised prefix alone.
        assert tenant_dir_name("a/b") != tenant_dir_name("a?b")


# ---------------------------------------------------------------------------
# Snapshot units


class TestSnapshots:
    def make_store(self, tmp_path):
        return TenantStore(tmp_path / "tenants" / "t",
                           tmp_path / "quarantine")

    def test_roundtrip_and_compaction(self, tmp_path):
        store = self.make_store(tmp_path)
        store.write_snapshot(4, {"state": [1, 2, 3]})
        store.write_snapshot(9, {"state": [4, 5]})
        seq, state = store.load_snapshot()
        assert (seq, state) == (9, {"state": [4, 5]})
        # Compaction: only the newest generation remains on disk.
        bins = [p.name for p in store.root.iterdir()
                if p.name.endswith(".bin")]
        assert bins == ["snapshot-000000000009.bin"]

    def test_snapshot_bytes_keep_their_layout(self, tmp_path):
        # A {format, seq, sha256} JSON header line, then the pickle:
        # the layout tests/data/daemon_snapshot_v2 was recorded in.
        state = {"state": [1.5, "x"]}
        blob = pickle.dumps(state, protocol=pickle.HIGHEST_PROTOCOL)
        header = json.dumps({"format": SNAPSHOT_FORMAT, "seq": 7,
                             "sha256": hashlib.sha256(blob).hexdigest()},
                            sort_keys=True)
        path = self.make_store(tmp_path).write_snapshot(7, state)
        assert path.read_bytes() == header.encode() + b"\n" + blob

    def test_corrupt_snapshot_quarantined_with_reason(self, tmp_path):
        store = self.make_store(tmp_path)
        path = store.write_snapshot(4, {"state": "good"})
        raw = bytearray(path.read_bytes())
        raw[-2] ^= 0xFF  # a pickle byte, past the header line
        path.write_bytes(bytes(raw))
        assert store.load_snapshot() is None
        assert store.snapshot_quarantines == 1
        qdir = tmp_path / "quarantine"
        reasons = list(qdir.glob("*.reason.json"))
        assert len(reasons) == 1
        record = json.loads(reasons[0].read_text())
        assert "digest" in record["reason"] or "mismatch" in \
            record["reason"]
        # The snapshot was moved out of the tenant dir.
        assert not list(store.root.glob("snapshot-*"))

    def test_corrupt_newest_falls_back_to_older(self, tmp_path):
        store = self.make_store(tmp_path)
        store.write_snapshot(4, {"gen": "old"})
        # Plant a newer, corrupt generation beside it (compaction
        # normally removes the old one; simulate a partial write).
        newest = store.root / "snapshot-000000000009.bin"
        header = {"format": SNAPSHOT_FORMAT, "seq": 9,
                  "sha256": "0" * 64}
        newest.write_bytes(json.dumps(header).encode() + b"\ngarbage")
        seq, state = store.load_snapshot()
        assert (seq, state) == (4, {"gen": "old"})
        assert store.snapshot_quarantines == 1

    def test_unpicklable_snapshot_is_survivable(self, tmp_path):
        store = self.make_store(tmp_path)
        path = store.write_snapshot(2, {"ok": True})
        # Valid digest over bytes that are not a pickle at all.
        blob = b"not a pickle"
        header = json.loads(path.read_bytes().partition(b"\n")[0])
        header["sha256"] = hashlib.sha256(blob).hexdigest()
        path.write_bytes(json.dumps(header).encode() + b"\n" + blob)
        assert store.load_snapshot() is None
        assert store.snapshot_quarantines == 1


# ---------------------------------------------------------------------------
# Controller recovery


class TestControllerRecovery:
    def drive(self, ctl, name, until, start=1, **adv):
        return [ctl.advance(name, until_s=0.01 * k, **adv)
                for k in range(start, until)]

    def test_replay_matches_uninterrupted_run_bitwise(self, tmp_path):
        reference = DaemonController(cache=None)
        reference.register(register_payload("t", **SENSED_SPEC))
        ref_replies = self.drive(reference, "t", 6)
        ref_digest = reference._get("t").stepper.decision_digest()

        ctl = durable_controller(tmp_path, snapshot_every=2)
        ctl.register(register_payload("t", **SENSED_SPEC))
        early = self.drive(ctl, "t", 4)
        del ctl  # crash: nothing flushed beyond the op log/snapshots

        recovered = durable_controller(tmp_path, snapshot_every=2)
        stats = recovered.last_recovery
        assert stats.tenants_recovered == 1
        assert stats.tenants_quarantined == 0
        late = self.drive(recovered, "t", 6, start=4)
        combined = early + late
        assert [json.dumps(r, sort_keys=True) for r in combined] == \
            [json.dumps(r, sort_keys=True) for r in ref_replies]
        assert recovered._get("t").stepper.decision_digest() == \
            ref_digest

    def test_restore_with_cold_carry_matches_warm_run(self, tmp_path):
        """LinOpt's carried kernel and memo stay out of snapshots: the
        recovered tenant decides from a cold carry, and its replies and
        digest equal an uninterrupted run whose carry stayed warm."""
        spec = dict(TENANT_SPEC, duration_s=0.1)
        reference = DaemonController(cache=None)
        reference.register(register_payload("t", **spec))
        ref_replies = self.drive(reference, "t", 11)
        ref_stepper = reference._get("t").stepper
        assert ref_stepper.sim.manager.primary._carry is not None

        ctl = durable_controller(tmp_path, snapshot_every=2)
        ctl.register(register_payload("t", **spec))
        early = self.drive(ctl, "t", 6)  # ops 1..5: snapshot at op 5
        store = ctl._get("t").store
        del ctl
        for snap in store.root.glob("snapshot-*.bin"):
            assert b"EvalKernel" not in snap.read_bytes()
        _, snapshot = store.load_snapshot()
        assert snapshot["stepper"].sim.manager.primary._carry is None

        recovered = durable_controller(tmp_path, snapshot_every=2)
        assert recovered.last_recovery.snapshot_restores == 1
        assert recovered.last_recovery.ops_replayed == 0
        stepper = recovered._get("t").stepper
        assert stepper.sim.manager.primary._carry is None
        late = self.drive(recovered, "t", 11, start=6)
        assert [json.dumps(r, sort_keys=True) for r in early + late] == \
            [json.dumps(r, sort_keys=True) for r in ref_replies]
        assert stepper.decision_digest() == ref_stepper.decision_digest()

    def test_snapshot_restore_bounds_replay(self, tmp_path):
        ctl = durable_controller(tmp_path, snapshot_every=2)
        ctl.register(register_payload("t"))
        self.drive(ctl, "t", 6)  # ops 1..5 -> snapshots at 1, 3, 5
        del ctl
        recovered = durable_controller(tmp_path, snapshot_every=2)
        stats = recovered.last_recovery
        assert stats.snapshot_restores == 1
        # Snapshot at seq 5 covers everything: nothing to replay.
        assert stats.ops_replayed == 0
        assert recovered.status()["recovery"]["snapshot_restores"] == 1

    def test_corrupt_snapshot_falls_back_to_full_replay(self,
                                                        tmp_path):
        ctl = durable_controller(tmp_path, snapshot_every=2)
        ctl.register(register_payload("t"))
        self.drive(ctl, "t", 5)
        store = ctl._get("t").store
        ref_digest = ctl._get("t").stepper.decision_digest()
        del ctl
        for snap in store.root.glob("snapshot-*.bin"):
            snap.write_bytes(b"rotten")
        recovered = durable_controller(tmp_path, snapshot_every=2)
        stats = recovered.last_recovery
        assert stats.snapshot_restores == 0
        assert stats.snapshot_quarantines == 1
        assert stats.ops_replayed == 4  # full replay of ops 1..4
        assert recovered._get("t").stepper.decision_digest() == \
            ref_digest

    def test_tampered_reply_quarantines_on_divergence(self, tmp_path):
        ctl = durable_controller(tmp_path, snapshot_every=100)
        ctl.register(register_payload("t"))
        self.drive(ctl, "t", 4)
        store = ctl._get("t").store
        del ctl
        # Rewrite op 2's journaled reply and re-seal its line checksum
        # (a writer that journals a wrong reply — divergence detection
        # must catch what the checksum cannot).
        log_path = store.root / OPLOG_FILENAME
        lines = log_path.read_bytes().splitlines(keepends=True)
        doctored = decode_line(lines[2])
        doctored["reply"]["time_s"] = 123.456
        lines[2] = encode_line(doctored)
        log_path.write_bytes(b"".join(lines))
        recovered = durable_controller(tmp_path, snapshot_every=100)
        stats = recovered.last_recovery
        assert stats.tenants_quarantined == 1
        assert "divergence" in stats.quarantine_reasons["t"]
        assert recovered.quarantined() == {
            "t": stats.quarantine_reasons["t"]}
        with pytest.raises(Exception) as excinfo:
            recovered.advance("t", until_s=0.05)
        assert "quarantined" in str(excinfo.value)

    def test_unverifiable_op_log_quarantines_tenant_dir(self,
                                                        tmp_path):
        ctl = durable_controller(tmp_path)
        ctl.register(register_payload("t"))
        ctl.advance("t", until_s=0.01)
        tdir = ctl._get("t").store.root
        del ctl
        # Strip every line checksum: the daemon-oplog-v1 line shape.
        log_path = tdir / OPLOG_FILENAME
        log_path.write_bytes(b"".join(
            line.partition(b" ")[2]
            for line in log_path.read_bytes().splitlines(keepends=True)))
        recovered = durable_controller(tmp_path)
        stats = recovered.last_recovery
        assert recovered.tenants() == []
        assert stats.tenants_quarantined == 1
        assert "verification" in stats.quarantine_reasons[tdir.name]
        assert recovered.quarantined() == {}
        # The directory was set aside with a reason, not wiped.
        qdir = tmp_path / "state" / "quarantine"
        assert not tdir.exists()
        assert (qdir / tdir.name / OPLOG_FILENAME).exists()
        record = json.loads(
            (qdir / f"{tdir.name}.reason.json").read_text())
        assert record["tenant_dir"] == tdir.name

    def test_duplicate_request_id_replays_original_reply(self,
                                                         tmp_path):
        ctl = durable_controller(tmp_path)
        ctl.register(register_payload("t"))
        first = ctl.advance("t", until_s=0.01, request_id="a-1")
        again = ctl.advance("t", until_s=0.01, request_id="a-1")
        assert again == first
        assert ctl.telemetry.get("deduped_requests") == 1
        # The duplicate was not journaled a second time.
        assert ctl._get("t").store.oplog.next_seq == 2

    def test_dedup_window_survives_restart(self, tmp_path):
        ctl = durable_controller(tmp_path)
        ctl.register(register_payload("t"))
        first = ctl.advance("t", until_s=0.01, request_id="a-1")
        del ctl
        recovered = durable_controller(tmp_path)
        again = recovered.advance("t", until_s=0.01,
                                  request_id="a-1")
        assert again == first
        assert recovered.telemetry.get("deduped_requests") == 1

    def test_sensor_feed_journals_and_replays(self, tmp_path):
        ctl = durable_controller(tmp_path)
        ctl.register(register_payload("t", **SENSED_SPEC))
        ctl.advance("t", until_s=0.01)
        ctl.advance("t", until_s=0.02)
        fed = ctl.sensor_feed("t", [4.0, -2.0], uncore_value=1.5)
        assert fed["clamped"] == 1  # -2 W is implausible -> clamped
        assert fed["core_values"] == [4.0, 0.0]
        ref_digest = ctl._get("t").stepper.decision_digest()
        del ctl
        recovered = durable_controller(tmp_path)
        stats = recovered.last_recovery
        assert stats.tenants_quarantined == 0
        assert stats.ops_replayed == 3
        bank = recovered._get("t").stepper.sim.sensor_bank
        # The fed measurement is the channel's last-known-good again
        # (the feed was the final journaled op, so nothing has read
        # over it since).
        assert bank.core(0)._last_good == 4.0
        assert recovered._get("t").stepper.decision_digest() == \
            ref_digest

    def test_sensor_feed_without_bank_is_typed_error(self, tmp_path):
        ctl = durable_controller(tmp_path)
        ctl.register(register_payload("t"))  # no noise/watchdog
        with pytest.raises(Exception) as excinfo:
            ctl.sensor_feed("t", [1.0])
        assert "sensor bank" in str(excinfo.value)

    def test_retried_feed_after_quarantine_gets_journaled_reply(
            self, tmp_path):
        # Dedup comes before the quarantine check for every verb: a
        # retry of an acknowledged request gets its journaled reply
        # even once the tenant has crashed into quarantine.
        ctl = durable_controller(tmp_path)
        ctl.register(register_payload("t", **SENSED_SPEC, manager={
            "primary": "crashing", "crash_after": 1,
            "resilient": False}))
        fed = ctl.sensor_feed("t", [4.0, 3.0], request_id="f1")
        with pytest.raises(ProtocolError) as err:
            ctl.advance("t", to_end=True)
        assert err.value.code == "quarantined"
        assert ctl.sensor_feed("t", [4.0, 3.0],
                               request_id="f1") == fed
        with pytest.raises(ProtocolError) as err:
            ctl.sensor_feed("t", [4.0, 3.0], request_id="f2")
        assert err.value.code == "quarantined"

    def test_mixed_op_log_replays_through_the_op_table(
            self, tmp_path, monkeypatch):
        # Live verbs and recovery run each op through the same OPS
        # function, and every replayed reply matches the journal.
        calls = []

        def counted(rtype, run):
            def wrapper(tenant, payload):
                calls.append(rtype)
                return run(tenant, payload)
            return wrapper

        for rtype, run in list(controller_module.OPS.items()):
            monkeypatch.setitem(controller_module.OPS, rtype,
                                counted(rtype, run))
        reference = DaemonController(cache=None)
        ctl = durable_controller(tmp_path, snapshot_every=100)
        for c in (reference, ctl):
            c.register(register_payload("t", **SENSED_SPEC))
            c.advance("t", until_s=0.01)
            c.inject("t", "manager_error")
            c.sensor_feed("t", [4.0, -2.0], uncore_value=1.5)
            c.advance("t", until_s=0.03)
            c.inject("t", "manager_deadline")
            c.sensor_feed("t", [3.0, 3.5])
        live = calls[len(calls) // 2:]
        del ctl
        calls.clear()
        recovered = durable_controller(tmp_path, snapshot_every=100)
        stats = recovered.last_recovery
        assert stats.tenants_quarantined == 0
        assert stats.ops_replayed == 6
        assert recovered.quarantined() == {}
        assert calls == live == ["advance", "inject", "sensor_feed"] * 2
        for c in (reference, recovered):
            c.advance("t", to_end=True)
        assert recovered._get("t").stepper.decision_digest() == \
            reference._get("t").stepper.decision_digest()

    def test_tampered_inject_reply_quarantines_on_divergence(
            self, tmp_path):
        ctl = durable_controller(tmp_path, snapshot_every=100)
        ctl.register(register_payload("t"))
        ctl.advance("t", until_s=0.01)
        ctl.inject("t", "manager_error")
        log_path = ctl._get("t").store.root / OPLOG_FILENAME
        del ctl
        lines = log_path.read_bytes().splitlines(keepends=True)
        doctored = decode_line(lines[2])
        assert doctored["type"] == "inject"
        doctored["reply"]["armed"] = "manager_deadline"
        lines[2] = encode_line(doctored)
        log_path.write_bytes(b"".join(lines))
        recovered = durable_controller(tmp_path, snapshot_every=100)
        stats = recovered.last_recovery
        assert stats.tenants_quarantined == 1
        assert "replay divergence" in stats.quarantine_reasons["t"]
        assert list(recovered.quarantined()) == ["t"]

    def test_unregister_removes_durable_state(self, tmp_path):
        ctl = durable_controller(tmp_path)
        ctl.register(register_payload("t"))
        tdir = ctl._get("t").store.root
        assert tdir.is_dir()
        ctl.unregister("t")
        assert not tdir.exists()
        del ctl
        recovered = durable_controller(tmp_path)
        assert recovered.tenants() == []

    def test_status_reports_recovery_and_tenants(self, tmp_path):
        ctl = durable_controller(tmp_path)
        ctl.register(register_payload("t"))
        ctl.advance("t", until_s=0.01)
        del ctl
        recovered = durable_controller(tmp_path)
        status = recovered.status()
        assert status["durable"] is True
        assert [t["tenant"] for t in status["tenants"]] == ["t"]
        assert status["recovery"]["tenants_recovered"] == 1
        assert status["telemetry"]["quarantined"] == {}

    def test_incomplete_tenant_dir_is_skipped(self, tmp_path):
        state = StateDir(tmp_path / "state")
        # A directory with no journaled register op: the daemon died
        # before admitting anything — nothing to restore.
        store = state.store_for("ghost")
        store.root.mkdir(parents=True)
        (store.root / OPLOG_FILENAME).write_bytes(b"")
        ctl = durable_controller(tmp_path)
        assert ctl.tenants() == []
        assert ctl.last_recovery.tenants_recovered == 0
        # A fresh register may adopt the name (stale dir wiped).
        ctl.register(register_payload("ghost"))
        assert ctl._get("ghost").store.oplog.next_seq == 1


# ---------------------------------------------------------------------------
# Reconnecting client


class TestReconnectingClient:
    def test_backoff_schedule_is_deterministic(self):
        delays = [backoff_delay_s(k, base_s=0.05, cap_s=2.0)
                  for k in range(8)]
        assert delays == [0.05, 0.1, 0.2, 0.4, 0.8, 1.6, 2.0, 2.0]
        with pytest.raises(ValueError):
            backoff_delay_s(-1)

    def test_backoff_under_fake_clock(self):
        slept = []

        def factory(host, port, timeout_s):
            raise ConnectionRefusedError("nobody home")

        client = ReconnectingClient(
            "127.0.0.1", 1, max_retries=4, base_s=0.05, cap_s=2.0,
            sleep=slept.append, client_factory=factory)
        with pytest.raises(OSError):
            client.request("ping")
        assert slept == [0.05, 0.1, 0.2, 0.4]
        assert client.retries == 4

    def test_typed_errors_are_never_retried(self):
        ctl = DaemonController(cache=None)
        slept = []
        with ServerThread(ctl) as (host, port):
            client = ReconnectingClient(host, port,
                                        sleep=slept.append)
            with pytest.raises(DaemonError):
                client.request("advance", tenant="nope",
                               until_s=0.01)
            assert slept == []
            client.close()

    def test_drop_mid_request_retries_and_dedups(self, tmp_path):
        state = tmp_path / "state"
        ctl = DaemonController(state_dir=state, cache=None)
        thread = ServerThread(ctl)
        host, port = thread.start()
        client = ReconnectingClient(host, port, timeout_s=10)
        client.request("register", **wire_payload("t"))
        first = client.advance("t", until_s=0.01)
        thread.stop()  # the daemon "crashes" between requests

        # Requests during the outage retry, then give up.
        hopeless = ReconnectingClient(host, port, max_retries=1,
                                      base_s=0.01,
                                      sleep=lambda s: None)
        with pytest.raises(OSError):
            hopeless.ping()

        ctl2 = DaemonController(state_dir=state, cache=None)
        thread2 = ServerThread(ctl2, port=port)
        try:
            thread2.start()
            # Same request_id as the pre-crash advance: the daemon
            # replays the original reply exactly once, no re-run.
            again = client.advance("t", until_s=0.01,
                                   request_id="req-2")
            assert again == first
            assert ctl2.telemetry.get("deduped_requests") == 1
            assert client.connects == 2
            # And the run continues from where it left off.
            more = client.advance("t", until_s=0.02)
            assert more["time_s"] >= 0.02 - 1e-9
        finally:
            client.close()
            thread2.stop()

    def test_drop_mid_subscription_resubscribes(self, tmp_path):
        state = tmp_path / "state"
        ctl = DaemonController(state_dir=state, cache=None)
        thread = ServerThread(ctl)
        host, port = thread.start()
        client = ReconnectingClient(host, port, timeout_s=10)
        client.request("register", **wire_payload("t"))
        client.subscribe("t")
        client.advance("t", until_s=0.01)
        assert any(e["event"] == "decision"
                   for e in client.drain_events(timeout_s=0.3))
        thread.stop()
        # The dead wire reads as quiet, and the connection is shed.
        assert client.next_event(timeout_s=0.2) is None

        ctl2 = DaemonController(state_dir=state, cache=None)
        thread2 = ServerThread(ctl2, port=port)
        try:
            thread2.start()
            client.advance("t", until_s=0.02)  # reconnect+resubscribe
            events = client.drain_events(timeout_s=0.3)
            assert any(e["event"] == "decision" for e in events)
        finally:
            client.close()
            thread2.stop()


# ---------------------------------------------------------------------------
# SIGKILL chaos: a real daemon process, killed and restarted


@pytest.mark.slow
class TestSigkillRestart:
    def spawn(self, state_dir, port=0):
        env = dict(os.environ, REPRO_NO_CACHE="1",
                   PYTHONPATH=str(pathlib.Path("src").resolve()))
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "daemon", "serve",
             "--port", str(port), "--state-dir", str(state_dir),
             "--heartbeat", "0"],
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
            env=env, text=True)
        while True:
            line = proc.stdout.readline()
            assert line, "daemon died before binding"
            if "listening on" in line:
                return proc, int(line.rsplit(":", 1)[1])

    def test_sigkill_mid_run_recovers_bitwise(self, tmp_path):
        # Reference: the same tenant driven in-process, no crash.
        reference = DaemonController(cache=None)
        reference.register(register_payload("victim", **SENSED_SPEC))
        ref_all = []
        for k in range(1, 6):
            ref_all.extend(reference.advance(
                "victim", until_s=0.01 * k)["decisions"])

        state = tmp_path / "state"
        proc, port = self.spawn(state)
        client = ReconnectingClient("127.0.0.1", port, timeout_s=60)
        try:
            client.request("register",
                           **wire_payload("victim", **SENSED_SPEC),
                           request_id="reg-1")
            replies = [client.advance("victim", until_s=0.01 * k,
                                      request_id=f"adv-{k}")
                       for k in range(1, 3)]
            # Fire the next advance and SIGKILL the daemon while it
            # is (plausibly) mid-flight: the op is either journaled
            # (reply replayed on retry) or not (re-executed) — both
            # must land on the same decision stream.
            raw = client._ensure()
            raw.send_raw((json.dumps(
                {"v": 1, "type": "advance", "id": 99,
                 "tenant": "victim", "until_s": 0.03,
                 "request_id": "adv-3"}) + "\n").encode())
            time.sleep(0.05)
            proc.send_signal(signal.SIGKILL)
            proc.wait(timeout=30)

            proc2, port2 = self.spawn(state)
            try:
                client.host, client.port = "127.0.0.1", port2
                client.close()  # force a reconnect to the new port
                replies.append(client.advance(
                    "victim", until_s=0.03, request_id="adv-3"))
                for k in range(4, 6):
                    replies.append(client.advance(
                        "victim", until_s=0.01 * k,
                        request_id=f"adv-{k}"))
                status = client.status()
                assert status["durable"] is True
                assert status["recovery"]["tenants_quarantined"] == 0
                info, = [t for t in status["tenants"]
                         if t["tenant"] == "victim"]
                # adv-5 reaches the tenant's full 0.05 s duration.
                assert info["status"] == "finished"
                # The surviving stream is bitwise what an
                # uninterrupted run produces.
                all_decisions = [d for r in replies
                                 for d in r["decisions"]]
                assert json.dumps(all_decisions, sort_keys=True) == \
                    json.dumps(ref_all, sort_keys=True)
                # Zero quarantines of any kind after the crash.
                assert status["recovery"]["snapshot_quarantines"] == 0
                assert status["telemetry"]["quarantined"] == {}
            finally:
                proc2.kill()
                proc2.wait(timeout=30)
        finally:
            client.close()
            if proc.poll() is None:
                proc.kill()
                proc.wait(timeout=30)
