"""Tests for the durable-storage primitives and every store built on them.

Three layers:

* :mod:`repro.storage` units — line codec, :class:`AppendLog` replay
  and truncation, :func:`write_atomic`, :func:`quarantine` and the
  sealed container (:func:`write_sealed` / :func:`read_sealed`);
* directory durability — ``os.fsync`` is recorded, and every atomic
  write must fsync its file and its directory, every new log its
  directory;
* one parametrised corruption suite over the five stores (campaign
  journal, daemon op log, daemon snapshot, characterisation-cache
  entry, fleet shard): each fault either leaves the store at its
  trusted prefix or quarantines the file with a reason record.
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import stat

import numpy as np
import pytest

from repro.daemon.durability import SNAPSHOT_FORMAT, OpLog, TenantStore
from repro.fleet import FleetPlan, run_fleet_campaign
from repro.fleet.shards import load_shard, write_shard
from repro.parallel import CharacterizationCache, RunJournal
from repro.parallel.manifest import ShardManifest
from repro.storage import (
    AppendLog,
    IntegrityError,
    decode_line,
    encode_line,
    quarantine,
    read_sealed,
    write_atomic,
    write_sealed,
)


# ---------------------------------------------------------------------------
# Primitives


class TestLineCodec:
    def test_round_trip(self):
        record = {"b": [1.5, None], "a": "x y\nz"}
        line = encode_line(record)
        assert line.endswith(b"\n") and line.count(b"\n") == 1
        assert decode_line(line) == record

    @pytest.mark.parametrize("damage", [
        lambda ln: ln[:-1],                      # torn: no newline
        lambda ln: ln.replace(b"1.5", b"1.6"),   # body bit rot
        lambda ln: b"0" * 64 + ln[64:],          # checksum rot
        lambda ln: ln[65:],                      # no checksum (v1 line)
        lambda ln: b"garbage\n",
    ])
    def test_damaged_lines_decode_to_none(self, damage):
        assert decode_line(damage(encode_line({"v": 1.5}))) is None


class TestAppendLog:
    def test_append_then_replay(self, tmp_path):
        log = AppendLog(tmp_path / "a" / "log.jsonl")
        assert list(log.replay()) == []
        log.append({"n": 1})
        log.append({"n": 2})
        assert list(AppendLog(log.path).replay()) == [{"n": 1}, {"n": 2}]

    def test_rejected_record_is_truncated_by_next_append(self, tmp_path):
        path = tmp_path / "log.jsonl"
        log = AppendLog(path)
        for n in range(3):
            log.append({"n": n})
        again = AppendLog(path)
        for record in again.replay():
            if record["n"] == 1:
                break  # the caller distrusts record 1 onwards
        again.append({"n": 9})
        assert list(AppendLog(path).replay()) == [{"n": 0}, {"n": 9}]

    def test_damaged_distinguishes_rot_from_a_torn_tail(self, tmp_path):
        path = tmp_path / "log.jsonl"
        AppendLog(path).append({"n": 0})
        good = path.read_bytes()
        path.write_bytes(good + b'abc {"n": 1')  # crash mid-append
        log = AppendLog(path)
        assert len(list(log.replay())) == 1 and not log.damaged()
        path.write_bytes(good + b'abc {"n": 1}\n')  # complete, bad
        log = AppendLog(path)
        assert len(list(log.replay())) == 1 and log.damaged()
        assert not AppendLog(tmp_path / "absent").damaged()


class TestWriteAtomic:
    def test_replaces_and_creates_parents(self, tmp_path):
        path = tmp_path / "x" / "y" / "f.bin"
        write_atomic(path, b"one")
        write_atomic(path, b"two")
        assert path.read_bytes() == b"two"
        assert os.listdir(path.parent) == ["f.bin"]


class TestQuarantine:
    def test_moves_and_records_reason(self, tmp_path):
        path = tmp_path / "entry.npz"
        path.write_bytes(b"bad")
        qdir = tmp_path / "q"
        target = quarantine(path, qdir, "entry", "it rotted", key="k")
        assert target == qdir / "entry.npz" and target.exists()
        assert not path.exists()
        record = json.loads((qdir / "entry.reason.json").read_text())
        assert record["reason"] == "it rotted"
        assert record["key"] == "k"
        assert record["quarantined_at_unix_s"] > 0

    def test_unmovable_file_is_unlinked_without_raising(self, tmp_path):
        path = tmp_path / "entry.npz"
        path.write_bytes(b"bad")
        blocker = tmp_path / "q"
        blocker.write_bytes(b"a file where the quarantine dir goes")
        quarantine(path, blocker, "entry", "it rotted")
        assert not path.exists()
        assert blocker.read_bytes().startswith(b"a file")


class TestSealed:
    IDENTITY = {"format": "f", "key": "k1", "seq": 3}

    def write(self, tmp_path, payload=b"pay\nload"):
        return write_sealed(tmp_path / "d" / "entry.bin", payload,
                            **self.IDENTITY)

    def read(self, tmp_path, path, **identity):
        return read_sealed(path, tmp_path / "q", "entry", {"entry": "e"},
                           **(identity or self.IDENTITY))

    def test_round_trip_and_header_layout(self, tmp_path):
        payload = b"pay\nload"
        path = self.write(tmp_path, payload)
        header = json.dumps(dict(
            self.IDENTITY, sha256=hashlib.sha256(payload).hexdigest()),
            sort_keys=True).encode()
        assert path.read_bytes() == header + b"\n" + payload
        assert self.read(tmp_path, path) == payload
        assert path.exists() and not (tmp_path / "q").exists()

    def test_absent_file_raises_and_quarantines_nothing(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            self.read(tmp_path, tmp_path / "absent.bin")
        assert not (tmp_path / "q").exists()

    def test_unchecked_header_fields_are_ignored(self, tmp_path):
        path = self.write(tmp_path)
        assert self.read(tmp_path, path, format="f") == b"pay\nload"

    @pytest.mark.parametrize("fault,reason", [
        (lambda d: d.partition(b"\n")[2], "unreadable"),
        (lambda d: b"[1, 2]\n" + d.partition(b"\n")[2], "JSON object"),
        (lambda d: d[:-1], "digest mismatch"),
        (lambda d: d.replace(b'"k1"', b'"k2"'), "identity mismatch"),
        (lambda d: d.replace(b'"f"', b'"g"'), "'format': 'g'"),
        (lambda d: d.replace(b'"seq": 3', b'"seq": 4'), "'seq': 4"),
        (lambda d: d.replace(b'"format": "f", ', b""), "'format': None"),
    ], ids=["no_header", "not_an_object", "digest", "other_key",
            "other_format", "stale_seq", "missing_field"])
    def test_failure_quarantines_with_reason(self, tmp_path, fault,
                                             reason):
        path = self.write(tmp_path)
        path.write_bytes(fault(path.read_bytes()))
        assert self.read(tmp_path, path) is None
        assert not path.exists()
        assert (tmp_path / "q" / "entry.bin").exists()
        record = json.loads(
            (tmp_path / "q" / "entry.reason.json").read_text())
        assert reason in record["reason"]
        assert record["entry"] == "e"


# ---------------------------------------------------------------------------
# Directory durability: record every os.fsync by inode and kind


@pytest.fixture()
def fsyncs(monkeypatch):
    """(inode, is_dir) of every ``os.fsync`` call, in order."""
    calls = []
    real = os.fsync

    def recording(fd):
        st = os.fstat(fd)
        calls.append((st.st_ino, stat.S_ISDIR(st.st_mode)))
        return real(fd)

    monkeypatch.setattr(os, "fsync", recording)
    return calls


def _write_cache(tmp_path):
    cache = CharacterizationCache(tmp_path / "cache")
    cache.store("ab" * 32, {"x": np.arange(4.0), "n": np.arange(3)})
    return cache.path_for("ab" * 32)


def _write_manifest(tmp_path):
    manifest = ShardManifest.partition(
        {"name": "m", "n_dies": 8, "chunk_dies": 4}, ["h0", "h1"])
    return manifest.write(tmp_path / "m" / "manifest.json")


def _write_summary(tmp_path):
    plan = FleetPlan(name="s", n_dies=2, chunk_dies=2, seed=5)
    return run_fleet_campaign(plan, tmp_path, workers=1).summary_path


def _write_snapshot(tmp_path):
    store = TenantStore(tmp_path / "tenants" / "t", tmp_path / "q")
    return store.write_snapshot(3, {"state": 1})


def _write_result(tmp_path):
    path = tmp_path / "results" / "fig.json"
    write_atomic(path, json.dumps({"value": 1.5}).encode("utf-8"))
    return path


ATOMIC_WRITERS = {
    "write_atomic": lambda d: write_atomic(d / "sub" / "f", b"data"),
    "cache": _write_cache,
    "shard": lambda d: write_shard(d / "shards", 0, 2,
                                   {"a": np.zeros(2)}),
    "manifest": _write_manifest,
    "summary": _write_summary,
    "snapshot": _write_snapshot,
    "result": _write_result,
}


@pytest.mark.parametrize("writer", sorted(ATOMIC_WRITERS))
def test_atomic_writes_fsync_file_and_directory(writer, tmp_path,
                                                 fsyncs):
    path = ATOMIC_WRITERS[writer](tmp_path)
    assert (path.stat().st_ino, False) in fsyncs
    assert (path.parent.stat().st_ino, True) in fsyncs


@pytest.mark.parametrize("store", ["journal", "oplog"])
def test_new_log_fsyncs_its_directory_once(store, tmp_path, fsyncs):
    if store == "journal":
        journal = RunJournal.open(tmp_path / "root", "run")
        path = journal.path
        append = lambda n: journal.record(f"k{n}", {}, n)  # noqa: E731
    else:
        log = OpLog(tmp_path / "tenants" / "t" / "oplog.jsonl")
        path = log.path
        append = lambda n: log.append("advance", {}, {})  # noqa: E731
    append(0)
    dir_ino = path.parent.stat().st_ino
    assert (path.stat().st_ino, False) in fsyncs
    assert (dir_ino, True) in fsyncs
    # Directories created on the way are fsynced into their parents.
    assert (path.parent.parent.stat().st_ino, True) in fsyncs
    before = len(fsyncs)
    append(1)
    assert fsyncs[before:] == [(path.stat().st_ino, False)]


# ---------------------------------------------------------------------------
# Corruption suite, part 1: append logs stop at their trusted prefix

#: The value each log's record 2 carries; its digit flip is the
#: bit-flip fault (for the op log it sits in the ``reply`` field).
FLIP_FROM, FLIP_TO = b"2.123456789", b"2.023456789"


class _Journal:
    @staticmethod
    def write(path, n):
        journal = RunJournal(path)
        for k in range(n):
            journal.record(f"k{k}", {"trial": k}, {"ed2": k + 0.123456789})

    @staticmethod
    def read(path):
        journal = RunJournal(path)
        return [(k, journal.lookup(k)) for k in journal.completed()]

    @staticmethod
    def append(path):
        RunJournal(path).record("new", {}, {"ed2": 9.0})


class _OpLog:
    @staticmethod
    def write(path, n):
        log = OpLog(path)
        for k in range(n):
            log.append("advance", {"until_s": 0.01 * k},
                       {"time_s": k + 0.123456789}, f"r-{k}")

    @staticmethod
    def read(path):
        return [(r.seq, r.rtype, r.payload, r.reply, r.request_id)
                for r in OpLog(path).records]

    @staticmethod
    def append(path):
        OpLog(path).append("advance", {"until_s": 9.0}, {}, None)


def _torn_tail(lines):
    return lines + [encode_line({"torn": True})[:-7]], len(lines)


def _bit_flip(lines):
    assert lines[2].count(FLIP_FROM) == 1
    return lines[:2] + [lines[2].replace(FLIP_FROM, FLIP_TO)] + \
        lines[3:], 2


def _truncation(lines):
    return lines[:2] + [lines[2][:len(lines[2]) // 2]], 2


def _reorder(lines):
    return [lines[0], lines[2], lines[1]] + lines[3:], 1


LOG_CASES = [
    ("journal", _torn_tail), ("journal", _bit_flip),
    ("journal", _truncation),
    ("oplog", _torn_tail), ("oplog", _bit_flip), ("oplog", _truncation),
    # Op records carry a sequence number; journal units are keyed by
    # content and order-free, so reordering is an op-log fault only.
    ("oplog", _reorder),
]


@pytest.mark.parametrize(
    "store,fault", LOG_CASES,
    ids=[f"{s}-{f.__name__.lstrip('_')}" for s, f in LOG_CASES])
def test_log_stops_at_trusted_prefix(store, fault, tmp_path):
    adapter = {"journal": _Journal, "oplog": _OpLog}[store]
    path = tmp_path / "log.jsonl"
    adapter.write(path, 4)
    intact = adapter.read(path)
    assert len(intact) == 4
    lines, trusted = fault(path.read_bytes().splitlines(keepends=True))
    path.write_bytes(b"".join(lines))
    assert adapter.read(path) == intact[:trusted]
    # The next append drops the untrusted suffix before writing.
    adapter.append(path)
    after = adapter.read(path)
    assert after[:-1] == intact[:trusted] and len(after) == trusted + 1


# ---------------------------------------------------------------------------
# Corruption suite, part 2: whole-file stores quarantine with a reason


def _flip_byte(data, at):
    data = bytearray(data)
    data[at] ^= 0x01
    return bytes(data)


class _Snapshot:
    reason_fields = ("tenant_dir", "snapshot")

    def __init__(self, tmp_path):
        self.qdir = tmp_path / "quarantine"
        self.store = TenantStore(tmp_path / "tenants" / "t", self.qdir)
        self.path = self.store.write_snapshot(5, {"state": [1, 2, 3]})
        self.label = self.moved = f"t-{self.path.name}"

    def load_fails(self):
        store = TenantStore(self.store.root, self.qdir)
        assert store.load_snapshot() is None
        return store.snapshot_quarantines == 1

    @staticmethod
    def header(data):
        return json.loads(data.partition(b"\n")[0])

    def faults(self):
        def rewrite_header(data, **changes):
            blob = data.partition(b"\n")[2]
            header = dict(self.header(data), **changes)
            return json.dumps(header).encode() + b"\n" + blob
        junk = b"not a pickle"
        return {
            "bit_flip": lambda d: _flip_byte(d, len(d) - 3),
            "truncation": lambda d: d[:-5],
            "missing_header": lambda d: d.partition(b"\n")[2],
            "stale_format": lambda d: rewrite_header(
                d, format=SNAPSHOT_FORMAT - 1),
            "stale_seq": lambda d: rewrite_header(d, seq=4),
            "unreadable": lambda d: json.dumps(dict(
                self.header(d),
                sha256=hashlib.sha256(junk).hexdigest())).encode()
                + b"\n" + junk,
        }


def _reseal(path, tamper):
    """Rebuild a valid npz payload with tampered data under the stale
    sealed header (so only the payload digest can tell)."""
    header, _, payload = path.read_bytes().partition(b"\n")
    with np.load(io.BytesIO(payload)) as npz:
        arrays = {name: npz[name].copy() for name in npz.files}
    tamper(arrays)
    buf = io.BytesIO()
    np.savez_compressed(buf, **arrays)
    path.write_bytes(header + b"\n" + buf.getvalue())


class _CacheEntry:
    reason_fields = ("key", "entry", "numpy")
    key = "cd" * 32
    payload = {"x": np.arange(6.0)}

    def __init__(self, tmp_path):
        self.tmp_path = tmp_path
        self.cache = CharacterizationCache(tmp_path / "cache")
        self.cache.store(self.key, self.payload)
        self.path = self.cache.path_for(self.key)
        self.qdir = self.cache.quarantine_root
        self.label, self.moved = self.key, self.path.name

    def load_fails(self):
        assert self.cache.load(self.key) is None
        return self.cache.stats.get("corrupt") == 1

    def misfiled(self, _):
        """The same payload's entry under another key, copied here."""
        other = CharacterizationCache(self.tmp_path / "other")
        other.store("ef" * 32, self.payload)
        return other.path_for("ef" * 32).read_bytes()

    def faults(self):
        def bump(arrays):
            arrays["f64"][1] += 1e-9
        return {
            "bit_flip": lambda d: _flip_byte(d, len(d) // 2),
            "truncation": lambda d: d[:len(d) // 2],
            "unreadable": lambda d: b"not an npz container",
            "resealed_bit_flip": bump,
            "misfiled": self.misfiled,
        }


class _Shard:
    reason_fields = ("shard",)
    columns = {"a": np.arange(4.0), "b": np.ones(4)}

    def __init__(self, tmp_path):
        self.tmp_path = tmp_path
        self.qdir = tmp_path / "quarantine"
        self.path = write_shard(tmp_path, 0, 4, self.columns)
        self.label = self.moved = self.path.name

    def load_fails(self):
        with pytest.raises(IntegrityError):
            load_shard(self.path)
        return True

    def misfiled(self, _):
        """The same columns' shard of dies [100, 104), renamed to
        [0, 4)."""
        return write_shard(self.tmp_path / "other", 100, 104,
                           self.columns).read_bytes()

    def faults(self):
        def bump(arrays):
            arrays["a"][2] += 1e-9
        return {
            "bit_flip": lambda d: _flip_byte(d, len(d) // 2),
            "truncation": lambda d: d[:len(d) // 2],
            "unreadable": lambda d: b"not an npz container",
            "resealed_bit_flip": bump,
            "misfiled": self.misfiled,
        }


BLOB_STORES = {"snapshot": _Snapshot, "cache": _CacheEntry,
               "shard": _Shard}
BLOB_CASES = [
    (store, fault) for store, faults in [
        ("snapshot", ["bit_flip", "truncation", "missing_header",
                      "stale_format", "stale_seq", "unreadable"]),
        ("cache", ["bit_flip", "truncation", "unreadable",
                   "resealed_bit_flip", "misfiled"]),
        ("shard", ["bit_flip", "truncation", "unreadable",
                   "resealed_bit_flip", "misfiled"]),
    ] for fault in faults]


@pytest.mark.parametrize("store,fault", BLOB_CASES,
                         ids=[f"{s}-{f}" for s, f in BLOB_CASES])
def test_blob_is_quarantined_with_reason(store, fault, tmp_path):
    subject = BLOB_STORES[store](tmp_path)
    damage = subject.faults()[fault]
    if fault == "resealed_bit_flip":
        _reseal(subject.path, damage)
    else:
        subject.path.write_bytes(damage(subject.path.read_bytes()))
    assert subject.load_fails()
    assert not subject.path.exists()
    assert (subject.qdir / subject.moved).exists()
    record = json.loads(
        (subject.qdir / f"{subject.label}.reason.json").read_text())
    assert record["reason"]
    assert record["quarantined_at_unix_s"] > 0
    for name in subject.reason_fields:
        assert record[name]
