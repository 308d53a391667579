"""Crash-recoverable tenant state: write-ahead op logs + snapshots.

The daemon holds every tenant in RAM; this module is what makes a
SIGKILL survivable. Each tenant owns one directory under the daemon's
*state dir* holding two kinds of files, both written through
:mod:`repro.storage`:

* an append-only **op log** (``oplog.jsonl``, a
  :class:`~repro.storage.AppendLog`) journaling every state-mutating
  admitted request — ``register``, ``advance``, ``inject``,
  ``sensor_feed`` — together with the reply that was sent. Each op is
  one checksummed line, fsynced before the reply leaves the daemon,
  so an op is either fully journaled or not journaled at all. Replay
  stops at the first torn, corrupt or out-of-sequence record: the
  line checksum pins each record's content (reply included) and the
  ``seq`` check pins its position, so a bit-flipped or reordered log
  is trusted only up to its last good prefix.

* periodic **snapshots** (``snapshot-<seq>.bin``): one sealed file
  per generation (:func:`repro.storage.write_sealed`, identity
  ``{format, seq}``) holding a pickle of the tenant's live stepper
  state at op-log sequence ``seq``. A restarted daemon restores from
  the newest snapshot and replays only the ops past it, bounding
  recovery cost; a snapshot whose header is missing, names another
  format or sequence, fails its digest or does not unpickle is
  *quarantined* (moved to ``<state_dir>/quarantine/`` next to a
  ``*.reason.json``) and recovery falls back to full replay from the
  op log — which is never compacted away, precisely so that fallback
  always exists.

Because a tenant rebuilt by replay re-executes the same deterministic
:class:`~repro.runtime.SimulationStepper` code path as the original
run, its decision stream is bitwise-identical to an uninterrupted
run — the invariant the SIGKILL-restart chaos test pins.

This module is storage only: no transport, no simulation imports. The
controller decides *what* to journal and *how* to rebuild.
"""

from __future__ import annotations

import contextlib
import hashlib
import os
import pathlib
import pickle
import shutil
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple, Union

from ..storage import AppendLog, quarantine, read_sealed, write_sealed

#: Bump whenever the op-record shape changes; every record carries
#: it, so old logs stop verifying at their first record.
OPLOG_TAG = "daemon-oplog-v2"

#: Snapshot format, an identity field of each snapshot's sealed header.
SNAPSHOT_FORMAT = 2

OPLOG_FILENAME = "oplog.jsonl"

#: Per-tenant idempotency window: how many recent ``request_id`` ->
#: reply pairs are kept for duplicate-request replay.
DEDUP_WINDOW = 64

PathLike = Union[str, pathlib.Path]


def tenant_dir_name(tenant: str) -> str:
    """Filesystem-safe directory name for one tenant.

    Tenant names are arbitrary 1..128-char strings; the directory is
    addressed by a content hash (the human name is recovered from the
    journaled ``register`` op). A short sanitised prefix keeps the
    tree greppable.
    """
    digest = hashlib.sha256(tenant.encode("utf-8")).hexdigest()[:16]
    prefix = "".join(c if c.isalnum() or c in "-_" else "_"
                     for c in tenant)[:24]
    return f"{prefix}-{digest}" if prefix else digest


@dataclass
class OpRecord:
    """One journaled state-mutating request and its reply."""

    seq: int
    rtype: str
    payload: Dict[str, Any]
    reply: Dict[str, Any]
    request_id: Optional[str] = None

    def to_line(self) -> Dict[str, Any]:
        return {
            "tag": OPLOG_TAG,
            "seq": self.seq,
            "type": self.rtype,
            "payload": self.payload,
            "reply": self.reply,
            "request_id": self.request_id,
            "t_unix_s": time.time(),
        }

    @classmethod
    def from_line(cls, obj: Dict[str, Any]) -> "OpRecord":
        if obj["tag"] != OPLOG_TAG:
            raise ValueError(f"op record tag {obj['tag']!r}")
        return cls(seq=int(obj["seq"]), rtype=obj["type"],
                   payload=obj["payload"], reply=obj["reply"],
                   request_id=obj.get("request_id"))


class OpLog:
    """Append-only write-ahead log of one tenant's admitted ops.

    Construction replays the existing file (if any); appends are a
    single durable write each, truncating whatever replay did not
    trust. Replay stops at the first record that is torn, fails its
    line checksum, carries another format's tag or is out of
    sequence.
    """

    def __init__(self, path: PathLike) -> None:
        self.path = pathlib.Path(path)
        self._log = AppendLog(self.path)
        self.records: List[OpRecord] = []
        for line in self._log.replay():
            try:
                record = OpRecord.from_line(line)
            except (KeyError, TypeError, ValueError):
                break  # stop trusting anything after a bad record
            if record.seq != len(self.records):
                break  # reordered/spliced log: untrusted from here
            self.records.append(record)
        #: Complete records past the trusted prefix: corruption or an
        #: old format, not a crash mid-append.
        self.damaged = self._log.damaged()

    @property
    def next_seq(self) -> int:
        return (self.records[-1].seq + 1) if self.records else 0

    def append(self, rtype: str, payload: Dict[str, Any],
               reply: Dict[str, Any],
               request_id: Optional[str] = None) -> OpRecord:
        """Durably journal one op (single write + fsync)."""
        record = OpRecord(seq=self.next_seq, rtype=rtype,
                          payload=payload, reply=reply,
                          request_id=request_id)
        self._log.append(record.to_line())
        self.records.append(record)
        return record


# ---------------------------------------------------------------------------
# Snapshots


_SNAPSHOT_PREFIX = "snapshot-"
_SNAPSHOT_SUFFIX = ".bin"


def _snapshot_name(seq: int) -> str:
    return f"{_SNAPSHOT_PREFIX}{int(seq):012d}{_SNAPSHOT_SUFFIX}"


def _snapshot_seq(name: str) -> Optional[int]:
    if (not name.startswith(_SNAPSHOT_PREFIX)
            or not name.endswith(_SNAPSHOT_SUFFIX)):
        return None
    digits = name[len(_SNAPSHOT_PREFIX):-len(_SNAPSHOT_SUFFIX)]
    return int(digits) if digits.isdigit() else None


@dataclass
class RecoveryStats:
    """What one recovery pass did (the ``status`` reply and the
    heartbeat report it as ``recovery``)."""

    tenants_recovered: int = 0
    ops_replayed: int = 0
    snapshot_restores: int = 0
    snapshot_quarantines: int = 0
    tenants_quarantined: int = 0
    quarantine_reasons: Dict[str, str] = field(default_factory=dict)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "tenants_recovered": self.tenants_recovered,
            "ops_replayed": self.ops_replayed,
            "snapshot_restores": self.snapshot_restores,
            "snapshot_quarantines": self.snapshot_quarantines,
            "tenants_quarantined": self.tenants_quarantined,
            "quarantine_reasons": dict(self.quarantine_reasons),
        }


class TenantStore:
    """One tenant's durable footprint: op log plus snapshots.

    Layout under the tenant directory::

        oplog.jsonl          append-only write-ahead op log
        snapshot-<seq>.bin   the pickled stepper state at op <seq>,
                             sealed under {format, seq}

    Only the newest snapshot is kept (*compaction*): writing a new one
    atomically replaces it and unlinks older generations. The op log
    itself is never compacted — it is the fallback that makes a
    corrupt snapshot survivable.
    """

    def __init__(self, root: PathLike,
                 quarantine_root: PathLike) -> None:
        self.root = pathlib.Path(root)
        self.quarantine_root = pathlib.Path(quarantine_root)
        self.oplog = OpLog(self.root / OPLOG_FILENAME)
        #: Snapshots this store quarantined (during load_snapshot).
        self.snapshot_quarantines = 0

    # -- snapshots ---------------------------------------------------

    def _snapshots_on_disk(self) -> List[Tuple[int, pathlib.Path]]:
        if not self.root.is_dir():
            return []
        found = []
        for entry in self.root.iterdir():
            seq = _snapshot_seq(entry.name)
            if seq is not None:
                found.append((seq, entry))
        return sorted(found)

    def write_snapshot(self, seq: int, state: Any) -> pathlib.Path:
        """Atomically persist a snapshot of the tenant at op ``seq``.

        ``state`` is whatever the controller wants back verbatim on
        restore (the pickled stepper plus bookkeeping). Older
        snapshots are removed afterwards — compaction keeps exactly
        one generation, and the op log guarantees the fallback.
        """
        path = write_sealed(
            self.root / _snapshot_name(seq),
            pickle.dumps(state, protocol=pickle.HIGHEST_PROTOCOL),
            format=SNAPSHOT_FORMAT, seq=int(seq))
        for old_seq, old_path in self._snapshots_on_disk():
            if old_seq != seq:
                with contextlib.suppress(OSError):
                    os.unlink(old_path)
        return path

    def quarantine(self, reason: str) -> None:
        """Move the whole tenant directory aside (its op log cannot
        be trusted far enough to name the tenant)."""
        quarantine(self.root, self.quarantine_root, self.root.name,
                   reason, tenant_dir=self.root.name)

    def load_snapshot(self) -> Optional[Tuple[int, Any]]:
        """The newest verifiable snapshot, or None.

        A snapshot that :func:`repro.storage.read_sealed` rejects, or
        whose payload does not unpickle, is quarantined and the
        next-older one is tried; with none left the caller falls back
        to full op-log replay. Quarantines are visible in
        :attr:`snapshot_quarantines`.
        """
        for seq, path in reversed(self._snapshots_on_disk()):
            label = f"{self.root.name}-{path.name}"
            fields = dict(tenant_dir=self.root.name, snapshot=path.name)
            blob = read_sealed(path, self.quarantine_root, label, fields,
                               format=SNAPSHOT_FORMAT, seq=seq)
            if blob is not None:
                try:
                    return seq, pickle.loads(blob)
                except (ValueError, KeyError, TypeError, EOFError,
                        pickle.UnpicklingError, AttributeError,
                        ImportError) as exc:
                    quarantine(path, self.quarantine_root, label,
                               f"{type(exc).__name__}: {exc}", **fields)
            self.snapshot_quarantines += 1
        return None


class StateDir:
    """The daemon's durable root: one subdirectory per tenant.

    Layout::

        <state_dir>/tenants/<tenant-dir>/...   (see TenantStore)
        <state_dir>/quarantine/                corrupt snapshots, and
                                               tenant dirs whose op log
                                               fails before register

    """

    def __init__(self, root: PathLike) -> None:
        self.root = pathlib.Path(root)

    @property
    def tenants_root(self) -> pathlib.Path:
        return self.root / "tenants"

    @property
    def quarantine_root(self) -> pathlib.Path:
        return self.root / "quarantine"

    def store_for(self, tenant: str) -> TenantStore:
        return TenantStore(self.tenants_root / tenant_dir_name(tenant),
                           self.quarantine_root)

    def iter_stores(self) -> List[TenantStore]:
        """Stores of every tenant directory on disk, name order."""
        if not self.tenants_root.is_dir():
            return []
        return [TenantStore(p, self.quarantine_root)
                for p in sorted(self.tenants_root.iterdir())
                if p.is_dir()]

    def remove_tenant(self, tenant: str) -> None:
        """Delete one tenant's durable state (unregister)."""
        shutil.rmtree(self.tenants_root / tenant_dir_name(tenant),
                      ignore_errors=True)

    def clear(self) -> None:
        """Delete everything (the ``--fresh`` flag)."""
        shutil.rmtree(self.root, ignore_errors=True)
