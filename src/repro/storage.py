"""Durable on-disk storage: the one owner of how persisted bytes land.

Campaign journals, daemon op logs and snapshots, cache entries, fleet
shards, manifests and summaries all go through these primitives, so
no other module opens, renames or fsyncs a durable file (DESIGN §14):

* :class:`AppendLog` — JSON records, one ``<sha256 hex of body>
  <JSON body>\\n`` line each. Replay stops at the first torn,
  malformed or checksum-failing line; the next append truncates that
  untrusted tail, then makes one write and one fsync.
* :func:`write_atomic` — a fsynced ``mkstemp`` sibling renamed over
  the target, then the directory fsynced so the rename survives.
* :func:`quarantine` — move a corrupt file aside, best effort, next
  to a ``<label>.reason.json`` saying why.
* :func:`write_sealed` / :func:`read_sealed` — the one whole-file
  container: a ``{<identity fields>, "sha256"}`` JSON header line,
  then the payload. The reader checks the header against the
  identity it expects (format, cache key, die range, snapshot
  sequence) and the payload against its digest, and quarantines the
  file on any mismatch, so a corrupt, stale or misfiled file never
  loads.

Directories these create are fsynced into their parents too.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
import pathlib
import tempfile
import time
from typing import Any, Dict, Iterator, Optional, Union

__all__ = [
    "AppendLog",
    "IntegrityError",
    "decode_line",
    "encode_line",
    "quarantine",
    "read_sealed",
    "write_atomic",
    "write_sealed",
]

PathLike = Union[str, pathlib.Path]


def encode_line(record: Any) -> bytes:
    """One log line: the body's sha256, a space, the JSON body."""
    body = json.dumps(record, sort_keys=True).encode("utf-8")
    return hashlib.sha256(body).hexdigest().encode("ascii") + b" " + \
        body + b"\n"


def decode_line(line: bytes) -> Optional[Any]:
    """The record in one log line, or None when the line is torn (no
    newline), malformed or fails its checksum."""
    if not line.endswith(b"\n"):
        return None
    digest, _, body = line[:-1].partition(b" ")
    if hashlib.sha256(body).hexdigest().encode("ascii") != digest:
        return None
    try:
        return json.loads(body)
    except ValueError:
        return None


def _fsync_dir(directory: pathlib.Path) -> None:
    fd = os.open(directory, os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def _make_dirs(directory: pathlib.Path) -> None:
    """``mkdir -p`` that fsyncs each new directory into its parent."""
    if directory.is_dir():
        return
    _make_dirs(directory.parent)
    try:
        directory.mkdir()
    except FileExistsError:
        return
    _fsync_dir(directory.parent)


class AppendLog:
    """A checksummed append-only JSON-lines file.

    Call :meth:`replay` once, then :meth:`append`. A crash leaves at
    most one torn tail line; bit rot or a foreign line format fails
    the checksum. Replay stops at either, and the next append
    truncates from there.
    """

    def __init__(self, path: PathLike) -> None:
        self.path = pathlib.Path(path)
        self._trusted = 0

    def replay(self) -> Iterator[Any]:
        """Yield the logged records in order, up to the first bad line.

        A record counts as trusted once the caller asks for the next
        one. A caller that rejects a record (out of sequence, missing
        fields) stops iterating; that record and everything after it
        are then truncated by the next :meth:`append`.
        """
        self._trusted = 0
        try:
            raw = self.path.read_bytes()
        except FileNotFoundError:
            return
        for line in raw.splitlines(keepends=True):
            record = decode_line(line)
            if record is None:
                return
            yield record
            self._trusted += len(line)

    def damaged(self) -> bool:
        """Whether a complete line lies past the trusted prefix —
        corruption or a foreign format, where a crash mid-append
        leaves only a newline-less torn tail."""
        try:
            with open(self.path, "rb") as fh:
                fh.seek(self._trusted)
                return b"\n" in fh.read()
        except FileNotFoundError:
            return False

    def append(self, record: Any) -> None:
        """Durably log one record: one write, one fsync (plus the
        directory's when the log was empty, i.e. new)."""
        line = encode_line(record)
        _make_dirs(self.path.parent)
        fd = os.open(self.path, os.O_WRONLY | os.O_CREAT | os.O_APPEND,
                     0o644)
        try:
            size = os.fstat(fd).st_size
            if size > self._trusted:
                os.ftruncate(fd, self._trusted)
            os.write(fd, line)
            os.fsync(fd)
        finally:
            os.close(fd)
        if size == 0:
            _fsync_dir(self.path.parent)
        self._trusted += len(line)


def write_atomic(path: PathLike, data: bytes) -> pathlib.Path:
    """Replace ``path`` with ``data`` so a crash leaves old or new.

    On failure the temp file is removed and ``path`` is untouched.
    """
    path = pathlib.Path(path)
    _make_dirs(path.parent)
    fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(data)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.unlink(tmp)
        raise
    _fsync_dir(path.parent)
    return path


def quarantine(path: PathLike, qdir: PathLike, label: str, reason: str,
               **fields: Any) -> pathlib.Path:
    """Move a corrupt file aside and record why; never raises.

    The file moves to ``qdir/<label>`` (plus the file's extension
    when ``label`` lacks it). If the move fails — another process got
    there first, or ``qdir`` cannot be made — the file is unlinked so
    it at least leaves the lookup path. ``qdir/<label>.reason.json``
    then records ``fields``, ``reason`` and the time. Returns where
    the file was moved to.
    """
    path, qdir = pathlib.Path(path), pathlib.Path(qdir)
    suffix = path.suffix
    target = qdir / (label if label.endswith(suffix) else label + suffix)
    try:
        _make_dirs(qdir)
        os.replace(path, target)
    except OSError:
        with contextlib.suppress(OSError):
            os.unlink(path)
    record = dict(fields, reason=reason,
                  quarantined_at_unix_s=time.time())
    with contextlib.suppress(OSError):
        write_atomic(qdir / f"{label}.reason.json",
                     (json.dumps(record, indent=2, sort_keys=True)
                      + "\n").encode("utf-8"))
    return target


class IntegrityError(RuntimeError):
    """A sealed file failed verification and was quarantined."""


def write_sealed(path: PathLike, payload: bytes,
                 **identity: Any) -> pathlib.Path:
    """Atomically write ``payload`` under a header naming ``identity``
    and the payload's sha256 (read back with :func:`read_sealed`)."""
    header = json.dumps(
        {**identity, "sha256": hashlib.sha256(payload).hexdigest()},
        sort_keys=True)
    return write_atomic(path, header.encode("utf-8") + b"\n" + payload)


def read_sealed(path: PathLike, qdir: PathLike, label: str,
                reason_fields: Dict[str, Any],
                **identity: Any) -> Optional[bytes]:
    """The payload of a sealed file, or None once it is quarantined.

    The header must parse, carry every ``identity`` field with the
    expected value and hold the payload's sha256. Otherwise the file
    goes to :func:`quarantine` under ``qdir/<label>``, its reason
    record holding ``reason_fields``. An absent file raises
    :class:`FileNotFoundError`: absent is not corrupt.
    """
    try:
        header, _, payload = pathlib.Path(path).read_bytes().partition(
            b"\n")
        meta = json.loads(header)
    except FileNotFoundError:
        raise
    except (OSError, ValueError) as exc:
        meta, reason = None, f"unreadable: {type(exc).__name__}: {exc}"
    else:
        reason = "header is not a JSON object"
    if isinstance(meta, dict):
        stale = {name: meta.get(name) for name in identity
                 if meta.get(name) != identity[name]}
        if stale:
            reason = (f"identity mismatch: stored {stale!r}, "
                      f"expected {identity!r}")
        elif hashlib.sha256(payload).hexdigest() != meta.get("sha256"):
            reason = "payload digest mismatch"
        else:
            return payload
    quarantine(path, qdir, label, reason, **reason_fields)
    return None
