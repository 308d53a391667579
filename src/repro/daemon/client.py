"""Synchronous NDJSON clients for the power-management daemon.

:class:`DaemonClient` is a thin, dependency-free socket client: one
TCP connection, blocking request/reply with client-side ids, and
access to the pub/sub event stream on the same connection (events that
arrive interleaved with replies are buffered and handed out via
:meth:`next_event` / :meth:`drain_events`).

:class:`ReconnectingClient` wraps it with crash-tolerance: a dropped
connection (daemon restart, reaped idle socket) is retried behind a
*deterministic* exponential backoff, subscriptions are replayed on the
fresh connection, and every state-mutating verb carries an
auto-generated ``request_id`` — so a retried request that already
landed before the crash gets its original reply replayed by the
daemon's idempotency window instead of being executed twice. Used by
the test-suite, the benchmark and the example; production clients in
other languages only need to speak the frame shapes in
:mod:`repro.daemon.protocol`.
"""

from __future__ import annotations

import json
import socket
import time
from typing import Any, Callable, Dict, List, Optional

from .protocol import PROTOCOL_VERSION


class DaemonError(RuntimeError):
    """A typed error reply from the daemon."""

    def __init__(self, code: str, message: str) -> None:
        super().__init__(f"[{code}] {message}")
        self.code = code
        self.message = message


class _Verbs:
    """Convenience verbs shared by both clients, built on the
    subclass's ``request`` and ``next_event``."""

    def drain_events(self, timeout_s: float = 0.2,
                     ) -> List[Dict[str, Any]]:
        """Collect events until the wire stays quiet for
        ``timeout_s``."""
        events: List[Dict[str, Any]] = []
        while True:
            event = self.next_event(timeout_s=timeout_s)
            if event is None:
                return events
            events.append(event)

    def register(self, tenant: str, **config: Any) -> Dict[str, Any]:
        return self.request("register", tenant=tenant, **config)

    def advance(self, tenant: str,
                until_s: Optional[float] = None,
                to_end: bool = False, **extra: Any) -> Dict[str, Any]:
        payload: Dict[str, Any] = {"tenant": tenant, **extra}
        if to_end:
            payload["to_end"] = True
        else:
            payload["until_s"] = until_s
        return self.request("advance", **payload)

    def sensor_feed(self, tenant: str, core_values: List[float],
                    uncore_value: Optional[float] = None,
                    **extra: Any) -> Dict[str, Any]:
        payload: Dict[str, Any] = {"tenant": tenant,
                                   "core_values": core_values,
                                   **extra}
        if uncore_value is not None:
            payload["uncore_value"] = uncore_value
        return self.request("sensor_feed", **payload)

    def subscribe(self, tenant: str = "*") -> Dict[str, Any]:
        return self.request("subscribe", tenant=tenant)

    def ping(self) -> Dict[str, Any]:
        return self.request("ping")

    def status(self) -> Dict[str, Any]:
        return self.request("status")

    def telemetry(self) -> Dict[str, Any]:
        return self.request("telemetry")


class DaemonClient(_Verbs):
    """Blocking client for one daemon connection."""

    def __init__(self, host: str, port: int,
                 timeout_s: float = 30.0) -> None:
        self._sock = socket.create_connection((host, port),
                                              timeout=timeout_s)
        self._timeout_s = timeout_s
        self._buf = b""
        self._events: List[Dict[str, Any]] = []
        self._next_id = 0
        #: True once the daemon closed its side (EOF observed).
        self.eof = False

    # -- Transport -----------------------------------------------------

    def close(self) -> None:
        self._sock.close()

    def _readline(self) -> bytes:
        """One newline-terminated frame (b"" on EOF).

        Hand-rolled buffering (not ``makefile``) so a read timeout in
        :meth:`next_event` leaves the connection usable: partial data
        stays in the buffer and the next read resumes cleanly.
        """
        while b"\n" not in self._buf:
            chunk = self._sock.recv(65536)
            if not chunk:
                self.eof = True
                data, self._buf = self._buf, b""
                return data
            self._buf += chunk
        line, self._buf = self._buf.split(b"\n", 1)
        return line + b"\n"

    def __enter__(self) -> "DaemonClient":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    def send_raw(self, data: bytes) -> None:
        """Send raw bytes (chaos tests craft hostile frames here)."""
        self._sock.sendall(data)

    def read_frame(self) -> Optional[Dict[str, Any]]:
        """Read one frame off the wire (None on EOF)."""
        line = self._readline()
        if not line:
            return None
        return json.loads(line.decode("utf-8"))

    def request(self, rtype: str, **payload: Any) -> Dict[str, Any]:
        """Send one request and block for its reply.

        Event frames arriving before the reply are buffered for
        :meth:`next_event`. Raises :class:`DaemonError` on a typed
        error reply and ``ConnectionError`` if the daemon hangs up.
        """
        self._next_id += 1
        req_id = self._next_id
        frame = {"v": PROTOCOL_VERSION, "type": rtype, "id": req_id}
        frame.update(payload)
        self.send_raw((json.dumps(frame, separators=(",", ":"))
                       + "\n").encode("utf-8"))
        while True:
            reply = self.read_frame()
            if reply is None:
                raise ConnectionError(
                    "daemon closed the connection mid-request")
            if reply.get("type") == "event":
                self._events.append(reply)
                continue
            if reply.get("id") != req_id:
                continue  # stale reply from an abandoned request
            if reply.get("ok"):
                return reply["result"]
            err = reply.get("error") or {}
            raise DaemonError(err.get("code", "internal"),
                              err.get("message", "unknown error"))

    # -- Events --------------------------------------------------------

    def next_event(self,
                   timeout_s: Optional[float] = None,
                   ) -> Optional[Dict[str, Any]]:
        """Next buffered or on-wire event frame (None on timeout)."""
        if self._events:
            return self._events.pop(0)
        if timeout_s is not None:
            self._sock.settimeout(timeout_s)
        try:
            while True:
                frame = self.read_frame()
                if frame is None:
                    return None
                if frame.get("type") == "event":
                    return frame
        except socket.timeout:
            return None
        finally:
            self._sock.settimeout(self._timeout_s)


# ---------------------------------------------------------------------------
# Reconnecting wrapper


#: First retry delay of the deterministic exponential backoff.
BACKOFF_BASE_S = 0.05

#: Ceiling any single retry delay is clamped to.
BACKOFF_CAP_S = 2.0


def backoff_delay_s(attempt: int, base_s: float = BACKOFF_BASE_S,
                    cap_s: float = BACKOFF_CAP_S) -> float:
    """Delay before retry ``attempt`` (0-based): ``base * 2^attempt``
    clamped to ``cap``. Deliberately jitter-free — the daemon is a
    single local endpoint, not a fleet, so a thundering herd is not a
    concern and a reproducible schedule is testable under a fake
    clock."""
    if attempt < 0:
        raise ValueError("attempt must be non-negative")
    return min(cap_s, base_s * (2.0 ** attempt))


#: Verbs whose effects must not be applied twice: these get an
#: auto-generated ``request_id`` so a post-reconnect resend is
#: deduplicated by the daemon (original reply replayed).
MUTATING_VERBS = ("register", "advance", "inject", "sensor_feed")


class ReconnectingClient(_Verbs):
    """Crash-tolerant client: reconnect, re-subscribe, resend.

    Every request that dies to a connection error is retried on a
    fresh connection after a deterministic exponential backoff
    (:func:`backoff_delay_s`), up to ``max_retries`` times; recorded
    subscriptions are replayed on the new connection first, so an
    event consumer keeps its stream across a daemon restart (frames
    published while disconnected are gone — same drop-oldest contract
    as a slow subscriber).

    State-mutating verbs are stamped with an auto-generated
    ``request_id`` (``"<prefix>-<n>"``) unless the caller supplies
    one. The daemon journals replies under that id, so a request
    whose reply was lost to the crash is *replayed*, not re-executed
    — at-most-once effects with at-least-once delivery.

    Args:
        host, port: Daemon address (re-resolved on every connect).
        timeout_s: Per-connection socket timeout.
        max_retries: Connection-error retries per request.
        base_s, cap_s: Backoff schedule parameters.
        request_id_prefix: Prefix of auto-generated request ids;
            give each logical client its own prefix.
        sleep: Injectable delay function (tests pass a fake clock).
        client_factory: Injectable ``(host, port, timeout_s) ->
            DaemonClient`` (tests count/fail connections here).
    """

    def __init__(self, host: str, port: int,
                 timeout_s: float = 30.0, max_retries: int = 8,
                 base_s: float = BACKOFF_BASE_S,
                 cap_s: float = BACKOFF_CAP_S,
                 request_id_prefix: str = "req",
                 sleep: Callable[[float], None] = time.sleep,
                 client_factory: Callable[..., DaemonClient]
                 = DaemonClient) -> None:
        self.host = host
        self.port = port
        self.timeout_s = timeout_s
        self.max_retries = max_retries
        self.base_s = base_s
        self.cap_s = cap_s
        self.request_id_prefix = request_id_prefix
        self._sleep = sleep
        self._factory = client_factory
        self._client: Optional[DaemonClient] = None
        self._subscriptions: List[str] = []
        self._request_n = 0
        #: Connections established over this client's lifetime.
        self.connects = 0
        #: Reconnect attempts that had to back off first.
        self.retries = 0

    # -- Connection management ----------------------------------------

    def _ensure(self) -> DaemonClient:
        """The live connection, (re)established on demand.

        A fresh connection replays recorded subscriptions before any
        request rides on it, so the event stream resumes without the
        caller doing anything.
        """
        if self._client is None:
            client = self._factory(self.host, self.port,
                                   self.timeout_s)
            self.connects += 1
            try:
                for tenant in self._subscriptions:
                    client.request("subscribe", tenant=tenant)
            except BaseException:
                client.close()
                raise
            self._client = client
        return self._client

    def _drop(self) -> None:
        if self._client is not None:
            try:
                self._client.close()
            except OSError:
                pass
            self._client = None

    def close(self) -> None:
        self._drop()

    def __enter__(self) -> "ReconnectingClient":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    # -- Requests ------------------------------------------------------

    def next_request_id(self) -> str:
        self._request_n += 1
        return f"{self.request_id_prefix}-{self._request_n}"

    def request(self, rtype: str, **payload: Any) -> Dict[str, Any]:
        """One request with reconnect-and-resend semantics.

        The *same* payload (including any ``request_id``) is resent
        verbatim after every reconnect; typed daemon errors
        (:class:`DaemonError`) are never retried — only transport
        failures are.
        """
        if rtype in MUTATING_VERBS and "request_id" not in payload:
            payload["request_id"] = self.next_request_id()
        attempt = 0
        while True:
            try:
                return self._ensure().request(rtype, **payload)
            except DaemonError:
                raise
            except (ConnectionError, OSError):
                self._drop()
                if attempt >= self.max_retries:
                    raise
                self.retries += 1
                self._sleep(backoff_delay_s(attempt, self.base_s,
                                            self.cap_s))
                attempt += 1

    # -- Events --------------------------------------------------------

    def subscribe(self, tenant: str = "*") -> Dict[str, Any]:
        result = self.request("subscribe", tenant=tenant)
        if tenant not in self._subscriptions:
            self._subscriptions.append(tenant)
        return result

    def unsubscribe(self, tenant: str) -> Dict[str, Any]:
        result = self.request("unsubscribe", tenant=tenant)
        if tenant in self._subscriptions:
            self._subscriptions.remove(tenant)
        return result

    def next_event(self,
                   timeout_s: Optional[float] = None,
                   ) -> Optional[Dict[str, Any]]:
        """Next event frame; a dead connection is dropped (the next
        call — or request — reconnects and re-subscribes) and reads
        as a quiet wire (``None``)."""
        try:
            client = self._ensure()
        except (ConnectionError, OSError):
            return None
        try:
            event = client.next_event(timeout_s=timeout_s)
        except (ConnectionError, OSError):
            self._drop()
            return None
        if event is None and client.eof:
            self._drop()
        return event
