"""Asyncio transport of the power-management daemon.

One task per connection reads NDJSON request frames, runs controller
verbs (CPU-heavy ones on executor threads, serialised per tenant by
the tenant's own lock) and writes replies; subscribers additionally
receive the decision stream as pub/sub event frames.

Robustness properties (pinned by ``tests/test_daemon_chaos.py``):

* A malformed, oversized or unknown-version frame produces a typed
  error reply and the connection loop continues. Only a frame so
  large it overruns the transport's hard read limit (8x the frame
  budget) desynchronises the stream and closes that one connection.
* Replies are written directly (never dropped); events flow through a
  *bounded* per-connection queue. A slow consumer's queue drops the
  **oldest** event per overflow — freshest-actuation-wins, counted in
  ``dropped_frames`` — and never blocks the server or other clients.
* A tenant whose manager stack raises is quarantined by the
  controller; the requester gets a typed ``quarantined`` error, a
  ``quarantined`` event is published, and every other tenant (and
  connection) is untouched.
* Clients that go silent are reaped after ``idle_timeout_s``; a
  ``ping`` (or any frame) resets the clock. Optional heartbeat events
  let subscribers detect a dead daemon symmetrically.
* ``stop()`` drains: the listener closes, in-flight requests finish,
  subscriber queues flush (bounded by ``DRAIN_TIMEOUT_S``), then
  connections close and the server exits cleanly.
"""

from __future__ import annotations

import asyncio
import threading
import time
from typing import Any, Dict, Optional, Set, Tuple

from .controller import DaemonController
from .protocol import (
    DEFAULT_MAX_FRAME_BYTES,
    ERR_DRAINING,
    ERR_INTERNAL,
    ERR_MALFORMED,
    ERR_OVERSIZED,
    ERR_UNKNOWN_VERSION,
    ProtocolError,
    decode_frame,
    encode_frame,
    error_frame,
    event_frame,
    hard_limit,
    reply_frame,
)
from .schemas import validate_request

#: Default bound of each subscriber's event queue (frames).
DEFAULT_QUEUE_SIZE = 64

#: Per-connection bound (s) on queue flushing during ``stop``; the
#: wait for in-flight requests is bounded by four times this.
DRAIN_TIMEOUT_S = 5.0

#: Error codes with a dedicated telemetry counter.
_CODE_COUNTERS = {
    ERR_MALFORMED: "malformed_frames",
    ERR_OVERSIZED: "oversized_frames",
    ERR_UNKNOWN_VERSION: "unknown_version_frames",
}


class _Connection:
    """Per-client state: direct reply writes + bounded event queue."""

    def __init__(self, writer: asyncio.StreamWriter,
                 queue_size: int) -> None:
        self.writer = writer
        self.write_lock = asyncio.Lock()
        self.queue: "asyncio.Queue[Optional[bytes]]" = asyncio.Queue(
            maxsize=queue_size)
        self.subscriptions: Set[str] = set()
        self.closed = False
        self.last_activity = time.monotonic()
        self.drain_task: Optional["asyncio.Task[None]"] = None

    def touch(self) -> None:
        self.last_activity = time.monotonic()

    def subscribed_to(self, tenant: Optional[str]) -> bool:
        if not self.subscriptions:
            return False
        return (tenant is None or "*" in self.subscriptions
                or tenant in self.subscriptions)


class DaemonServer:
    """The daemon's listening endpoint (one asyncio loop).

    Args:
        controller: Tenant registry/logic (one is created if omitted).
        host, port: Bind address; port 0 picks a free port
            (``address`` reports the bound one after ``start``).
        max_frame_bytes: Per-frame size budget; bigger frames get a
            typed ``oversized`` error.
        queue_size: Bound of each subscriber's event queue.
        idle_timeout_s: Reap connections with no inbound frame for
            this long (``None`` disables reaping).
        heartbeat_interval_s: Publish a ``heartbeat`` event to every
            subscriber at this period (``None`` disables; also the
            reap-check period, defaulting to 1 s when only reaping).
    """

    def __init__(self, controller: Optional[DaemonController] = None,
                 host: str = "127.0.0.1", port: int = 0,
                 max_frame_bytes: int = DEFAULT_MAX_FRAME_BYTES,
                 queue_size: int = DEFAULT_QUEUE_SIZE,
                 idle_timeout_s: Optional[float] = None,
                 heartbeat_interval_s: Optional[float] = None) -> None:
        self.controller = (controller if controller is not None
                           else DaemonController())
        self.telemetry = self.controller.telemetry
        self.host = host
        self.port = port
        self.max_frame_bytes = max_frame_bytes
        self.queue_size = queue_size
        self.idle_timeout_s = idle_timeout_s
        self.heartbeat_interval_s = heartbeat_interval_s
        self.draining = False
        self.address: Tuple[str, int] = (host, port)
        self._server: Optional[asyncio.AbstractServer] = None
        self._connections: Set[_Connection] = set()
        #: Event drops attributed to the tenant whose event overflowed
        #: a queue (surfaced in heartbeats and `daemon status`).
        self._dropped_by_tenant: Dict[str, int] = {}
        self._inflight = 0
        self._idle = asyncio.Event()
        self._idle.set()
        self._housekeeper: Optional["asyncio.Task[None]"] = None
        self._stopped = asyncio.Event()

    # -- Lifecycle -----------------------------------------------------

    async def start(self) -> Tuple[str, int]:
        """Bind and start serving; returns the bound address."""
        self._server = await asyncio.start_server(
            self._handle, self.host, self.port,
            limit=hard_limit(self.max_frame_bytes))
        sock = self._server.sockets[0]
        self.address = sock.getsockname()[:2]
        if (self.idle_timeout_s is not None
                or self.heartbeat_interval_s is not None):
            self._housekeeper = asyncio.ensure_future(
                self._housekeeping())
        return self.address

    async def stop(self) -> None:
        """Drain-then-stop: refuse new work, finish in-flight
        requests, flush subscriber queues, close every connection."""
        self.draining = True
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        # Wait for requests already handed to executor threads.
        try:
            await asyncio.wait_for(self._idle.wait(),
                                   DRAIN_TIMEOUT_S * 4)
        except asyncio.TimeoutError:
            pass
        if self._housekeeper is not None:
            self._housekeeper.cancel()
        for conn in list(self._connections):
            await self._flush_and_close(conn)
        self._stopped.set()

    async def _flush_and_close(self, conn: _Connection) -> None:
        if not conn.closed:
            try:
                await asyncio.wait_for(conn.queue.join(),
                                       DRAIN_TIMEOUT_S)
            except asyncio.TimeoutError:
                pass
        if conn.drain_task is not None:
            conn.drain_task.cancel()
        await self._close(conn)

    async def _close(self, conn: _Connection) -> None:
        if conn in self._connections:
            self._connections.discard(conn)
            self.telemetry.incr("connections_closed")
        conn.closed = True
        try:
            conn.writer.close()
            await conn.writer.wait_closed()
        except Exception:
            pass

    # -- Housekeeping: heartbeats + idle reaping -----------------------

    async def _housekeeping(self) -> None:
        period = self.heartbeat_interval_s
        if period is None:
            period = min(1.0, self.idle_timeout_s or 1.0)
        while True:
            await asyncio.sleep(period)
            if self.heartbeat_interval_s is not None:
                self._publish(None, "heartbeat",
                              self._heartbeat_data())
            if self.idle_timeout_s is None:
                continue
            now = time.monotonic()
            for conn in list(self._connections):
                if now - conn.last_activity > self.idle_timeout_s:
                    self.telemetry.incr("idle_reaped")
                    await self._close(conn)

    def _heartbeat_data(self) -> Dict[str, Any]:
        """Liveness payload: tenant count plus the loss/recovery
        facts a subscriber needs to judge its own stream health."""
        controller = self.controller
        data: Dict[str, Any] = {
            "tenants": len(controller.tenants()),
            "dropped_frames": self.telemetry.get("dropped_frames"),
            "dropped_by_tenant": dict(self._dropped_by_tenant),
            "quarantined": controller.quarantined(),
        }
        if controller.last_recovery is not None:
            data["recovery"] = controller.last_recovery.to_dict()
        return data

    # -- Writing -------------------------------------------------------

    async def _write(self, conn: _Connection, frame: bytes) -> None:
        """Write one frame directly (replies — never dropped)."""
        if conn.closed:
            return
        try:
            async with conn.write_lock:
                conn.writer.write(frame)
                await conn.writer.drain()
            self.telemetry.incr("frames_out")
        except Exception:
            await self._close(conn)

    def _publish(self, tenant: Optional[str], event: str,
                 data: Dict[str, Any]) -> None:
        """Queue an event to every subscriber; bounded queues drop
        their OLDEST frame on overflow (freshest actuation wins)."""
        frame = encode_frame(event_frame(tenant, event, data))
        for conn in list(self._connections):
            if conn.closed or not conn.subscribed_to(tenant):
                continue
            try:
                conn.queue.put_nowait(frame)
            except asyncio.QueueFull:
                try:
                    conn.queue.get_nowait()
                    conn.queue.task_done()
                except asyncio.QueueEmpty:
                    pass
                self._count_drop(tenant)
                try:
                    conn.queue.put_nowait(frame)
                except asyncio.QueueFull:
                    self._count_drop(tenant)
                    continue
            self.telemetry.incr("events_published")

    def _count_drop(self, tenant: Optional[str]) -> None:
        """Account one dropped event frame, attributed to the tenant
        whose publication overflowed the queue (loop thread only)."""
        self.telemetry.incr("dropped_frames")
        key = tenant if tenant is not None else "<daemon>"
        self._dropped_by_tenant[key] = (
            self._dropped_by_tenant.get(key, 0) + 1)

    async def _drain_queue(self, conn: _Connection) -> None:
        while True:
            frame = await conn.queue.get()
            if frame is None:
                conn.queue.task_done()
                return
            await self._write(conn, frame)
            conn.queue.task_done()
            if conn.closed:
                return

    # -- Connection loop -----------------------------------------------

    async def _handle(self, reader: asyncio.StreamReader,
                      writer: asyncio.StreamWriter) -> None:
        conn = _Connection(writer, self.queue_size)
        conn.drain_task = asyncio.ensure_future(
            self._drain_queue(conn))
        self._connections.add(conn)
        self.telemetry.incr("connections_opened")
        try:
            while not conn.closed:
                try:
                    line = await reader.readline()
                except ValueError:
                    # Hard read-limit overrun: the stream is no
                    # longer frame-aligned — reply and disconnect.
                    self.telemetry.incr("oversized_frames")
                    self.telemetry.incr("error_replies")
                    await self._write(conn, encode_frame(error_frame(
                        None, ERR_OVERSIZED,
                        "frame overran the transport hard limit; "
                        "closing connection")))
                    break
                except (ConnectionError, OSError):
                    break
                if not line:
                    break  # EOF: client went away.
                conn.touch()
                self.telemetry.incr("frames_in")
                await self._handle_line(conn, line)
        finally:
            if conn.drain_task is not None:
                conn.drain_task.cancel()
            await self._close(conn)

    async def _handle_line(self, conn: _Connection,
                           line: bytes) -> None:
        req_id: Any = None
        try:
            frame = decode_frame(line, self.max_frame_bytes)
            req_id = frame.get("id")
            rtype, payload = validate_request(frame)
            result = await self._dispatch(conn, rtype, payload)
            await self._write(conn,
                              encode_frame(reply_frame(req_id,
                                                       result)))
        except ProtocolError as exc:
            counter = _CODE_COUNTERS.get(exc.code)
            if counter is not None:
                self.telemetry.incr(counter)
            self.telemetry.incr("error_replies")
            await self._write(conn, encode_frame(error_frame(
                req_id, exc.code, exc.message)))
        except Exception as exc:  # noqa: B902 - fault barrier
            # The per-request fault domain: nothing a single request
            # does may kill the connection loop, let alone the server.
            self.telemetry.incr("error_replies")
            await self._write(conn, encode_frame(error_frame(
                req_id, ERR_INTERNAL,
                f"{type(exc).__name__}: {exc}")))

    # -- Request dispatch ----------------------------------------------

    async def _run_blocking(self, fn, *args):
        loop = asyncio.get_event_loop()
        self._inflight += 1
        self._idle.clear()
        try:
            return await loop.run_in_executor(None, fn, *args)
        finally:
            self._inflight -= 1
            if self._inflight == 0:
                self._idle.set()

    async def _dispatch(self, conn: _Connection, rtype: str,
                        payload: Dict[str, Any]) -> Dict[str, Any]:
        controller = self.controller
        if rtype == "ping":
            return {"pong": True, "draining": self.draining,
                    "tenants": len(controller.tenants())}
        if rtype == "subscribe":
            conn.subscriptions.add(payload["tenant"])
            return {"subscribed": sorted(conn.subscriptions)}
        if rtype == "unsubscribe":
            conn.subscriptions.discard(payload["tenant"])
            return {"subscribed": sorted(conn.subscriptions)}
        if rtype == "register":
            if self.draining:
                raise ProtocolError(
                    ERR_DRAINING,
                    "daemon is draining; no new tenants")
            t0 = time.monotonic()
            info = await self._run_blocking(controller.register,
                                            payload)
            self.telemetry.observe_latency(
                "register", time.monotonic() - t0)
            self._publish(payload["tenant"], "registered", info)
            return info
        if rtype == "advance":
            name = payload["tenant"]
            t0 = time.monotonic()
            try:
                result = await self._run_blocking(
                    controller.advance, name, payload["until_s"],
                    payload["to_end"], payload["request_id"])
            except ProtocolError as exc:
                if exc.code == "quarantined":
                    self._publish(name, "quarantined",
                                  {"reason": exc.message})
                raise
            self.telemetry.observe_latency(
                "advance", time.monotonic() - t0)
            for decision in result["decisions"]:
                self._publish(name, "decision", decision)
            if result["finished"]:
                self._publish(name, "finished",
                              {"time_s": result["time_s"]})
            return result
        if rtype == "inject":
            # Takes the tenant lock (may wait behind a long advance)
            # so it must not run on the loop thread.
            return await self._run_blocking(
                controller.inject, payload["tenant"],
                payload["kind"], payload["request_id"])
        if rtype == "sensor_feed":
            result = await self._run_blocking(
                controller.sensor_feed, payload["tenant"],
                payload["core_values"], payload["uncore_value"],
                payload["request_id"])
            self._publish(payload["tenant"], "sensor_feed",
                          {k: result[k] for k in
                           ("core_values", "uncore_value", "clamped")})
            return result
        if rtype == "tenant_info":
            return controller.tenant_info(payload["tenant"])
        if rtype == "timeline":
            return controller.timeline(payload["tenant"],
                                       payload["width"])
        if rtype == "trace":
            return controller.trace(payload["tenant"])
        if rtype == "unregister":
            return controller.unregister(payload["tenant"])
        if rtype == "telemetry":
            return controller.telemetry_snapshot()
        if rtype == "status":
            status = controller.status()
            status["dropped_by_tenant"] = dict(
                self._dropped_by_tenant)
            status["draining"] = self.draining
            return status
        if rtype == "drain":
            self.draining = True
            return {"draining": True}
        if rtype == "shutdown":
            self.draining = True
            asyncio.ensure_future(self.stop())
            return {"stopping": True}
        raise ProtocolError(ERR_INTERNAL,
                            f"unrouted request type {rtype!r}")


class ServerThread:
    """Run a :class:`DaemonServer` on a background thread.

    The bridge synchronous code (tests, benchmarks, the example
    client) uses to stand up a real daemon in-process::

        with ServerThread() as (host, port):
            client = DaemonClient(host, port)
            ...

    ``stop()`` performs the daemon's drain-then-stop shutdown and
    joins the thread.
    """

    def __init__(self, controller: Optional[DaemonController] = None,
                 **kwargs: Any) -> None:
        self.controller = (controller if controller is not None
                           else DaemonController())
        self._kwargs = kwargs
        self._started = threading.Event()
        self._failure: Optional[BaseException] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self.server: Optional[DaemonServer] = None
        self._thread = threading.Thread(target=self._run,
                                        name="repro-daemon",
                                        daemon=True)

    def _run(self) -> None:
        loop = asyncio.new_event_loop()
        asyncio.set_event_loop(loop)
        self._loop = loop
        try:
            self.server = DaemonServer(self.controller,
                                       **self._kwargs)
            loop.run_until_complete(self.server.start())
        except BaseException as exc:
            self._failure = exc
            self._started.set()
            loop.close()
            return
        self._started.set()
        try:
            loop.run_forever()
        finally:
            loop.run_until_complete(loop.shutdown_asyncgens())
            loop.close()

    def start(self) -> Tuple[str, int]:
        """Start the thread; returns the daemon's (host, port)."""
        self._thread.start()
        if not self._started.wait(timeout=30):
            raise RuntimeError("daemon thread failed to start")
        if self._failure is not None:
            raise RuntimeError(
                f"daemon failed to start: {self._failure}")
        assert self.server is not None
        return self.server.address

    def stop(self, timeout: float = 30.0) -> None:
        """Drain-then-stop the server and join the thread."""
        if self._loop is None or self.server is None:
            return
        if self._thread.is_alive():
            fut = asyncio.run_coroutine_threadsafe(
                self.server.stop(), self._loop)
            try:
                fut.result(timeout)
            except Exception:
                pass
            self._loop.call_soon_threadsafe(self._loop.stop)
        self._thread.join(timeout)

    def __enter__(self) -> Tuple[str, int]:
        return self.start()

    def __exit__(self, *exc_info: Any) -> None:
        self.stop()
