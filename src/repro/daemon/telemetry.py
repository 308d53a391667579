"""Live health counters and latency tracking for the daemon.

The daemon's observable state, in the same spirit as
:class:`repro.parallel.health.RunHealth`: a fixed set of named
counters (every recovery or protocol anomaly increments one — nothing
is silent) plus bounded reservoirs of recent per-operation latencies
summarised as p50/p99. Thread-safe: the server increments from the
asyncio loop thread while controller work runs in executor threads.
"""

from __future__ import annotations

import threading
from collections import deque
from typing import Deque, Dict

import numpy as np

#: Every counter the daemon maintains, with zero defaults, so
#: snapshots always have a stable, complete shape.
COUNTER_FIELDS = (
    # Protocol / transport.
    "connections_opened",
    "connections_closed",
    "frames_in",
    "frames_out",
    "malformed_frames",
    "oversized_frames",
    "unknown_version_frames",
    "error_replies",
    "idle_reaped",
    # Pub/sub.
    "events_published",
    "dropped_frames",
    # Tenant lifecycle.
    "tenants_registered",
    "tenants_unregistered",
    "tenants_finished",
    "quarantines",
    # Decision stream.
    "advances",
    "decisions",
    "emergency_decisions",
    "tier1_decisions",
    "tier2_decisions",
    "tier_transitions",
    "lp_fallbacks",
    # Sensor-event ingestion.
    "sensor_feeds",
    "sensor_feed_clamps",
    # Durability: write-ahead logging, idempotency, recovery.
    "oplog_appends",
    "snapshots_written",
    "deduped_requests",
    "tenants_recovered",
    "ops_replayed",
    "snapshot_restores",
    "snapshot_quarantines",
    "replay_divergences",
)

#: Latency reservoir depth per operation (recent-window percentiles).
RESERVOIR = 1024


class DaemonTelemetry:
    """Thread-safe counters + per-operation latency percentiles."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counters: Dict[str, int] = {
            name: 0 for name in COUNTER_FIELDS}
        self._latencies: Dict[str, Deque[float]] = {}

    def incr(self, name: str, n: int = 1) -> None:
        """Add ``n`` to a counter (the name must be declared)."""
        if name not in self._counters:
            raise KeyError(f"undeclared counter {name!r}")
        with self._lock:
            self._counters[name] += n

    def get(self, name: str) -> int:
        """Current value of one counter."""
        with self._lock:
            return self._counters[name]

    def observe_latency(self, op: str, seconds: float) -> None:
        """Record one operation latency into its bounded reservoir."""
        with self._lock:
            window = self._latencies.get(op)
            if window is None:
                window = deque(maxlen=RESERVOIR)
                self._latencies[op] = window
            window.append(float(seconds))

    def snapshot(self) -> Dict[str, object]:
        """Counters plus ``{op: {count, p50_s, p99_s, max_s}}``."""
        with self._lock:
            counters = dict(self._counters)
            latencies = {op: list(window)
                         for op, window in self._latencies.items()}
        summary: Dict[str, Dict[str, float]] = {}
        for op, samples in latencies.items():
            arr = np.asarray(samples, dtype=float)
            summary[op] = {
                "count": int(arr.size),
                "p50_s": float(np.percentile(arr, 50)),
                "p99_s": float(np.percentile(arr, 99)),
                "max_s": float(arr.max()),
            }
        return {"counters": counters, "latency": summary}
