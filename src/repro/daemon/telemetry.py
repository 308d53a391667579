"""The daemon's declared counters.

A fixed set of named counters for what only the daemon process sees
(connections, frames, protocol anomalies, pub/sub drops, journal
writes), held by the controller in one :class:`repro.metrics.Metrics`
beside the per-operation latencies the server observes. What the
tenants decided — tiers, fallback causes, LP fallbacks — is read from
each tenant's decision stream, and what recovery did from
``DaemonController.last_recovery``; neither is copied into a counter.
"""

from __future__ import annotations

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
    "advances",
    # Sensor-event ingestion.
    "sensor_feeds",
    "sensor_feed_clamps",
    # Durability: write-ahead logging and idempotency.
    "oplog_appends",
    "snapshots_written",
    "deduped_requests",
)
