"""Resilient power-management daemon: many chips as one service.

A long-running controller service around the managers/
:class:`~repro.runtime.OnlineSimulation` stack: clients register
*tenants* (chip + workload + policy/manager stack), drive them
incrementally, and receive the actuation stream (V/f levels,
migrations) as pub/sub events — over a newline-delimited-JSON
protocol with versioned schema validation, typed errors, per-tenant
crash quarantine, bounded subscriber queues and drain-then-stop
shutdown. See DESIGN.md §16.

Durability (DESIGN.md §19): a daemon given a ``state_dir`` journals
every admitted state-mutating request to per-tenant write-ahead op
logs, compacts periodic snapshots, and recovers every tenant by
deterministic replay after a crash — decision streams are
bitwise-identical to an uninterrupted run. Clients reconnect with
deterministic exponential backoff and idempotent ``request_id``
retries (:class:`ReconnectingClient`).
"""

from .client import (
    BACKOFF_BASE_S,
    BACKOFF_CAP_S,
    DaemonClient,
    DaemonError,
    ReconnectingClient,
    backoff_delay_s,
)
from ..faults import CrashingManager, TenantConfig, build_stepper
from .controller import (
    ACTIVE,
    FINISHED,
    QUARANTINED,
    DaemonController,
    Tenant,
    build_config,
    decision_to_dict,
)
from .durability import (
    DEDUP_WINDOW,
    OPLOG_FILENAME,
    SNAPSHOT_FORMAT,
    OpLog,
    OpRecord,
    RecoveryStats,
    StateDir,
    TenantStore,
    tenant_dir_name,
)
from .protocol import (
    DEFAULT_MAX_FRAME_BYTES,
    ERROR_CODES,
    PROTOCOL_VERSION,
    ProtocolError,
    decode_frame,
    encode_frame,
    error_frame,
    event_frame,
    reply_frame,
)
from .schemas import REQUESTS, validate_request
from .server import DaemonServer, ServerThread
from .telemetry import COUNTER_FIELDS

__all__ = [
    "ACTIVE",
    "BACKOFF_BASE_S",
    "BACKOFF_CAP_S",
    "COUNTER_FIELDS",
    "CrashingManager",
    "DEDUP_WINDOW",
    "DEFAULT_MAX_FRAME_BYTES",
    "DaemonClient",
    "DaemonController",
    "DaemonError",
    "DaemonServer",
    "ERROR_CODES",
    "FINISHED",
    "OPLOG_FILENAME",
    "OpLog",
    "OpRecord",
    "PROTOCOL_VERSION",
    "ProtocolError",
    "QUARANTINED",
    "REQUESTS",
    "ReconnectingClient",
    "RecoveryStats",
    "SNAPSHOT_FORMAT",
    "ServerThread",
    "StateDir",
    "Tenant",
    "TenantConfig",
    "TenantStore",
    "backoff_delay_s",
    "build_config",
    "build_stepper",
    "decision_to_dict",
    "decode_frame",
    "encode_frame",
    "error_frame",
    "event_frame",
    "reply_frame",
    "tenant_dir_name",
    "validate_request",
]
