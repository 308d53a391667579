"""Declarative request schemas for the daemon protocol.

Each request type is described by a tuple of :class:`Field` specs;
:func:`validate_request` checks an envelope-validated frame against
the spec for its type and returns a canonical payload dict (defaults
filled in, unknown keys rejected). Validation failures surface as
:class:`~repro.daemon.protocol.ProtocolError` with the typed codes
``unknown_type`` / ``invalid``, so the connection loop never sees a
raw exception from a hostile payload.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, Optional, Tuple

from ..config import (
    COST_PERFORMANCE,
    HIGH_PERFORMANCE,
    LOW_POWER,
    PowerEnvironment,
)
from ..faults.schedule import ALL_KINDS
from ..sched import POLICIES
from .protocol import ERR_INVALID, ERR_UNKNOWN_TYPE, ProtocolError

#: Keys every request envelope may carry besides the payload.
ENVELOPE_KEYS = ("v", "type", "id")

#: Manager primaries a tenant may register with. ``crashing`` is the
#: chaos-testing manager that raises after N invocations.
MANAGER_PRIMARIES = ("linopt", "foxton", "crashing")

#: Named power environments (:mod:`repro.config` presets).
ENVS: Dict[str, PowerEnvironment] = {
    "low_power": LOW_POWER,
    "cost_performance": COST_PERFORMANCE,
    "high_performance": HIGH_PERFORMANCE,
}


def _invalid(message: str) -> ProtocolError:
    return ProtocolError(ERR_INVALID, message)


@dataclass(frozen=True)
class Field:
    """One payload field: type constraint plus optional refinement."""

    name: str
    types: Tuple[type, ...]
    required: bool = False
    default: Any = None
    check: Optional[Callable[[Any], Optional[str]]] = None

    def validate(self, value: Any) -> Any:
        if not isinstance(value, self.types) or isinstance(value, bool
                ) and bool not in self.types:
            names = "/".join(t.__name__ for t in self.types)
            raise _invalid(f"field {self.name!r} must be {names}")
        if self.check is not None:
            problem = self.check(value)
            if problem:
                raise _invalid(f"field {self.name!r} {problem}")
        return value


def _positive(value: Any) -> Optional[str]:
    return None if value > 0 else "must be positive"


def _non_negative(value: Any) -> Optional[str]:
    return None if value >= 0 else "must be non-negative"


def _nonempty_str(value: Any) -> Optional[str]:
    if not value or len(value) > 128:
        return "must be 1..128 characters"
    return None


def _check_env(value: Any) -> Optional[str]:
    if isinstance(value, str):
        if value not in ENVS:
            return f"must be one of {tuple(ENVS)}"
        return None
    allowed = {"p_target_full", "p_core_max"}
    if not set(value) <= allowed:
        return f"keys must be within {sorted(allowed)}"
    if "p_target_full" not in value:
        return "must set p_target_full"
    for key, v in value.items():
        if not isinstance(v, (int, float)) or isinstance(v, bool
                ) or v <= 0:
            return f"{key} must be a positive number"
    return None


def _check_manager(value: Any) -> Optional[str]:
    allowed = {"primary", "resilient", "evaluation_budget",
               "deadline_s", "crash_after", "accept_infeasible_floor",
               "n_iterations"}
    if not set(value) <= allowed:
        return f"keys must be within {sorted(allowed)}"
    primary = value.get("primary", "linopt")
    if primary not in MANAGER_PRIMARIES:
        return f"primary must be one of {MANAGER_PRIMARIES}"
    if not isinstance(value.get("resilient", True), bool):
        return "resilient must be a boolean"
    if not isinstance(value.get("accept_infeasible_floor", True), bool):
        return "accept_infeasible_floor must be a boolean"
    for key in ("evaluation_budget", "crash_after", "n_iterations"):
        v = value.get(key)
        if v is not None and (not isinstance(v, int)
                              or isinstance(v, bool) or v < 1):
            return f"{key} must be a positive integer"
    v = value.get("deadline_s")
    if v is not None and (not isinstance(v, (int, float))
                          or isinstance(v, bool) or v <= 0):
        return "deadline_s must be a positive number"
    return None


def _check_faults(value: Any) -> Optional[str]:
    if len(value) > 256:
        return "must list at most 256 events"
    for i, entry in enumerate(value):
        if not isinstance(entry, dict):
            return f"entry {i} must be an object"
        if not set(entry) <= {"time_s", "kind", "target", "param"}:
            return (f"entry {i} keys must be within "
                    "['kind', 'param', 'target', 'time_s']")
        t = entry.get("time_s")
        if not isinstance(t, (int, float)) or isinstance(t, bool
                ) or t < 0:
            return f"entry {i} time_s must be non-negative"
        if entry.get("kind") not in ALL_KINDS:
            return f"entry {i} kind must be one of {ALL_KINDS}"
        target = entry.get("target", -1)
        if not isinstance(target, int) or isinstance(target, bool):
            return f"entry {i} target must be an integer"
        param = entry.get("param", 0.0)
        if not isinstance(param, (int, float)) or isinstance(param,
                                                             bool):
            return f"entry {i} param must be a number"
    return None


def _check_policy(value: Any) -> Optional[str]:
    if value not in POLICIES:
        return f"must be one of {sorted(POLICIES)}"
    return None


def _check_core_values(value: Any) -> Optional[str]:
    if not value or len(value) > 64:
        return "must list 1..64 measurements"
    for i, v in enumerate(value):
        if not isinstance(v, (int, float)) or isinstance(v, bool):
            return f"entry {i} must be a number"
        if not (-1e9 < float(v) < 1e9):
            return f"entry {i} must be finite"
    return None


_TENANT = Field("tenant", (str,), required=True, check=_nonempty_str)

#: Client-supplied idempotency token: a daemon with a state dir
#: journals the reply under it, so a retried request (e.g. after a
#: reconnect) replays the original reply instead of re-executing.
_REQUEST_ID = Field("request_id", (str,), default=None,
                    check=_nonempty_str)

#: Request type -> payload field specs. The payload is everything in
#: the frame besides :data:`ENVELOPE_KEYS`.
REQUESTS: Dict[str, Tuple[Field, ...]] = {
    "register": (
        _TENANT,
        Field("seed", (int,), default=0, check=_non_negative),
        Field("n_cores", (int,), default=4,
              check=lambda v: None if 2 <= v <= 64
              else "must be in 2..64"),
        Field("n_threads", (int,), default=0, check=_non_negative),
        Field("env", (str, dict), default="low_power",
              check=_check_env),
        Field("policy", (str,), default="VarF&AppIPC",
              check=_check_policy),
        Field("manager", (dict,), default=None, check=_check_manager),
        Field("duration_s", (int, float), default=0.05,
              check=_positive),
        Field("dvfs_interval_s", (int, float), default=0.01,
              check=_positive),
        Field("noise_sigma", (int, float), default=0.0,
              check=_non_negative),
        Field("watchdog", (bool,), default=False),
        Field("faults", (list,), default=None, check=_check_faults),
        _REQUEST_ID,
    ),
    "advance": (
        _TENANT,
        Field("until_s", (int, float), default=None, check=_positive),
        Field("to_end", (bool,), default=False),
        _REQUEST_ID,
    ),
    "sensor_feed": (
        _TENANT,
        Field("core_values", (list,), required=True,
              check=_check_core_values),
        Field("uncore_value", (int, float), default=None,
              check=lambda v: None if -1e9 < float(v) < 1e9
              else "must be finite"),
        _REQUEST_ID,
    ),
    "subscribe": (
        Field("tenant", (str,), required=True, check=_nonempty_str),
    ),
    "unsubscribe": (
        Field("tenant", (str,), required=True, check=_nonempty_str),
    ),
    "inject": (
        _TENANT,
        Field("kind", (str,), required=True,
              check=lambda v: None if v in ("manager_error",
                                            "manager_deadline")
              else "must be manager_error or manager_deadline"),
        _REQUEST_ID,
    ),
    "tenant_info": (_TENANT,),
    "timeline": (
        _TENANT,
        Field("width", (int,), default=60,
              check=lambda v: None if 10 <= v <= 200
              else "must be in 10..200"),
    ),
    "trace": (_TENANT,),
    "unregister": (_TENANT,),
    "telemetry": (),
    "status": (),
    "ping": (),
    "drain": (),
    "shutdown": (),
}


def validate_request(frame: Dict[str, Any]) -> Tuple[str,
                                                     Dict[str, Any]]:
    """Validate an envelope-checked frame against its type's schema.

    Returns:
        ``(type, payload)`` with defaults filled in.

    Raises:
        ProtocolError: ``unknown_type`` for a type outside the
            protocol, ``invalid`` for any payload violation.
    """
    rtype = frame["type"]
    spec = REQUESTS.get(rtype)
    if spec is None:
        raise ProtocolError(ERR_UNKNOWN_TYPE,
                            f"unknown request type {rtype!r}")
    known = {f.name for f in spec}
    extra = set(frame) - known - set(ENVELOPE_KEYS)
    if extra:
        raise _invalid(f"unknown field(s) {sorted(extra)} "
                       f"for request {rtype!r}")
    payload: Dict[str, Any] = {}
    for field in spec:
        if field.name in frame:
            payload[field.name] = field.validate(frame[field.name])
        elif field.required:
            raise _invalid(
                f"request {rtype!r} requires field {field.name!r}")
        else:
            payload[field.name] = field.default
    if rtype == "advance" and payload["until_s"] is None \
            and not payload["to_end"]:
        raise _invalid("advance needs until_s or to_end")
    return rtype, payload
