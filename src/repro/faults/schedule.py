"""Deterministic fault-injection schedules.

A :class:`FaultSchedule` is an ordered, reproducible list of
:class:`FaultEvent` objects — sensor faults (stuck-at, drift, dead),
core faults (frequency-droop clamp, permanent core-offline) and
manager faults (forced failure, evaluation-deadline exceeded) — that
the online simulation applies as simulated time passes. Schedules are
either written out explicitly (the regression scenarios) or generated
from per-kind Poisson rates with a fixed seed
(:meth:`FaultSchedule.random`), so every run is bit-reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

#: Sensor fault kinds (target = core id; -1 targets the uncore sensor).
SENSOR_STUCK = "sensor_stuck"      # reads a constant (param = value)
SENSOR_DRIFT = "sensor_drift"      # reading drifts (param = units/s)
SENSOR_DEAD = "sensor_dead"        # dropout: last-known-good substituted

#: Core fault kinds (target = core id).
CORE_DROOP = "core_droop"          # V/f ceiling clamped down param levels
CORE_OFFLINE = "core_offline"      # permanent core loss; thread migrates

#: Manager fault kinds (target ignored).
MANAGER_ERROR = "manager_error"        # next invocation raises
MANAGER_DEADLINE = "manager_deadline"  # next invocation blows its budget

SENSOR_KINDS = (SENSOR_STUCK, SENSOR_DRIFT, SENSOR_DEAD)
CORE_KINDS = (CORE_DROOP, CORE_OFFLINE)
MANAGER_KINDS = (MANAGER_ERROR, MANAGER_DEADLINE)
ALL_KINDS = SENSOR_KINDS + CORE_KINDS + MANAGER_KINDS


@dataclass(frozen=True)
class FaultEvent:
    """One injected fault.

    Attributes:
        time_s: Simulated time at which the fault strikes.
        kind: One of the module's ``*_KINDS`` constants.
        target: Core id for sensor/core faults (-1 = chip/uncore
            scope); ignored for manager faults.
        param: Kind-specific magnitude (stuck-at value, drift rate in
            units/s, droop depth in DVFS levels).
    """

    time_s: float
    kind: str
    target: int = -1
    param: float = 0.0

    def __post_init__(self) -> None:
        if self.time_s < 0:
            raise ValueError("fault time must be non-negative")
        if self.kind not in ALL_KINDS:
            raise ValueError(f"unknown fault kind {self.kind!r}")
        if self.kind == CORE_DROOP and self.param < 1:
            raise ValueError("core_droop needs param >= 1 level")


class FaultSchedule:
    """An immutable, time-ordered fault schedule.

    Iterating yields events in time order. An empty schedule is valid
    (and is the transparent default everywhere).
    """

    def __init__(self, events: Sequence[FaultEvent] = ()) -> None:
        self._events: Tuple[FaultEvent, ...] = tuple(
            sorted(events, key=lambda e: e.time_s))

    @property
    def events(self) -> Tuple[FaultEvent, ...]:
        """All events, ascending in time."""
        return self._events

    def __len__(self) -> int:
        return len(self._events)

    def __iter__(self):
        return iter(self._events)

    @classmethod
    def random(
        cls,
        duration_s: float,
        rates_per_s: Dict[str, float],
        n_cores: int,
        seed: int = 0,
        param_ranges: Optional[Dict[str, Tuple[float, float]]] = None,
    ) -> "FaultSchedule":
        """Poisson-generate a schedule from per-kind rates.

        Args:
            duration_s: Horizon over which to draw events.
            rates_per_s: Mean events per second, per fault kind.
            n_cores: Targets are drawn uniformly from ``range(n_cores)``.
            seed: Everything is derived from this one seed.
            param_ranges: Optional per-kind (lo, hi) for ``param``
                (defaults: stuck 0, drift ±2 units/s, droop 1-3
                levels).

        Returns:
            A reproducible schedule (same arguments, same events).
        """
        if duration_s <= 0:
            raise ValueError("duration must be positive")
        defaults: Dict[str, Tuple[float, float]] = {
            SENSOR_STUCK: (0.0, 0.0),
            SENSOR_DRIFT: (-2.0, 2.0),
            CORE_DROOP: (1.0, 3.0),
        }
        ranges = dict(defaults)
        ranges.update(param_ranges or {})
        rng = np.random.default_rng(np.random.SeedSequence(
            entropy=seed, spawn_key=(0xFA, 0x17)))
        events: List[FaultEvent] = []
        for kind in ALL_KINDS:  # fixed order keeps draws reproducible
            rate = rates_per_s.get(kind, 0.0)
            if rate < 0:
                raise ValueError(f"negative rate for {kind}")
            if rate == 0.0:
                continue
            n = int(rng.poisson(rate * duration_s))
            for _ in range(n):
                t = float(rng.uniform(0.0, duration_s))
                target = int(rng.integers(n_cores))
                lo, hi = ranges.get(kind, (0.0, 0.0))
                param = float(rng.uniform(lo, hi)) if hi > lo else lo
                if kind == CORE_DROOP:
                    param = float(max(1, round(param)))
                events.append(FaultEvent(time_s=t, kind=kind,
                                         target=target, param=param))
        return cls(events)
