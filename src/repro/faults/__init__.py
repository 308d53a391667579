"""Fault injection and graceful degradation for the online runtime.

The paper's Figure 2 loop assumes ideal sensors, a working LP solver
and twenty healthy cores. This package drops those assumptions:

* :mod:`~repro.faults.schedule` — deterministic, seeded schedules of
  sensor faults (stuck-at / drift / dead), core faults (V/f droop,
  permanent core-offline) and manager faults (crash, missed deadline).
* :mod:`~repro.faults.sensors` — per-core faultable sensors with
  plausibility clamps and last-known-good substitution, banked with
  independent noise streams.
* :mod:`~repro.faults.watchdog` — the emergency power-budget watchdog
  the online simulation runs on the 1 ms sensor grid.
* :mod:`~repro.faults.resilient` — the LinOpt -> Foxton* ->
  all-minimum fallback chain as a drop-in power manager.

Everything here is transparent by default: an empty schedule, a
healthy bank and an untriggered watchdog leave every experiment's
output bit-identical to a run without them (asserted in
``tests/test_faults.py``).
"""

from .schedule import (
    ALL_KINDS,
    CORE_DROOP,
    CORE_KINDS,
    CORE_OFFLINE,
    MANAGER_DEADLINE,
    MANAGER_ERROR,
    MANAGER_KINDS,
    SENSOR_DEAD,
    SENSOR_DRIFT,
    SENSOR_KINDS,
    SENSOR_STUCK,
    FaultEvent,
    FaultSchedule,
)
from .sensors import FaultableSensor, SensorBank
from .watchdog import PowerWatchdog
from .resilient import ManagerFault, ResilientManager

__all__ = [
    "ALL_KINDS",
    "CORE_DROOP",
    "CORE_KINDS",
    "CORE_OFFLINE",
    "FaultEvent",
    "FaultSchedule",
    "FaultableSensor",
    "MANAGER_DEADLINE",
    "MANAGER_ERROR",
    "MANAGER_KINDS",
    "ManagerFault",
    "PowerWatchdog",
    "ResilientManager",
    "SENSOR_DEAD",
    "SENSOR_DRIFT",
    "SENSOR_KINDS",
    "SENSOR_STUCK",
    "SensorBank",
]
