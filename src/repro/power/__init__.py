"""Power substrate: dynamic, leakage, scaling constants, sensors."""

from .scaling import (
    CORE_STATIC_NOMINAL_W,
    L2_DYNAMIC_FRACTION,
    L2_STATIC_NOMINAL_W,
    L2_VDD,
    ceff_from_reference,
)
from .dynamic import dynamic_power, l2_dynamic_power
from .leakage import (
    DIBL_COEFF,
    CoreLeakageModel,
    L2LeakageModel,
    leakage_calibration,
    leakage_factor,
    subthreshold_slope_factor,
)
from .sensors import (
    IpcSensor,
    PowerSensor,
    Sensor,
    SensorSpec,
    core_reader,
    independent_rngs,
)

__all__ = [
    "CORE_STATIC_NOMINAL_W",
    "CoreLeakageModel",
    "DIBL_COEFF",
    "IpcSensor",
    "L2LeakageModel",
    "L2_DYNAMIC_FRACTION",
    "L2_STATIC_NOMINAL_W",
    "L2_VDD",
    "PowerSensor",
    "Sensor",
    "SensorSpec",
    "ceff_from_reference",
    "core_reader",
    "dynamic_power",
    "independent_rngs",
    "l2_dynamic_power",
    "leakage_calibration",
    "leakage_factor",
    "subthreshold_slope_factor",
]
