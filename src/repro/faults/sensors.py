"""Faultable sensors and per-core sensor banks.

Wraps the ideal :class:`repro.power.Sensor` with a health model: a
sensor can be healthy, stuck at a constant, drifting, or dead.
Readings always come back *bounded* — a plausibility clamp floors the
reported value at :data:`PLAUSIBLE_LO_W` and a dead sensor
substitutes its last-known-good reading — so managers consume
degraded-but-safe values instead of NaNs or physical impossibilities
(the Foxton firmware does the same).

A :class:`SensorBank` holds one faultable sensor per core (plus one
for the uncore), each with an *independent* noise stream spawned from
a single parent seed. The bank quacks like a plain sensor
(``read(value)`` reads the uncore channel) and additionally exposes
``core(core_id)``, the accessor :func:`repro.power.core_reader`
dispatches through — so a bank can be handed to LinOpt wherever a
scalar sensor was expected.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from ..power import PowerSensor, Sensor, SensorSpec, independent_rngs
from .schedule import (
    SENSOR_DEAD,
    SENSOR_DRIFT,
    SENSOR_KINDS,
    SENSOR_STUCK,
    FaultEvent,
)

#: Health states of a faultable sensor.
HEALTHY = "healthy"
STUCK = "stuck"
DRIFTING = "drifting"
DEAD = "dead"

#: Plausibility floor (W) on any reported value; readings are not
#: bounded above.
PLAUSIBLE_LO_W = 0.0


class FaultableSensor:
    """A sensor with a health state, plausibility clamp and memory.

    Args:
        base: The underlying (possibly noisy) ideal sensor.

    Readings pass through the base sensor, then through the active
    fault transform, then through the plausibility clamp
    (:data:`PLAUSIBLE_LO_W`). The last clamped reading is remembered
    as the last-known-good substitute a dead sensor keeps reporting.
    """

    def __init__(self, base: Sensor) -> None:
        self.base = base
        self.state = HEALTHY
        self.time_s = 0.0
        self._stuck_value = 0.0
        self._drift_rate = 0.0
        self._drift_start_s = 0.0
        self._last_good: Optional[float] = None

    def _clamp(self, value: float) -> float:
        return max(value, PLAUSIBLE_LO_W)

    def read(self, true_value: float) -> float:
        """Observe a true value through noise, fault state and clamp."""
        if self.state == DEAD:
            if self._last_good is None:
                return PLAUSIBLE_LO_W
            return self._last_good
        if self.state == STUCK:
            return self._clamp(self._stuck_value)
        value = self.base.read(true_value)
        if self.state == DRIFTING:
            value += self._drift_rate * (self.time_s - self._drift_start_s)
        value = self._clamp(value)
        self._last_good = value
        return value

    def feed(self, value: float) -> float:
        """Ingest an externally measured value through the clamp.

        The daemon's ``sensor_feed`` path: a client-supplied
        measurement is bounded by the same plausibility clamp every
        model-driven reading passes through, then adopted as the
        channel's last-known-good — so a later ``dead`` fault reports
        the fed measurement, exactly as it would the last healthy
        read. Returns the clamped value actually adopted.
        """
        value = self._clamp(float(value))
        self._last_good = value
        return value

    def apply(self, event: FaultEvent) -> None:
        """Transition health state per a sensor fault event."""
        if event.kind not in SENSOR_KINDS:
            raise ValueError(f"not a sensor fault: {event.kind!r}")
        if event.kind == SENSOR_STUCK:
            self.state = STUCK
            self._stuck_value = event.param
        elif event.kind == SENSOR_DRIFT:
            self.state = DRIFTING
            self._drift_rate = event.param
            self._drift_start_s = event.time_s
        elif event.kind == SENSOR_DEAD:
            self.state = DEAD

    @property
    def healthy(self) -> bool:
        """Whether the sensor is in its nominal state."""
        return self.state == HEALTHY


class SensorBank:
    """Per-core faultable sensors plus one uncore channel.

    Args:
        n_cores: Number of per-core channels.
        spec: Noise/quantisation spec shared by all channels (each
            channel still gets an independent noise stream).
        seed: Parent seed for the independent per-channel generators.
    """

    def __init__(self, n_cores: int, spec: Optional[SensorSpec] = None,
                 seed: int = 0) -> None:
        if n_cores < 1:
            raise ValueError("need at least one core channel")
        rngs = independent_rngs(n_cores + 1, seed)
        self.channels: List[FaultableSensor] = [
            FaultableSensor(PowerSensor(spec, rng)) for rng in rngs]

    @property
    def n_cores(self) -> int:
        """Number of per-core channels (excludes the uncore one)."""
        return len(self.channels) - 1

    def core(self, core_id: int) -> FaultableSensor:
        """The per-core channel (``repro.power.core_reader`` protocol)."""
        if not 0 <= core_id < self.n_cores:
            raise ValueError(f"core {core_id} out of range")
        return self.channels[core_id]

    @property
    def uncore(self) -> FaultableSensor:
        """The chip-level (uncore) channel."""
        return self.channels[-1]

    def read(self, true_value: float) -> float:
        """Chip-level read (a bank is a valid scalar sensor)."""
        return self.uncore.read(true_value)

    def advance(self, time_s: float) -> None:
        """Propagate simulated time to every channel (drift faults)."""
        for channel in self.channels:
            channel.time_s = time_s

    def apply(self, event: FaultEvent) -> None:
        """Route a sensor fault event to its target channel."""
        channel = (self.uncore if event.target < 0
                   else self.core(event.target))
        channel.apply(event)

    def feed(self, core_values: Sequence[float],
             uncore_value: Optional[float] = None) -> dict:
        """Ingest external measurements through every clamp.

        ``core_values`` feeds channels ``0..len-1`` (at most
        :attr:`n_cores` entries); ``uncore_value`` feeds the uncore
        channel. Returns the adopted (clamped) values plus how many
        were clamped — the daemon surfaces that count as its
        ``sensor_feed_clamps`` telemetry.
        """
        if len(core_values) > self.n_cores:
            raise ValueError(
                f"{len(core_values)} core values for "
                f"{self.n_cores} core channels")
        accepted = []
        clamped = 0
        for core_id, value in enumerate(core_values):
            adopted = self.core(core_id).feed(value)
            accepted.append(adopted)
            if adopted != float(value):
                clamped += 1
        uncore_adopted = None
        if uncore_value is not None:
            uncore_adopted = self.uncore.feed(uncore_value)
            if uncore_adopted != float(uncore_value):
                clamped += 1
        return {"core_values": accepted,
                "uncore_value": uncore_adopted,
                "clamped": clamped}

    def read_chip(self, core_ids: Sequence[int],
                  core_values: Sequence[float],
                  uncore_value: float) -> float:
        """Sensor-sampled chip power: per-core reads plus uncore.

        This is the watchdog's measurement path — each active core is
        read through its own (possibly faulty) channel, so a dead or
        stuck per-core sensor corrupts the chip estimate in a bounded
        way rather than poisoning it with garbage.
        """
        total = self.uncore.read(uncore_value)
        for core_id, value in zip(core_ids, core_values):
            total += self.core(core_id).read(value)
        return total
