"""Power-budget watchdog (emergency Foxton*-style step-down).

The regular power manager runs only every DVFS interval (10 ms in the
paper); between invocations, phase drift, sensor faults or a wrong LP
model can push chip power past ``Ptarget``. Real controllers treat
that as a thermal/voltage emergency handled in hardware: the Foxton
controller steps voltage down within microseconds, independently of
firmware policy. :class:`PowerWatchdog` reproduces that layer on the
1 ms sensor grid: when the *sensor-sampled* chip power exceeds the
budget by more than a guard band for K consecutive samples, one victim
core (round-robin, like Foxton*) is stepped down ``step_levels``
levels, and an emergency cap pins that core until the system has been
clean for a full manager interval.

The watchdog never acts while power is inside the band, so with
healthy sensors and a working manager it is completely transparent.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from ..pm.foxton import next_round_robin_victim

#: Watchdog tuning shared by the ext-faults experiment and the daemon's
#: tenants: trigger above 101 % of budget for 3 consecutive samples.
GUARD_BAND_FRAC = 0.01
K_SAMPLES = 3


class PowerWatchdog:
    """K-out-of-K over-budget detector with round-robin step-down.

    Args:
        guard_band_frac: Overshoot tolerance as a fraction of
            ``Ptarget`` (0.05 = trigger only above 105 % of budget).
        k_samples: Consecutive over-band sensor samples required to
            trigger (debounce against single-sample noise spikes).
        step_levels: DVFS levels removed from the victim per trigger.

    One instance drives one simulation run; :meth:`reset` re-arms it.
    """

    def __init__(self, guard_band_frac: float = 0.05,
                 k_samples: int = 3, step_levels: int = 1) -> None:
        if guard_band_frac < 0:
            raise ValueError("guard band must be non-negative")
        if k_samples < 1:
            raise ValueError("k_samples must be positive")
        if step_levels < 1:
            raise ValueError("step_levels must be positive")
        self.guard_band_frac = guard_band_frac
        self.k_samples = k_samples
        self.step_levels = step_levels
        self.reset(0)

    def reset(self, n_threads: int) -> None:
        """Re-arm for a fresh run over ``n_threads`` threads."""
        self._count = 0
        self._pointer = 0
        self._caps: List[Optional[int]] = [None] * n_threads
        self._triggered_since_manager = False
        self.triggers: List[float] = []

    def observe(self, time_s: float, sensed_power_w: float,
                p_target_w: float) -> bool:
        """Feed one sensor sample; True when an emergency fires.

        The consecutive-sample counter resets whenever a sample lands
        back inside the band, and after every trigger (giving the
        step-down K samples to take effect before escalating).
        """
        if sensed_power_w > p_target_w * (1.0 + self.guard_band_frac):
            self._count += 1
        else:
            self._count = 0
        if self._count < self.k_samples:
            return False
        self._count = 0
        self._triggered_since_manager = True
        self.triggers.append(time_s)
        return True

    def emergency_step_down(self, levels: Sequence[int],
                            ) -> Tuple[List[int], int]:
        """Step one victim down; returns (new levels, victim index).

        Victim selection is Foxton*-style round-robin over threads
        still above the floor; the victim's emergency cap is set to its
        new level so the next manager decision cannot immediately undo
        the step. Returns ``victim = -1`` (levels unchanged) when every
        thread is already at the floor.
        """
        new_levels = list(levels)
        victim, self._pointer = next_round_robin_victim(
            new_levels, self._pointer)
        if victim < 0:
            return new_levels, victim
        new_levels[victim] = max(new_levels[victim] - self.step_levels, 0)
        self._caps[victim] = new_levels[victim]
        return new_levels, victim

    def clamp(self, levels: Sequence[int]) -> List[int]:
        """Apply the emergency caps to a manager's requested levels."""
        return [lv if cap is None else min(lv, cap)
                for lv, cap in zip(levels, self._caps)]

    def on_manager_invocation(self, tops: Sequence[int]) -> None:
        """Relax caps one level per clean manager interval.

        Called at every regular manager invocation. If no emergency
        fired since the previous one, each cap rises one level (and
        disappears at the core's top level); if one did, caps hold.
        """
        if self._triggered_since_manager:
            self._triggered_since_manager = False
            return
        for i, cap in enumerate(self._caps):
            if cap is None:
                continue
            cap += 1
            self._caps[i] = None if cap >= tops[i] else cap
