"""Execution-health accounting for the fault-tolerant sharded runner.

A :class:`RunHealth` records every recovery action :func:`~repro
.parallel.sharding.run_sharded` takes — retries, shard timeouts,
process-pool replacements, shard narrowing and in-process serial
fallbacks — plus per-shard wall times. A *clean* run reports all
counters zero: the robustness machinery must be invisible on the
happy path, and the CI perf gate (``benchmarks/perf_gate.py``) fails
whenever a clean benchmark run shows a serial-fallback activation.

One process-wide instance (:func:`get_run_health`) aggregates across
every :func:`~repro.parallel.runner.characterize_batch` call, the
same way the default characterisation cache aggregates hit/miss
counters; benchmarks snapshot/delta it into ``BENCH_*.json``.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List

# Counter fields, in reporting order. Everything here is an int and
# monotonically non-decreasing over a RunHealth's lifetime.
COUNTER_FIELDS = (
    "shards_run",
    "retries",
    "timeouts",
    "broken_pools",
    "narrowed_shards",
    "serial_fallback_shards",
    "serial_fallback_items",
)


@dataclasses.dataclass
class RunHealth:
    """Recovery-action counters and shard wall times for sharded runs.

    Attributes:
        shards_run: Shards that completed successfully (on the pool or
            via the serial fallback).
        retries: Shard attempts re-enqueued after an infrastructure
            failure (worker death or timeout).
        timeouts: Shards abandoned because they exceeded the per-shard
            timeout (the hung pool is replaced).
        broken_pools: Process pools replaced after ``BrokenProcessPool``
            (a worker died, e.g. SIGKILL/OOM) or a timeout.
        narrowed_shards: Shards split in half after exhausting their
            retry budget, bisecting toward the poisoned item.
        serial_fallback_shards: Shards that ran in-process after the
            pool could not complete them (``workers=1`` semantics).
        serial_fallback_items: Items covered by those serial shards.
        shard_wall_s: Wall time of every completed shard, in
            completion order (diagnostic only; order is not stable).
    """

    shards_run: int = 0
    retries: int = 0
    timeouts: int = 0
    broken_pools: int = 0
    narrowed_shards: int = 0
    serial_fallback_shards: int = 0
    serial_fallback_items: int = 0
    shard_wall_s: List[float] = dataclasses.field(default_factory=list)

    def record_shard(self, wall_s: float) -> None:
        """Count one successfully completed shard."""
        self.shards_run += 1
        self.shard_wall_s.append(float(wall_s))

    @property
    def clean(self) -> bool:
        """True when no recovery action of any kind was needed."""
        return not any(getattr(self, name) for name in COUNTER_FIELDS
                       if name != "shards_run")

    def merge(self, other: "RunHealth") -> None:
        """Fold another health record into this one."""
        for name in COUNTER_FIELDS:
            setattr(self, name, getattr(self, name) + getattr(other, name))
        self.shard_wall_s.extend(other.shard_wall_s)

    def snapshot(self) -> Dict[str, float]:
        """A flat, numeric copy suitable for JSON records and deltas.

        Wall-time keys end in ``_s`` so the perf gate treats them as
        volatile; the counters are deterministic on a healthy run.
        """
        snap: Dict[str, float] = {name: int(getattr(self, name))
                                  for name in COUNTER_FIELDS}
        snap["shard_wall_total_s"] = float(sum(self.shard_wall_s))
        snap["shard_wall_max_s"] = float(max(self.shard_wall_s)
                                         if self.shard_wall_s else 0.0)
        return snap


# ---------------------------------------------------------------------------
# Process-wide collector (mirrors the default-cache counter pattern)

_global_health = RunHealth()


def get_run_health() -> RunHealth:
    """The process-wide health collector every sharded run feeds."""
    return _global_health
