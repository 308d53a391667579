"""Barrier-synchronised parallel applications (paper Section 8).

The paper's evaluation is multiprogrammed; its future work extends the
analysis to parallel applications, where variation has a different
sting: between barriers every worker executes the same amount of work,
so the *slowest* selected core sets the iteration time and faster
cores simply wait (Balakrishnan et al.'s performance-asymmetry
problem, Section 2).

:class:`ParallelApplication` models a data-parallel program as
``n_threads`` identical workers executing ``instructions_per_barrier``
instructions between global barriers, with a fixed per-barrier
synchronisation overhead. Worker IPC follows the same CPI-split model
as the sequential profiles (a base :class:`AppProfile` supplies it).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .applications import AppProfile


@dataclass(frozen=True)
class ParallelApplication:
    """A barrier-synchronised data-parallel program.

    Attributes:
        worker: Per-worker execution profile (IPC vs frequency and
            dynamic power come from here).
        n_threads: Number of worker threads (one per core).
        instructions_per_barrier: Instructions each worker executes
            between consecutive barriers.
        barrier_overhead_s: Fixed synchronisation cost per barrier.
    """

    worker: AppProfile
    n_threads: int
    instructions_per_barrier: float = 1e7
    barrier_overhead_s: float = 2e-6

    def __post_init__(self) -> None:
        if self.n_threads <= 0:
            raise ValueError("n_threads must be positive")
        if self.instructions_per_barrier <= 0:
            raise ValueError("instructions_per_barrier must be positive")
        if self.barrier_overhead_s < 0:
            raise ValueError("barrier overhead must be non-negative")

    def worker_time_s(self, freq_hz: float) -> float:
        """Time one worker needs for its inter-barrier work."""
        if freq_hz <= 0:
            raise ValueError("frequency must be positive")
        rate = self.worker.ipc_at(freq_hz) * freq_hz
        return self.instructions_per_barrier / rate

    def iteration_time_s(self, freqs_hz: Sequence[float]) -> float:
        """Barrier-to-barrier time: the slowest worker plus overhead."""
        freqs = np.asarray(freqs_hz, dtype=float)
        if freqs.size != self.n_threads:
            raise ValueError("need one frequency per worker")
        worst = max(self.worker_time_s(float(f)) for f in freqs)
        return worst + self.barrier_overhead_s

    def throughput_ips(self, freqs_hz: Sequence[float]) -> float:
        """Useful instructions per second across all workers."""
        total = self.n_threads * self.instructions_per_barrier
        return total / self.iteration_time_s(freqs_hz)

    def slack_fraction(self, freqs_hz: Sequence[float]) -> float:
        """Fraction of worker-time wasted waiting at barriers.

        Zero when every worker is equally fast — the quantity a
        barrier-aware DVFS policy drives toward zero.
        """
        freqs = np.asarray(freqs_hz, dtype=float)
        times = np.array([self.worker_time_s(float(f)) for f in freqs])
        worst = times.max()
        if worst <= 0:
            return 0.0
        return float(np.mean((worst - times) / worst))
