"""Multiprogrammed workload construction (Section 6.4).

Workloads contain 1..n_cores applications drawn from the SPEC pool,
each running on its own core. Each experiment is repeated over several
trials, each trial drawing a different application mix; results are
averaged across trials — mirroring the paper's 20 trials per point.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, List, Sequence, Tuple

import numpy as np

from .applications import SPEC_APPS, AppProfile


@dataclass(frozen=True)
class Workload:
    """One multiprogrammed workload: an ordered tuple of threads."""

    threads: Tuple[AppProfile, ...]

    def __post_init__(self) -> None:
        if not self.threads:
            raise ValueError("a workload needs at least one thread")

    @property
    def n_threads(self) -> int:
        return len(self.threads)

    def __iter__(self) -> Iterator[AppProfile]:
        return iter(self.threads)

    def __getitem__(self, i: int) -> AppProfile:
        return self.threads[i]


def make_workload(
    n_threads: int,
    rng: np.random.Generator,
    pool: Sequence[AppProfile] = SPEC_APPS,
) -> Workload:
    """Draw one workload of ``n_threads`` applications from a pool.

    Applications are drawn with replacement once the pool is exhausted
    (the paper runs up to 20 threads from a 14-application pool, so
    some duplication is inherent); below the pool size, draws are
    without replacement for diversity.
    """
    if n_threads <= 0:
        raise ValueError("n_threads must be positive")
    if not pool:
        raise ValueError("application pool is empty")
    picks: List[AppProfile] = []
    remaining = list(pool)
    for _ in range(n_threads):
        if not remaining:
            remaining = list(pool)
        idx = int(rng.integers(len(remaining)))
        picks.append(remaining.pop(idx))
    return Workload(threads=tuple(picks))
