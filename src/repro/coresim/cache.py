"""Set-associative cache simulator (Table 4 hierarchy).

A functional (hit/miss) cache model with true LRU replacement, used by
the trace-driven core simulator: private 2-way 16 KB L1 instruction
and data caches backed by a shared 8-way 8 MB L2, 64-byte lines
throughout — the paper's memory hierarchy.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

# Table 4: 64-byte lines everywhere.
LINE_BYTES = 64


@dataclass
class CacheStats:
    """Access counters of one cache."""

    accesses: int = 0
    misses: int = 0

    @property
    def hits(self) -> int:
        return self.accesses - self.misses


class Cache:
    """One set-associative cache level with LRU replacement."""

    def __init__(self, size_bytes: int, associativity: int,
                 line_bytes: int = LINE_BYTES,
                 name: str = "cache") -> None:
        if size_bytes <= 0 or associativity <= 0 or line_bytes <= 0:
            raise ValueError("cache geometry must be positive")
        n_lines = size_bytes // line_bytes
        if n_lines % associativity != 0:
            raise ValueError("lines must divide evenly into sets")
        self.name = name
        self.line_bytes = line_bytes
        self.associativity = associativity
        self.n_sets = n_lines // associativity
        if self.n_sets == 0:
            raise ValueError("cache smaller than one set")
        # Per set: list of tags, most recently used last.
        self._sets: List[List[int]] = [[] for _ in range(self.n_sets)]
        self.stats = CacheStats()

    def install(self, address: int) -> None:
        """Allocate a line without counting an access (prefetch)."""
        line = address // self.line_bytes
        set_index = line % self.n_sets
        tag = line // self.n_sets
        ways = self._sets[set_index]
        if tag in ways:
            ways.remove(tag)
        ways.append(tag)
        if len(ways) > self.associativity:
            ways.pop(0)

    def access(self, address: int) -> bool:
        """Access a byte address; returns True on hit.

        Misses allocate the line (write-allocate, no distinction
        between loads and stores at this fidelity).
        """
        if address < 0:
            raise ValueError("addresses are non-negative")
        line = address // self.line_bytes
        set_index = line % self.n_sets
        tag = line // self.n_sets
        ways = self._sets[set_index]
        self.stats.accesses += 1
        if tag in ways:
            ways.remove(tag)
            ways.append(tag)
            return True
        self.stats.misses += 1
        ways.append(tag)
        if len(ways) > self.associativity:
            ways.pop(0)  # evict LRU
        return False

    def flush(self) -> None:
        """Invalidate every line (keeps statistics)."""
        self._sets = [[] for _ in range(self.n_sets)]


@dataclass
class HierarchyStats:
    """Combined statistics of one core's cache hierarchy."""

    l1i: CacheStats
    l1d: CacheStats
    l2: CacheStats


class CacheHierarchy:
    """Private L1I/L1D over a (modelled-private slice of) shared L2.

    Geometry defaults follow Table 4: 16 KB 2-way L1s, 8 MB 8-way L2.
    The L2 is physically shared in the paper; for single-thread
    profiling each thread sees an equal slice.
    """

    def __init__(self, l1_size: int = 16 * 1024, l1_assoc: int = 2,
                 l2_size: int = 512 * 1024,
                 l2_assoc: int = 8,
                 next_line_prefetch: bool = True) -> None:
        self.l1i = Cache(l1_size, l1_assoc, name="l1i")
        self.l1d = Cache(l1_size, l1_assoc, name="l1d")
        self.l2 = Cache(l2_size, l2_assoc, name="l2")
        self.next_line_prefetch = next_line_prefetch

    def fetch(self, pc: int) -> str:
        """Instruction fetch: 'l1' hit, 'l2' hit or 'mem' miss."""
        if self.l1i.access(pc):
            return "l1"
        return "l2" if self.l2.access(pc) else "mem"

    def data_access(self, address: int) -> str:
        """Data access: 'l1' hit, 'l2' hit or 'mem' miss.

        The (optional) tagged next-line prefetcher installs the
        following line into L2 on every L1 miss, so streaming access
        patterns take one memory stall per stream start rather than
        one per line.
        """
        if self.l1d.access(address):
            return "l1"
        if self.next_line_prefetch:
            self.l2.install(address + LINE_BYTES)
        return "l2" if self.l2.access(address) else "mem"

    def stats(self) -> HierarchyStats:
        return HierarchyStats(l1i=self.l1i.stats, l1d=self.l1d.stats,
                              l2=self.l2.stats)
