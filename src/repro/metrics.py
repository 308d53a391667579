"""One counter-and-latency registry for the program's own operations.

The daemon's transport counters, the sharded runner's recovery
actions and the characterisation cache's hit/miss counters are all a
:class:`Metrics`: a fixed set of declared integer counters plus
per-name latency summaries. A snapshot always carries every declared
counter, so its shape is stable from the first call.

Latencies follow one rule: ``count``, ``total_s`` and ``max_s`` cover
every sample ever observed, while ``p50_s``/``p99_s`` cover the most
recent :data:`RESERVOIR` samples. Thread-safe with one lock: the
daemon increments from its asyncio loop thread while controller work
runs in executor threads.
"""

from __future__ import annotations

import threading
from collections import deque
from typing import Deque, Dict, Iterable

import numpy as np

#: Samples kept per latency name for the recent-window percentiles.
RESERVOIR = 1024


class _Latency:
    """All-sample totals plus a bounded window of recent samples."""

    __slots__ = ("count", "total_s", "max_s", "window")

    def __init__(self) -> None:
        self.count = 0
        self.total_s = 0.0
        self.max_s = 0.0
        self.window: Deque[float] = deque(maxlen=RESERVOIR)


class Metrics:
    """Thread-safe declared counters and per-name latency summaries."""

    def __init__(self, counter_names: Iterable[str]) -> None:
        self._lock = threading.Lock()
        self._counters: Dict[str, int] = dict.fromkeys(counter_names, 0)
        self._latencies: Dict[str, _Latency] = {}

    def incr(self, name: str, n: int = 1) -> None:
        """Add ``n`` to a counter (the name must be declared)."""
        if name not in self._counters:
            raise KeyError(f"undeclared counter {name!r}")
        with self._lock:
            self._counters[name] += n

    def get(self, name: str) -> int:
        """Current value of one counter."""
        with self._lock:
            return self._counters[name]

    def observe(self, name: str, seconds: float) -> None:
        """Record one latency sample under ``name``."""
        seconds = float(seconds)
        with self._lock:
            latency = self._latencies.get(name)
            if latency is None:
                latency = self._latencies[name] = _Latency()
            latency.count += 1
            latency.total_s += seconds
            latency.max_s = max(latency.max_s, seconds)
            latency.window.append(seconds)

    def snapshot(self) -> Dict[str, Dict]:
        """``{"counters": {...}, "latency": {name: {count, total_s,
        max_s, p50_s, p99_s}}}``; a name appears under ``latency``
        once it has a sample."""
        with self._lock:
            counters = dict(self._counters)
            latencies = {name: (lat.count, lat.total_s, lat.max_s,
                                list(lat.window))
                         for name, lat in self._latencies.items()}
        summary: Dict[str, Dict[str, float]] = {}
        for name, (count, total_s, max_s, window) in latencies.items():
            summary[name] = {
                "count": count,
                "total_s": total_s,
                "max_s": max_s,
                "p50_s": float(np.percentile(window, 50)),
                "p99_s": float(np.percentile(window, 99)),
            }
        return {"counters": counters, "latency": summary}
