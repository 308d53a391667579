"""Tests for :class:`repro.metrics.Metrics`, the one counter-and-latency
registry behind the daemon's telemetry, the sharded runner's health
record and the characterisation cache's counters."""

from __future__ import annotations

import threading

import numpy as np
import pytest

from repro.daemon import COUNTER_FIELDS
from repro.metrics import RESERVOIR, Metrics


class TestMetrics:
    def test_counters(self):
        metrics = Metrics(COUNTER_FIELDS)
        metrics.incr("frames_in")
        metrics.incr("frames_in", 2)
        assert metrics.get("frames_in") == 3
        with pytest.raises(KeyError):
            metrics.incr("made_up_counter")

    def test_latency_percentiles(self):
        metrics = Metrics(COUNTER_FIELDS)
        for ms in range(1, 101):
            metrics.observe("advance", ms / 1000.0)
        snap = metrics.snapshot()
        stats = snap["latency"]["advance"]
        assert stats["count"] == 100
        assert 0.045 <= stats["p50_s"] <= 0.055
        assert stats["p99_s"] <= stats["max_s"] == 0.1
        assert "unseen" not in snap["latency"]

    def test_snapshot_has_stable_shape(self):
        snap = Metrics(COUNTER_FIELDS).snapshot()
        assert snap["counters"] == dict.fromkeys(COUNTER_FIELDS, 0)
        assert snap["latency"] == {}

    def test_percentiles_cover_the_recent_window_totals_every_sample(
            self):
        samples = np.random.default_rng(7).exponential(0.01, 2000)
        samples[10] = 1.0  # the maximum falls out of the window
        metrics = Metrics(())
        for seconds in samples:
            metrics.observe("advance", seconds)
        stats = metrics.snapshot()["latency"]["advance"]
        recent = samples[-RESERVOIR:]
        assert stats["p50_s"] == float(np.percentile(recent, 50))
        assert stats["p99_s"] == float(np.percentile(recent, 99))
        assert stats["count"] == 2000
        assert stats["total_s"] == pytest.approx(samples.sum(),
                                                 rel=1e-12)
        assert stats["max_s"] == 1.0 > recent.max()

    def test_concurrent_incr_sums_exactly(self):
        metrics = Metrics(("hits",))
        start = threading.Barrier(4)

        def work():
            start.wait()
            for _ in range(5000):
                metrics.incr("hits")

        threads = [threading.Thread(target=work) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert metrics.get("hits") == 20000
