"""Online statistics for fleets too large to hold in memory.

A 10^6-die campaign produces per-die metric streams that must never be
materialised as one array. Three estimators cover the fig04/fig05
analyses:

* :class:`RunningMoments` — count/mean/variance/min/max in O(1) state
  (Welford update per batch);
* :class:`FleetHistogram` — fixed-bin counts over a declared range;
* :class:`P2Quantile` — the Jain & Chlamtac P-squared estimator: a
  single running quantile from five markers, no bins to declare.

:class:`FleetAccumulator` bundles all three per named metric and is
the unit the campaign driver feeds chunk by chunk, in die order, and
serialises into ``summary.json``. There is one stream per campaign:
hosts of a multi-host campaign are combined by replaying their
journaled columns into a fresh accumulator in die order
(:func:`repro.fleet.campaign.merge_campaigns`), which is what keeps a
merged ``summary.json`` byte-identical to a single-host run's. All
estimators reject NaN/inf on entry — a silent NaN would poison every
downstream mean.
"""

from __future__ import annotations

import math
from typing import Any, Dict, List, Sequence, Tuple, Union

import numpy as np

__all__ = [
    "FleetAccumulator",
    "FleetHistogram",
    "P2Quantile",
    "RunningMoments",
]

_Values = Union[float, Sequence[float], np.ndarray]


def _clean(values: _Values, what: str) -> np.ndarray:
    """Validate one batch of samples: finite floats only."""
    arr = np.atleast_1d(np.asarray(values, dtype=float))
    if arr.ndim != 1:
        raise ValueError(f"{what}: samples must be scalar or 1-D")
    if not np.isfinite(arr).all():
        bad = arr[~np.isfinite(arr)][0]
        raise ValueError(
            f"{what}: non-finite sample {bad!r} rejected — a NaN/inf "
            "entering an online estimator silently corrupts every "
            "statistic derived from it")
    return arr


class RunningMoments:
    """Streaming count / mean / variance / min / max.

    Each batch's own mean and M2 fold into the running state with the
    Chan et al. pairwise formula. The floating mean/M2 depend on how
    the stream is cut into batches, so the campaign feeds one batch
    per chunk, in die order, on every path that writes a summary.
    """

    __slots__ = ("count", "mean", "_m2", "min", "max")

    def __init__(self) -> None:
        self.count = 0
        self.mean = 0.0
        self._m2 = 0.0
        self.min = math.inf
        self.max = -math.inf

    def add(self, values: _Values) -> None:
        arr = _clean(values, "RunningMoments.add")
        if arr.size == 0:
            return
        n_b = int(arr.size)
        mean_b = float(arr.mean())
        m2_b = float(((arr - mean_b) ** 2).sum())
        self._combine(n_b, mean_b, m2_b,
                      float(arr.min()), float(arr.max()))

    def _combine(self, n_b: int, mean_b: float, m2_b: float,
                 min_b: float, max_b: float) -> None:
        n_a = self.count
        n = n_a + n_b
        delta = mean_b - self.mean
        self.mean += delta * n_b / n
        self._m2 += m2_b + delta * delta * n_a * n_b / n
        self.count = n
        self.min = min(self.min, min_b)
        self.max = max(self.max, max_b)

    @property
    def variance(self) -> float:
        """Population variance (the fleet IS the population)."""
        return self._m2 / self.count if self.count else math.nan

    @property
    def std(self) -> float:
        return math.sqrt(self.variance) if self.count else math.nan


class P2Quantile:
    """Jain & Chlamtac's P-squared single-quantile estimator.

    Five markers track the running ``p``-quantile with piecewise-
    parabolic height adjustment — O(1) state, no bins to declare.
    Exact for the first five samples; an approximation after. Marker
    state is nonlinear in the sample stream, so the estimate depends
    on sample order: a campaign's quantiles are those of its dies
    streamed in die order.
    """

    __slots__ = ("p", "_heights", "_pos", "_desired", "_incr", "_n")

    def __init__(self, p: float) -> None:
        if not 0.0 < p < 1.0:
            raise ValueError("quantile must be in (0, 1)")
        self.p = float(p)
        self._heights: List[float] = []
        self._pos = [1.0, 2.0, 3.0, 4.0, 5.0]
        self._desired = [1.0, 1.0 + 2.0 * p, 1.0 + 4.0 * p,
                         3.0 + 2.0 * p, 5.0]
        self._incr = [0.0, p / 2.0, p, (1.0 + p) / 2.0, 1.0]
        self._n = 0

    @property
    def count(self) -> int:
        return self._n

    def add(self, values: _Values) -> None:
        for x in _clean(values, "P2Quantile.add").tolist():
            self._add_one(x)

    def _add_one(self, x: float) -> None:
        self._n += 1
        h = self._heights
        if len(h) < 5:
            h.append(x)
            h.sort()
            return
        if x < h[0]:
            h[0] = x
            k = 0
        elif x >= h[4]:
            h[4] = x
            k = 3
        else:
            k = 0
            while x >= h[k + 1]:
                k += 1
        for i in range(k + 1, 5):
            self._pos[i] += 1.0
        for i in range(5):
            self._desired[i] += self._incr[i]
        for i in (1, 2, 3):
            d = self._desired[i] - self._pos[i]
            if ((d >= 1.0 and self._pos[i + 1] - self._pos[i] > 1.0)
                    or (d <= -1.0
                        and self._pos[i - 1] - self._pos[i] < -1.0)):
                sign = 1.0 if d >= 1.0 else -1.0
                cand = self._parabolic(i, sign)
                if h[i - 1] < cand < h[i + 1]:
                    h[i] = cand
                else:
                    h[i] = self._linear(i, sign)
                self._pos[i] += sign

    def _parabolic(self, i: int, sign: float) -> float:
        q, n = self._heights, self._pos
        return q[i] + sign / (n[i + 1] - n[i - 1]) * (
            (n[i] - n[i - 1] + sign) * (q[i + 1] - q[i])
            / (n[i + 1] - n[i])
            + (n[i + 1] - n[i] - sign) * (q[i] - q[i - 1])
            / (n[i] - n[i - 1]))

    def _linear(self, i: int, sign: float) -> float:
        q, n = self._heights, self._pos
        j = i + int(sign)
        return q[i] + sign * (q[j] - q[i]) / (n[j] - n[i])

    @property
    def value(self) -> float:
        """Current quantile estimate (NaN before any sample)."""
        if self._n == 0:
            return math.nan
        if self._n <= 5 or len(self._heights) < 5:
            h = sorted(self._heights)
            # Exact small-sample quantile (linear interpolation).
            idx = self.p * (len(h) - 1)
            lo = int(math.floor(idx))
            hi = min(lo + 1, len(h) - 1)
            return h[lo] + (idx - lo) * (h[hi] - h[lo])
        return self._heights[2]


#: Equal-width bins of every fleet histogram.
N_BINS = 64


class FleetHistogram:
    """Fixed-bin histogram of a declared range.

    :data:`N_BINS` equal bins over ``[lo, hi)``; samples outside the
    declared range land in dedicated underflow/overflow counters (they
    are *counted*, never dropped — a fleet tail that escapes the
    declared range must still show up in the totals).
    """

    __slots__ = ("lo", "hi", "counts", "underflow", "overflow")

    def __init__(self, lo: float, hi: float) -> None:
        if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi):
            raise ValueError("need finite lo < hi")
        self.lo = float(lo)
        self.hi = float(hi)
        self.counts = np.zeros(N_BINS, dtype=np.int64)
        self.underflow = 0
        self.overflow = 0

    def add(self, values: _Values) -> None:
        arr = _clean(values, "FleetHistogram.add")
        if arr.size == 0:
            return
        width = (self.hi - self.lo) / N_BINS
        idx = np.floor((arr - self.lo) / width).astype(np.int64)
        self.underflow += int((idx < 0).sum())
        self.overflow += int((idx >= N_BINS).sum())
        inside = idx[(idx >= 0) & (idx < N_BINS)]
        np.add.at(self.counts, inside, 1)

    def to_dict(self) -> Dict[str, Any]:
        return {"lo": self.lo, "hi": self.hi,
                "counts": [int(c) for c in self.counts],
                "underflow": self.underflow, "overflow": self.overflow}


#: Running quantiles tracked per metric (P² streams).
DEFAULT_QUANTILES = (0.05, 0.5, 0.95)


class FleetAccumulator:
    """Per-metric online statistics bundle for one campaign.

    One :class:`RunningMoments` + :class:`FleetHistogram` + one
    :class:`P2Quantile` stream per :data:`DEFAULT_QUANTILES` entry,
    per named metric. The histogram range is declared up front per
    metric (``spec`` maps name to ``(lo, hi)``); out-of-range dies
    are counted in the histogram's under/overflow.
    """

    def __init__(self, spec: Dict[str, tuple]) -> None:
        self.spec = {k: (float(lo), float(hi))
                     for k, (lo, hi) in spec.items()}
        self.moments = {k: RunningMoments() for k in self.spec}
        self.hists = {k: FleetHistogram(lo, hi)
                      for k, (lo, hi) in self.spec.items()}
        self.p2: Dict[str, Tuple[P2Quantile, ...]] = {
            k: tuple(P2Quantile(p) for p in DEFAULT_QUANTILES)
            for k in self.spec}

    def add(self, metric: str, values: _Values) -> None:
        """Fold a batch of per-die samples into one metric's stats."""
        arr = _clean(values, f"FleetAccumulator.add({metric!r})")
        self.moments[metric].add(arr)
        self.hists[metric].add(arr)
        for est in self.p2[metric]:
            est.add(arr)

    def add_dies(self, columns: Dict[str, _Values]) -> None:
        """Fold one chunk's columnar results (all metrics at once)."""
        for metric, values in columns.items():
            if metric in self.spec:
                self.add(metric, values)

    def summary(self) -> Dict[str, Any]:
        """JSON-ready statistics per metric (deterministic layout).

        A metric with no samples gets no quantiles."""
        out: Dict[str, Any] = {}
        for k in sorted(self.spec):
            mom = self.moments[k]
            quants = {f"p{int(round(est.p * 100)):02d}": est.value
                      for est in self.p2[k] if est.count}
            out[k] = {
                "count": mom.count,
                "mean": mom.mean,
                "std": mom.std if mom.count else None,
                "min": mom.min if mom.count else None,
                "max": mom.max if mom.count else None,
                "quantiles": quants,
                "histogram": self.hists[k].to_dict(),
            }
        return out
