"""Online statistics for fleets too large to hold in memory.

A 10^6-die campaign produces per-die metric streams that must never be
materialised as one array. Three estimators cover the fig04/fig05
analyses:

* :class:`RunningMoments` — count/mean/variance/min/max in O(1) state
  (Welford update, Chan et al. parallel merge);
* :class:`FleetHistogram` — fixed-bin counts over a declared range.
  Integer count addition is exact, so shard merges are *exactly
  associative* — the property multi-host campaigns rely on — and
  quantiles interpolated from the bins converge as bins narrow;
* :class:`P2Quantile` — the Jain & Chlamtac P-squared estimator: a
  single running quantile from five markers, no bins to declare.
  Markers are nonlinear state, so P² streams do **not** merge across
  shards; it serves single-stream dashboards, while cross-host
  quantiles come from merged histograms.

:class:`FleetAccumulator` bundles all three per named metric and is
the unit the campaign driver updates per chunk and serialises into
``summary.json``. All estimators reject NaN/inf on entry — a silent
NaN would poison every downstream mean — and round-trip exactly
through ``to_dict``/``from_dict`` (JSON floats are repr-exact).
"""

from __future__ import annotations

import math
from typing import Any, Dict, Iterable, List, Sequence, Union

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

    Welford's update per batch; :meth:`merge` uses the Chan et al.
    pairwise combination. Counts, min and max merge exactly; the
    floating mean/M2 merge is algebraically exact but (like any
    float sum) not bitwise-associative across groupings — campaign
    summaries therefore treat merged means as tolerance-compared,
    while counts/min/max/histograms are compared exactly.
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

    def merge(self, other: "RunningMoments") -> None:
        if other.count == 0:
            return
        self._combine(other.count, other.mean, other._m2,
                      other.min, other.max)

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

    def to_dict(self) -> Dict[str, Any]:
        return {"count": self.count, "mean": self.mean, "m2": self._m2,
                "min": self.min if self.count else None,
                "max": self.max if self.count else None}

    @classmethod
    def from_dict(cls, d: Dict[str, Any]) -> "RunningMoments":
        out = cls()
        out.count = int(d["count"])
        out.mean = float(d["mean"])
        out._m2 = float(d["m2"])
        out.min = math.inf if d["min"] is None else float(d["min"])
        out.max = -math.inf if d["max"] is None else float(d["max"])
        return out


class P2Quantile:
    """Jain & Chlamtac's P-squared single-quantile estimator.

    Five markers track the running ``p``-quantile with piecewise-
    parabolic height adjustment — O(1) state, no bins to declare.
    Exact for the first five samples; an approximation after. Marker
    state is nonlinear in the sample stream, so two P² estimators
    cannot be merged — use :class:`FleetHistogram` for anything that
    must combine across shards or hosts.
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

    def to_dict(self) -> Dict[str, Any]:
        return {"p": self.p, "n": self._n, "heights": list(self._heights),
                "pos": list(self._pos), "desired": list(self._desired)}

    @classmethod
    def from_dict(cls, d: Dict[str, Any]) -> "P2Quantile":
        out = cls(float(d["p"]))
        out._n = int(d["n"])
        out._heights = [float(x) for x in d["heights"]]
        out._pos = [float(x) for x in d["pos"]]
        out._desired = [float(x) for x in d["desired"]]
        return out


class FleetHistogram:
    """Fixed-bin histogram with exact, associative merge.

    ``n_bins`` equal bins over ``[lo, hi)``; samples outside the
    declared range land in dedicated underflow/overflow counters (they
    are *counted*, never dropped — a fleet tail that escapes the
    declared range must still show up in the totals). All state is
    int64 counts, so :meth:`merge` is exact integer addition and
    therefore associative and commutative across any shard grouping —
    the invariant the multi-host merge tests pin down.
    """

    __slots__ = ("lo", "hi", "counts", "underflow", "overflow")

    def __init__(self, lo: float, hi: float, n_bins: int = 64) -> None:
        if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi):
            raise ValueError("need finite lo < hi")
        if n_bins < 1:
            raise ValueError("need at least one bin")
        self.lo = float(lo)
        self.hi = float(hi)
        self.counts = np.zeros(int(n_bins), dtype=np.int64)
        self.underflow = 0
        self.overflow = 0

    @property
    def n_bins(self) -> int:
        return int(self.counts.size)

    @property
    def count(self) -> int:
        return int(self.counts.sum()) + self.underflow + self.overflow

    @property
    def edges(self) -> np.ndarray:
        return np.linspace(self.lo, self.hi, self.n_bins + 1)

    def add(self, values: _Values) -> None:
        arr = _clean(values, "FleetHistogram.add")
        if arr.size == 0:
            return
        width = (self.hi - self.lo) / self.n_bins
        idx = np.floor((arr - self.lo) / width).astype(np.int64)
        self.underflow += int((idx < 0).sum())
        self.overflow += int((idx >= self.n_bins).sum())
        inside = idx[(idx >= 0) & (idx < self.n_bins)]
        np.add.at(self.counts, inside, 1)

    def merge(self, other: "FleetHistogram") -> None:
        if (other.lo, other.hi, other.n_bins) != (self.lo, self.hi,
                                                  self.n_bins):
            raise ValueError("cannot merge histograms with different "
                             "bin layouts")
        self.counts += other.counts
        self.underflow += other.underflow
        self.overflow += other.overflow

    def quantile(self, q: float) -> float:
        """Quantile interpolated within the containing bin.

        Error is bounded by one bin width; exact in the limit of
        narrow bins. Requires the mass to be inside ``[lo, hi)`` —
        raises if the requested quantile falls in under/overflow,
        where no positional information exists.
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError("quantile must be in [0, 1]")
        total = self.count
        if total == 0:
            return math.nan
        target = q * total
        if target <= self.underflow and self.underflow:
            raise ValueError(f"q={q} falls in the underflow mass — "
                             "widen the histogram range")
        run = float(self.underflow)
        for i, c in enumerate(self.counts.tolist()):
            if run + c >= target:
                frac = (target - run) / c if c else 0.0
                width = (self.hi - self.lo) / self.n_bins
                return self.lo + (i + frac) * width
            run += c
        raise ValueError(f"q={q} falls in the overflow mass — "
                         "widen the histogram range")

    def to_dict(self) -> Dict[str, Any]:
        return {"lo": self.lo, "hi": self.hi,
                "counts": [int(c) for c in self.counts],
                "underflow": self.underflow, "overflow": self.overflow}

    @classmethod
    def from_dict(cls, d: Dict[str, Any]) -> "FleetHistogram":
        out = cls(float(d["lo"]), float(d["hi"]), len(d["counts"]))
        out.counts = np.asarray(d["counts"], dtype=np.int64)
        out.underflow = int(d["underflow"])
        out.overflow = int(d["overflow"])
        return out


#: Default running quantiles tracked per metric (P² streams).
DEFAULT_QUANTILES = (0.05, 0.5, 0.95)


class FleetAccumulator:
    """Per-metric online statistics bundle for one campaign.

    One :class:`RunningMoments` + :class:`FleetHistogram` + a set of
    :class:`P2Quantile` streams per named metric. The histogram range
    is declared up front per metric (``spec`` maps name to
    ``(lo, hi)``); out-of-range dies are counted in the histogram's
    under/overflow. :meth:`merge` combines moments and histograms —
    both well-defined across shards/hosts — and *drops* the P²
    streams (unmergeable by construction); merged quantiles are read
    from the merged histograms instead via :meth:`summary`.
    """

    def __init__(self, spec: Dict[str, tuple], n_bins: int = 64,
                 quantiles: Iterable[float] = DEFAULT_QUANTILES) -> None:
        self.spec = {k: (float(lo), float(hi))
                     for k, (lo, hi) in spec.items()}
        self.n_bins = int(n_bins)
        self.quantile_ps = tuple(quantiles)
        self.moments = {k: RunningMoments() for k in self.spec}
        self.hists = {k: FleetHistogram(lo, hi, n_bins)
                      for k, (lo, hi) in self.spec.items()}
        self.p2: Dict[str, Dict[float, P2Quantile]] = {
            k: {p: P2Quantile(p) for p in self.quantile_ps}
            for k in self.spec}

    @property
    def metrics(self) -> List[str]:
        return list(self.spec)

    def add(self, metric: str, values: _Values) -> None:
        """Fold a batch of per-die samples into one metric's stats."""
        arr = _clean(values, f"FleetAccumulator.add({metric!r})")
        self.moments[metric].add(arr)
        self.hists[metric].add(arr)
        for est in self.p2[metric].values():
            est.add(arr)

    def add_dies(self, columns: Dict[str, _Values]) -> None:
        """Fold one chunk's columnar results (all metrics at once)."""
        for metric, values in columns.items():
            if metric in self.spec:
                self.add(metric, values)

    def merge(self, other: "FleetAccumulator") -> None:
        if other.spec != self.spec or other.n_bins != self.n_bins:
            raise ValueError("cannot merge accumulators with different "
                             "metric specs")
        for k in self.spec:
            self.moments[k].merge(other.moments[k])
            self.hists[k].merge(other.hists[k])
        # P² streams cannot absorb another stream's markers: merged
        # quantiles must come from the merged histograms.
        self.p2 = {k: {} for k in self.spec}

    def summary(self) -> Dict[str, Any]:
        """JSON-ready statistics per metric (deterministic layout)."""
        out: Dict[str, Any] = {}
        for k in sorted(self.spec):
            mom = self.moments[k]
            hist = self.hists[k]
            quants = {}
            for p in self.quantile_ps:
                est = self.p2[k].get(p)
                if est is not None and est.count:
                    quants[f"p{int(round(p * 100)):02d}"] = est.value
                elif hist.count:
                    try:
                        quants[f"p{int(round(p * 100)):02d}"] = (
                            hist.quantile(p))
                    except ValueError:
                        quants[f"p{int(round(p * 100)):02d}"] = None
            out[k] = {
                "count": mom.count,
                "mean": mom.mean,
                "std": mom.std if mom.count else None,
                "min": mom.min if mom.count else None,
                "max": mom.max if mom.count else None,
                "quantiles": quants,
                "histogram": hist.to_dict(),
            }
        return out

    def to_dict(self) -> Dict[str, Any]:
        return {
            "spec": {k: list(v) for k, v in self.spec.items()},
            "n_bins": self.n_bins,
            "quantile_ps": list(self.quantile_ps),
            "moments": {k: m.to_dict() for k, m in self.moments.items()},
            "hists": {k: h.to_dict() for k, h in self.hists.items()},
            "p2": {k: {str(p): est.to_dict()
                       for p, est in streams.items()}
                   for k, streams in self.p2.items()},
        }

    @classmethod
    def from_dict(cls, d: Dict[str, Any]) -> "FleetAccumulator":
        out = cls({k: tuple(v) for k, v in d["spec"].items()},
                  n_bins=int(d["n_bins"]),
                  quantiles=[float(p) for p in d["quantile_ps"]])
        out.moments = {k: RunningMoments.from_dict(m)
                       for k, m in d["moments"].items()}
        out.hists = {k: FleetHistogram.from_dict(h)
                     for k, h in d["hists"].items()}
        out.p2 = {k: {float(p): P2Quantile.from_dict(e)
                      for p, e in streams.items()}
                  for k, streams in d["p2"].items()}
        return out

