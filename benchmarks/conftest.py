"""Shared benchmark fixtures.

Each benchmark regenerates one paper figure/table, prints the same
rows/series the paper reports, and writes them to
``benchmarks/results/<name>.txt`` — plus a machine-readable
``BENCH_<name>.json`` (wall time, worker count, cache hit/miss
counters, key figure metrics) that the CI perf-regression gate
(``benchmarks/perf_gate.py``) compares against the committed
``benchmarks/baseline.json``. Run with::

    pytest benchmarks/ --benchmark-only -s

Set ``REPRO_FULL=1`` for the paper's full batch sizes (much slower).
"""

from __future__ import annotations

import json
import pathlib
from typing import Any, Dict, Optional

import pytest

from repro.experiments.common import ChipFactory
from repro.parallel import get_default_cache, get_run_health
from repro.report.serialize import to_jsonable
from repro.settings import settings

RESULTS_DIR = pathlib.Path(__file__).parent / "results"

# Flat cache and run-health counters marked at test start so each
# BENCH json reports the deltas of *its* test only.
_marks: Dict[str, Optional[Dict[str, float]]] = {}


@pytest.fixture(scope="session")
def factory() -> ChipFactory:
    return ChipFactory(seed=0)


@pytest.fixture(scope="session")
def results_dir() -> pathlib.Path:
    # parents + exist_ok: parallel pytest workers may race on creation.
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    return RESULTS_DIR


def _counters() -> Dict[str, Optional[Dict[str, float]]]:
    """The ``cache`` section (``None`` with the cache off) and the
    ``health`` section: the shard-health counters plus the total and
    maximum shard wall time."""
    cache = get_default_cache()
    health = get_run_health().snapshot()
    shard = health["latency"].get("shard", {})
    return {
        "cache": cache.snapshot() if cache is not None else None,
        "health": {**health["counters"],
                   "shard_wall_total_s": shard.get("total_s", 0.0),
                   "shard_wall_max_s": shard.get("max_s", 0.0)},
    }


@pytest.fixture(autouse=True)
def _mark_counters():
    """Mark the cache and run-health counters before every benchmark."""
    global _marks
    _marks = _counters()
    yield


def _counter_deltas() -> Dict[str, Optional[Dict[str, float]]]:
    """This test's cache and run-health deltas. The perf gate fails
    any clean benchmark whose ``health`` delta shows a serial-fallback
    activation: robustness machinery must be zero-cost on the happy
    path."""
    deltas: Dict[str, Optional[Dict[str, float]]] = {}
    for section, now in _counters().items():
        mark = _marks.get(section) or {}
        deltas[section] = (None if now is None else
                           {key: round(value - mark.get(key, 0), 9)
                            for key, value in now.items()})
    return deltas


def _wall_time_s(benchmark) -> Optional[float]:
    """Mean wall time of a pytest-benchmark run, if one happened."""
    stats = getattr(benchmark, "stats", None)
    if stats is None:
        return None
    inner = getattr(stats, "stats", stats)
    for attr in ("mean", "min"):
        value = getattr(inner, attr, None)
        if isinstance(value, (int, float)):
            return float(value)
    return None


def emit(results_dir: pathlib.Path, name: str, table: str,
         benchmark=None, metrics: Optional[Dict[str, Any]] = None,
         extra: Optional[Dict[str, Any]] = None) -> None:
    """Print a figure's rows and persist them for EXPERIMENTS.md.

    Alongside the human-readable table, writes ``BENCH_<name>.json``
    with the machine-readable record the CI perf gate consumes:
    wall time (from the ``benchmark`` fixture), the resolved worker
    count, this test's cache hit/miss/store deltas, and the key
    figure ``metrics``.
    """
    print(f"\n{table}\n")
    (results_dir / f"{name}.txt").write_text(table + "\n")
    record = {
        "name": name,
        "full_run": settings().full,
        "workers": settings().workers,
        "wall_time_s": _wall_time_s(benchmark),
        **_counter_deltas(),
        "metrics": to_jsonable(metrics or {}),
    }
    if extra:
        record.update(to_jsonable(extra))
    (results_dir / f"BENCH_{name}.json").write_text(
        json.dumps(record, indent=2, sort_keys=True) + "\n")
