#!/usr/bin/env python3
"""CI perf-regression gate over the machine-readable benchmark records.

Every benchmark writes ``benchmarks/results/BENCH_<name>.json`` (see
``benchmarks/conftest.py::emit``).  This stdlib-only script compares
those records against the committed ``benchmarks/baseline.json``:

* ``check`` — fail (exit 1) when a baselined benchmark is missing,
  when its wall time regresses more than ``--max-regression`` (30 %
  by default; walls under the noise floor are skipped), when a
  deterministic figure metric drifts beyond ``--rtol``, or when the
  record's delta of the shard-health record shows a serial-fallback
  activation (the fault-tolerant runner must stay zero-cost on the
  happy path);
* ``update`` — regenerate the baseline from the current records
  (run ``make bench-baseline``; commit the result).

Timing-derived metrics (keys ending in ``_s``, ``speedup_*``,
``available_workers``) are machine-dependent and never checked for
drift.  A record may however declare hard **floors** for such metrics
(a top-level ``"floors": {metric: minimum}`` mapping, emitted through
``emit(extra=...)`` so ``update`` carries it into the baseline):
``check`` fails when a floored metric is missing or below its floor —
this is how speedup guarantees (e.g. warm-started LP re-solves) stay
enforced without pinning machine-dependent absolute times.  Records taken at a different ``REPRO_FULL`` setting than the
baseline are skipped, not compared.  Escape hatches:
``PERF_GATE_SKIP_WALL=1`` disables the wall-time check (e.g. on
heavily loaded or exotic runners).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import pathlib
import sys
from typing import Any, Dict, List

HERE = pathlib.Path(__file__).parent
DEFAULT_RESULTS = HERE / "results"
DEFAULT_BASELINE = HERE / "baseline.json"

# Walls shorter than this are dominated by interpreter/IO jitter; a
# 30 % check on a 50 ms benchmark only produces noise.
WALL_FLOOR_S = 0.2

VOLATILE_KEYS = ("available_workers",)
VOLATILE_SUFFIXES = ("_s",)
VOLATILE_PREFIXES = ("speedup_",)


def is_volatile(key: str) -> bool:
    """Machine-dependent metrics exempt from the drift check."""
    return (key in VOLATILE_KEYS
            or key.endswith(VOLATILE_SUFFIXES)
            or key.startswith(VOLATILE_PREFIXES))


def load_records(results_dir: pathlib.Path) -> Dict[str, Dict[str, Any]]:
    """Load BENCH records, failing clearly on malformed files.

    A record that cannot be parsed or that lacks its ``name`` field
    is a broken emitter, not a perf regression — fail with the file
    name instead of surfacing a ``KeyError`` from deep inside the
    comparison.
    """
    records = {}
    for path in sorted(results_dir.glob("BENCH_*.json")):
        try:
            record = json.loads(path.read_text())
        except ValueError as exc:
            raise SystemExit(
                f"perf gate: {path.name} is not valid JSON ({exc})")
        name = record.get("name") if isinstance(record, dict) else None
        if not isinstance(name, str) or not name:
            raise SystemExit(
                f"perf gate: {path.name} has no 'name' field — every "
                "BENCH record must name its benchmark (see "
                "benchmarks/conftest.py::emit)")
        records[name] = record
    return records


def close(a: Any, b: Any, rtol: float) -> bool:
    if isinstance(a, (int, float)) and isinstance(b, (int, float)):
        if math.isnan(a) or math.isnan(b):
            return math.isnan(a) and math.isnan(b)
        return math.isclose(a, b, rel_tol=rtol, abs_tol=1e-12)
    return a == b


def check(records: Dict[str, Dict[str, Any]],
          baseline: Dict[str, Dict[str, Any]],
          max_regression: float, rtol: float) -> int:
    failures: List[str] = []
    warnings: List[str] = []
    skip_wall = os.environ.get("PERF_GATE_SKIP_WALL", "") not in ("", "0")

    for name, base in sorted(baseline.items()):
        record = records.get(name)
        if record is None:
            failures.append(f"{name}: no BENCH_{name}.json in results "
                            "(benchmark removed or did not run)")
            continue
        if record.get("full_run") != base.get("full_run"):
            warnings.append(f"{name}: REPRO_FULL mismatch vs baseline; "
                            "skipped")
            continue

        base_wall = base.get("wall_time_s")
        wall = record.get("wall_time_s")
        if (not skip_wall and isinstance(base_wall, (int, float))
                and isinstance(wall, (int, float))
                and base_wall >= WALL_FLOOR_S):
            limit = base_wall * (1.0 + max_regression)
            if wall > limit:
                failures.append(
                    f"{name}: wall time {wall:.3f}s exceeds "
                    f"{base_wall:.3f}s baseline by more than "
                    f"{max_regression:.0%} (limit {limit:.3f}s)")

        health = record.get("health") or {}
        # Robustness machinery must be zero-cost on the happy path: a
        # clean benchmark run that needed the serial fallback means a
        # worker died or hung under normal conditions — fail loudly.
        fallback = (health.get("serial_fallback_shards", 0)
                    or health.get("serial_fallback_items", 0))
        if fallback:
            failures.append(
                f"{name}: shard-health record reports serial-fallback "
                f"activation in a clean benchmark run ({health})")
        for key in ("retries", "timeouts", "broken_pools",
                    "narrowed_shards"):
            if health.get(key, 0):
                warnings.append(f"{name}: shard-health record {key}="
                                f"{health[key]} in a clean run")

        base_metrics = base.get("metrics", {})
        metrics = record.get("metrics", {})
        for key, expected in sorted(base_metrics.items()):
            if is_volatile(key):
                continue
            if key not in metrics:
                failures.append(f"{name}: metric {key!r} missing "
                                "(was in baseline)")
            elif not close(metrics[key], expected, rtol):
                failures.append(
                    f"{name}: metric {key!r} drifted: "
                    f"{metrics[key]!r} vs baseline {expected!r} "
                    f"(rtol {rtol:g})")
        for key in sorted(set(metrics) - set(base_metrics)):
            if not is_volatile(key):
                warnings.append(f"{name}: new metric {key!r} not in "
                                "baseline (refresh with 'make "
                                "bench-baseline')")

        # Hard floors: volatile metrics are exempt from the drift
        # check above, but a declared floor is still enforced.
        floors = base.get("floors") or record.get("floors") or {}
        for key, floor in sorted(floors.items()):
            value = metrics.get(key)
            if not isinstance(value, (int, float)):
                failures.append(
                    f"{name}: floored metric {key!r} missing from "
                    "record")
            elif value < floor:
                failures.append(
                    f"{name}: metric {key!r} = {value:.3f} below "
                    f"declared floor {floor:g}")

    for name in sorted(set(records) - set(baseline)):
        warnings.append(f"{name}: not in baseline (refresh with "
                        "'make bench-baseline')")
        # A brand-new benchmark has no baseline entry yet, but floors
        # it declares about itself are still promises — enforce them
        # so a new perf guarantee cannot silently regress in the PR
        # that introduces it.
        record = records[name]
        metrics = record.get("metrics", {})
        for key, floor in sorted((record.get("floors") or {}).items()):
            value = metrics.get(key)
            if not isinstance(value, (int, float)):
                failures.append(
                    f"{name}: floored metric {key!r} missing from "
                    "record (the record declares a floor for a metric "
                    "it does not emit)")
            elif value < floor:
                failures.append(
                    f"{name}: metric {key!r} = {value:.3f} below "
                    f"declared floor {floor:g} (not yet baselined)")

    for line in warnings:
        print(f"WARN  {line}")
    for line in failures:
        print(f"FAIL  {line}")
    checked = len(set(baseline) & set(records))
    print(f"perf gate: {checked} benchmark(s) checked, "
          f"{len(failures)} failure(s), {len(warnings)} warning(s)")
    write_step_summary(records, baseline, failures, warnings, rtol)
    return 1 if failures else 0


def _fmt_num(v: Any) -> str:
    if isinstance(v, float):
        return f"{v:.6g}"
    return str(v)


def summary_markdown(records: Dict[str, Dict[str, Any]],
                     baseline: Dict[str, Dict[str, Any]],
                     failures: List[str], warnings: List[str],
                     rtol: float) -> str:
    """Markdown perf-gate report for ``$GITHUB_STEP_SUMMARY``.

    One overview table (wall delta, metric counts, floors status per
    benchmark) plus a collapsible per-metric delta table, so a
    regression is readable from the Actions run page without
    downloading artifacts. Every lookup uses ``.get`` — a record
    metric with no baseline counterpart renders as ``new``, never as
    a ``KeyError``.
    """
    checked = len(set(baseline) & set(records))
    lines = ["## Perf gate", ""]
    lines.append(f"**{'FAIL' if failures else 'PASS'}** — {checked} "
                 f"benchmark(s) checked, {len(failures)} failure(s), "
                 f"{len(warnings)} warning(s)")
    lines.append("")
    if failures:
        lines.append("### Failures")
        lines.extend(f"- {f}" for f in failures)
        lines.append("")

    lines.append("| benchmark | wall (base → now) | Δ wall | metrics "
                 "| floors |")
    lines.append("|---|---|---|---|---|")
    detail_rows: List[str] = []
    for name in sorted(set(baseline) | set(records)):
        base = baseline.get(name)
        record = records.get(name)
        if record is None:
            lines.append(f"| {name} | — | — | missing record | — |")
            continue
        metrics = record.get("metrics", {}) or {}
        base_metrics = (base or {}).get("metrics", {}) or {}
        wall = record.get("wall_time_s")
        base_wall = (base or {}).get("wall_time_s")
        if isinstance(wall, (int, float)) and isinstance(
                base_wall, (int, float)) and base_wall > 0:
            wall_cell = f"{base_wall:.2f}s → {wall:.2f}s"
            delta_cell = f"{(wall - base_wall) / base_wall:+.0%}"
        elif isinstance(wall, (int, float)):
            wall_cell = f"new → {wall:.2f}s"
            delta_cell = "—"
        else:
            wall_cell = delta_cell = "—"

        drifted = new = 0
        for key in sorted(set(base_metrics) | set(metrics)):
            if is_volatile(key):
                continue
            expected = base_metrics.get(key)
            got = metrics.get(key)
            if key not in base_metrics:
                status = "new"
                new += 1
            elif key not in metrics:
                status = "MISSING"
                drifted += 1
            elif close(got, expected, rtol):
                status = "ok"
            else:
                status = "DRIFT"
                drifted += 1
            if status != "ok":
                detail_rows.append(
                    f"| {name} | {key} | "
                    f"{_fmt_num(expected) if expected is not None else '—'}"
                    f" | {_fmt_num(got) if got is not None else '—'} | "
                    f"{status} |")
        n_checked = sum(1 for k in base_metrics if not is_volatile(k))
        metric_cell = f"{n_checked} checked"
        if drifted:
            metric_cell += f", **{drifted} drifted**"
        if new:
            metric_cell += f", {new} new"

        floors = ((base or {}).get("floors")
                  or record.get("floors") or {})
        if floors:
            parts = []
            for key, floor in sorted(floors.items()):
                value = metrics.get(key)
                if isinstance(value, (int, float)):
                    mark = "✓" if value >= floor else "**✗**"
                    parts.append(f"{key} {_fmt_num(value)} ≥ "
                                 f"{_fmt_num(floor)} {mark}")
                else:
                    parts.append(f"{key} missing **✗**")
            floors_cell = "; ".join(parts)
        else:
            floors_cell = "—"
        tag = "" if base is not None else " (not baselined)"
        lines.append(f"| {name}{tag} | {wall_cell} | {delta_cell} | "
                     f"{metric_cell} | {floors_cell} |")
    lines.append("")

    if detail_rows:
        lines.append("<details><summary>Per-metric deltas "
                     "(non-ok only)</summary>")
        lines.append("")
        lines.append("| benchmark | metric | baseline | current | "
                     "status |")
        lines.append("|---|---|---|---|---|")
        lines.extend(detail_rows)
        lines.append("")
        lines.append("</details>")
        lines.append("")
    if warnings:
        lines.append("<details><summary>Warnings</summary>")
        lines.append("")
        lines.extend(f"- {w}" for w in warnings)
        lines.append("")
        lines.append("</details>")
        lines.append("")
    return "\n".join(lines)


def write_step_summary(records: Dict[str, Dict[str, Any]],
                       baseline: Dict[str, Dict[str, Any]],
                       failures: List[str], warnings: List[str],
                       rtol: float) -> None:
    """Append the markdown report to ``$GITHUB_STEP_SUMMARY`` if set."""
    path = os.environ.get("GITHUB_STEP_SUMMARY")
    if not path:
        return
    with open(path, "a", encoding="utf-8") as fh:
        fh.write(summary_markdown(records, baseline, failures,
                                  warnings, rtol) + "\n")


def update(records: Dict[str, Dict[str, Any]],
           baseline_path: pathlib.Path) -> int:
    if not records:
        print("perf gate: no BENCH_*.json records to baseline "
              "(run the benchmarks first)")
        return 1
    baseline_path.write_text(
        json.dumps(records, indent=2, sort_keys=True) + "\n")
    print(f"perf gate: baselined {len(records)} benchmark(s) "
          f"-> {baseline_path}")
    return 0


def main(argv: List[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("mode", choices=("check", "update"))
    parser.add_argument("--results", type=pathlib.Path,
                        default=DEFAULT_RESULTS,
                        help="directory holding BENCH_*.json records")
    parser.add_argument("--baseline", type=pathlib.Path,
                        default=DEFAULT_BASELINE,
                        help="committed baseline file")
    parser.add_argument("--max-regression", type=float, default=0.30,
                        help="allowed fractional wall-time regression")
    parser.add_argument("--rtol", type=float, default=1e-3,
                        help="relative tolerance for figure metrics")
    args = parser.parse_args(argv)

    records = load_records(args.results)
    if args.mode == "update":
        return update(records, args.baseline)
    if not args.baseline.exists():
        print(f"perf gate: baseline {args.baseline} missing "
              "(run 'make bench-baseline' and commit it)")
        return 1
    baseline = json.loads(args.baseline.read_text())
    return check(records, baseline, args.max_regression, args.rtol)


if __name__ == "__main__":
    sys.exit(main())
