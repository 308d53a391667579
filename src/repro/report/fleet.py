"""Terminal rendering of fleet-campaign summaries.

A campaign's ``summary.json`` carries online statistics only — the
per-die values live in the shards — so rendering works from counts,
moments, quantiles and binned histograms, never from raw arrays.
"""

from __future__ import annotations

from typing import Any, Dict

from .ascii import binned_histogram_chart

__all__ = ["fleet_summary_table"]


def _fmt(v: Any) -> str:
    if v is None:
        return "-"
    if isinstance(v, float):
        return f"{v:.4f}"
    return str(v)


def fleet_summary_table(summary: Dict[str, Any]) -> str:
    """Render a campaign summary (the ``summary.json`` payload)."""
    plan = summary.get("plan", {})
    lines = []
    if plan:
        lines.append(
            f"fleet campaign {plan.get('name', '?')!r}: "
            f"{plan.get('n_dies', '?')} dies "
            f"(seed {plan.get('seed', '?')}, "
            f"chunk {plan.get('chunk_dies', '?')}, "
            f"start {plan.get('start', 0)})")
        arch = plan.get("arch", {})
        if arch:
            lines.append(
                f"arch: {arch.get('n_cores', '?')} cores, "
                f"{arch.get('die_area_mm2', '?')} mm^2, "
                f"grid {arch.get('grid_resolution', '?')}")
        lines.append("")
    metrics = summary.get("metrics", {})
    header = ["metric", "count", "mean", "std", "min", "p05", "p50",
              "p95", "max"]
    rows = []
    for name in sorted(metrics):
        m = metrics[name]
        q = m.get("quantiles", {})
        rows.append([name, str(m.get("count", 0)), _fmt(m.get("mean")),
                     _fmt(m.get("std")), _fmt(m.get("min")),
                     _fmt(q.get("p05")), _fmt(q.get("p50")),
                     _fmt(q.get("p95")), _fmt(m.get("max"))])
    widths = [max(len(header[c]), *(len(r[c]) for r in rows))
              if rows else len(header[c]) for c in range(len(header))]
    lines.append("  ".join(h.ljust(w) for h, w in zip(header, widths)))
    lines.append("  ".join("-" * w for w in widths))
    for r in rows:
        lines.append("  ".join(v.ljust(w) for v, w in zip(r, widths)))
    for name in sorted(metrics):
        hist = metrics[name].get("histogram")
        if not hist or not sum(hist["counts"]):
            continue
        n_bins = len(hist["counts"])
        edges = [hist["lo"] + (hist["hi"] - hist["lo"]) * i / n_bins
                 for i in range(n_bins + 1)]
        lines.append("")
        lines.append(binned_histogram_chart(
            edges, hist["counts"],
            title=f"{name} distribution",
            underflow=hist.get("underflow", 0),
            overflow=hist.get("overflow", 0)))
    return "\n".join(lines)
