"""Terminal-friendly chart rendering for experiment results.

The repository is terminal-first (no plotting dependencies), so the
figures the paper draws as bar/line charts are rendered as Unicode
block charts: grouped horizontal bars for the policy comparisons and a
down-sampled line chart for sweeps. Purely presentational — every
chart is built from the same result dataclasses the tables print.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

import numpy as np

from ..runtime.simulation import (
    DECISION_EMERGENCY,
    DECISION_MANAGER,
    ManagerDecision,
)

BAR_CHARS = " ▏▎▍▌▋▊▉█"
DEFAULT_WIDTH = 48
# Canvas columns and rows of a line chart.
LINE_CHART_WIDTH = 60
LINE_CHART_HEIGHT = 12
# Most rows a binned histogram coalesces its bins into.
HISTOGRAM_MAX_ROWS = 16


def _scaled_bar(value: float, vmax: float, width: int) -> str:
    """A horizontal bar of fractional-block characters."""
    if vmax <= 0:
        return ""
    fraction = max(min(value / vmax, 1.0), 0.0)
    cells = fraction * width
    full = int(cells)
    rem = cells - full
    partial = BAR_CHARS[int(rem * (len(BAR_CHARS) - 1))]
    return "█" * full + (partial if full < width else "")


def bar_chart(
    labels: Sequence[str],
    values: Sequence[float],
    title: str = "",
    width: int = DEFAULT_WIDTH,
    baseline: Optional[float] = None,
) -> str:
    """Horizontal bar chart.

    Args:
        labels: Row labels.
        values: One value per label.
        title: Optional heading.
        width: Bar width in characters at the maximum value.
        baseline: If given, a reference value marked on each row
            (useful for "relative to 1.0" figures).

    Returns:
        The rendered chart as a multi-line string.
    """
    if len(labels) != len(values):
        raise ValueError("labels and values must match")
    if not labels:
        raise ValueError("nothing to chart")
    if width < 8:
        raise ValueError("width too small")
    vmax = max(list(values) + ([baseline] if baseline else []))
    label_w = max(len(str(l)) for l in labels)
    lines: List[str] = []
    if title:
        lines.append(title)
    for label, value in zip(labels, values):
        bar = _scaled_bar(float(value), vmax, width)
        lines.append(f"{str(label):>{label_w}} | {bar} {value:.3f}")
    if baseline is not None and vmax > 0:
        mark = int(min(baseline / vmax, 1.0) * width)
        lines.append(" " * (label_w + 3) + " " * mark
                     + f"^ {baseline:g}")
    return "\n".join(lines)


def line_chart(
    xs: Sequence[float],
    series: Dict[str, Sequence[float]],
    title: str = "",
) -> str:
    """Down-sampled multi-series line chart on a character canvas."""
    if not series:
        raise ValueError("nothing to chart")
    xs = np.asarray(xs, dtype=float)
    for name, ys in series.items():
        if len(ys) != xs.size:
            raise ValueError(f"series {name!r} length mismatch")
    all_y = np.concatenate([np.asarray(ys, dtype=float)
                            for ys in series.values()])
    y_lo, y_hi = float(all_y.min()), float(all_y.max())
    if y_hi == y_lo:
        y_hi = y_lo + 1.0
    x_lo, x_hi = float(xs.min()), float(xs.max())
    if x_hi == x_lo:
        x_hi = x_lo + 1.0

    canvas = [[" "] * LINE_CHART_WIDTH for _ in range(LINE_CHART_HEIGHT)]
    markers = "ox+*#@"
    for k, (name, ys) in enumerate(series.items()):
        marker = markers[k % len(markers)]
        for x, y in zip(xs, np.asarray(ys, dtype=float)):
            col = int((x - x_lo) / (x_hi - x_lo) * (LINE_CHART_WIDTH - 1))
            row = int((y_hi - y) / (y_hi - y_lo)
                      * (LINE_CHART_HEIGHT - 1))
            canvas[row][col] = marker
    lines: List[str] = []
    if title:
        lines.append(title)
    lines.append(f"{y_hi:10.3f} ┤" + "".join(canvas[0]))
    for row in canvas[1:-1]:
        lines.append(" " * 10 + " │" + "".join(row))
    lines.append(f"{y_lo:10.3f} ┤" + "".join(canvas[-1]))
    lines.append(" " * 12 + f"{x_lo:g}" + " " * max(
        LINE_CHART_WIDTH - len(f"{x_lo:g}") - len(f"{x_hi:g}"), 1)
        + f"{x_hi:g}")
    legend = "   ".join(f"{markers[k % len(markers)]} {name}"
                        for k, name in enumerate(series))
    lines.append(" " * 12 + legend)
    return "\n".join(lines)


def event_timeline(
    duration_s: float,
    rows: Dict[str, Sequence[float]],
    title: str = "",
    width: int = 60,
) -> str:
    """Event times marked on a shared horizontal time axis.

    Args:
        duration_s: Axis length (seconds); events beyond it are drawn
            at the right edge.
        rows: Mapping of row label to the event timestamps to mark
            (e.g. fault strikes, watchdog triggers). A row with no
            events renders as an empty lane.
        title: Optional heading.
        width: Axis width in characters.

    Returns:
        The rendered timeline as a multi-line string.
    """
    if duration_s <= 0:
        raise ValueError("duration must be positive")
    if not rows:
        raise ValueError("nothing to chart")
    if width < 10:
        raise ValueError("axis too narrow")
    label_w = max(len(str(name)) for name in rows)
    lines: List[str] = []
    if title:
        lines.append(title)
    for name, times in rows.items():
        lane = [" "] * width
        for t in times:
            col = int(min(max(float(t) / duration_s, 0.0), 1.0)
                      * (width - 1))
            lane[col] = "*" if lane[col] == " " else "#"
        count = len(list(times))
        lines.append(f"{str(name):>{label_w}} |{''.join(lane)}| "
                     f"({count})")
    axis_lo, axis_hi = "0s", f"{duration_s:g}s"
    lines.append(" " * (label_w + 2) + axis_lo + " " * max(
        width - len(axis_lo) - len(axis_hi), 1) + axis_hi)
    return "\n".join(lines)


def resilience_timeline(
    duration_s: float,
    fault_times_s: Sequence[float],
    decisions: Sequence[ManagerDecision],
    title: str = "",
    width: int = 60,
) -> str:
    """The shared fault/degradation timeline rendering.

    One canonical lane layout for everything that reports resilience
    events — the ``ext-faults`` experiment chart and the daemon's
    per-tenant telemetry both call this with a run's decision stream
    (:class:`~repro.runtime.ManagerDecision`), so the two surfaces stay
    visually identical:

    - ``faults``: scheduled fault strikes (sensor/core/manager).
    - ``watchdog``: emergency step-downs taken by the power watchdog
      (decisions of kind ``emergency``).
    - ``tier fallback``: manager invocations decided below tier 0
      (the LinOpt -> Foxton* -> all-minimum chain engaging).
    - ``lp fallback``: decisions with within-tier-0 LP solver
      degradations.

    Lanes with no events still render, so absence of degradation is
    visible rather than silent.
    """
    rows: Dict[str, Sequence[float]] = {
        "faults": fault_times_s,
        "watchdog": [d.time_s for d in decisions
                     if d.kind == DECISION_EMERGENCY],
        "tier fallback": [d.time_s for d in decisions
                          if d.kind == DECISION_MANAGER
                          and d.resilience_tier > 0],
        "lp fallback": [d.time_s for d in decisions if d.lp_fallbacks > 0],
    }
    return event_timeline(duration_s, rows, title=title, width=width)


def histogram_chart(values: Sequence[float], n_bins: int = 8,
                    title: str = "", width: int = 40) -> str:
    """Paper-style histogram (Figure 4) as horizontal bars."""
    values = np.asarray(values, dtype=float)
    if values.size == 0:
        raise ValueError("nothing to chart")
    counts, edges = np.histogram(values, bins=n_bins)
    labels = [f"{edges[i]:.2f}-{edges[i + 1]:.2f}"
              for i in range(n_bins)]
    return bar_chart(labels, counts.astype(float), title=title,
                     width=width)


def binned_histogram_chart(edges: Sequence[float],
                           counts: Sequence[int],
                           title: str = "", width: int = 40,
                           underflow: int = 0,
                           overflow: int = 0) -> str:
    """Histogram from *already binned* counts (fleet campaigns).

    Fleet statistics arrive as fixed-bin counts — the raw per-die
    values were streamed to shards and never held in memory — so this
    is the O(1)-memory sibling of :func:`histogram_chart`. Adjacent
    bins are coalesced down to at most :data:`HISTOGRAM_MAX_ROWS` rows
    (bin counts add exactly), and any under/overflow mass gets its own
    labelled row so escapees from the declared range stay visible.
    """
    edges = np.asarray(edges, dtype=float)
    counts = np.asarray(counts, dtype=np.int64)
    if counts.size == 0 or edges.size != counts.size + 1:
        raise ValueError("need n_bins counts and n_bins+1 edges")
    occupied = np.flatnonzero(counts)
    if occupied.size:
        lo_bin, hi_bin = int(occupied[0]), int(occupied[-1]) + 1
        edges = edges[lo_bin:hi_bin + 1]
        counts = counts[lo_bin:hi_bin]
    group = max(1, -(-counts.size // HISTOGRAM_MAX_ROWS))
    labels: list = []
    values: list = []
    if underflow:
        labels.append(f"< {edges[0]:.2f}")
        values.append(float(underflow))
    for i in range(0, counts.size, group):
        j = min(i + group, counts.size)
        labels.append(f"{edges[i]:.2f}-{edges[j]:.2f}")
        values.append(float(counts[i:j].sum()))
    if overflow:
        labels.append(f">= {edges[-1]:.2f}")
        values.append(float(overflow))
    return bar_chart(labels, values, title=title, width=width)
