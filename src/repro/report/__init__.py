"""Terminal chart rendering and JSON conversion of results."""

from .ascii import (
    bar_chart,
    binned_histogram_chart,
    event_timeline,
    histogram_chart,
    line_chart,
    resilience_timeline,
)
from .fleet import fleet_summary_table
from .serialize import to_jsonable

__all__ = [
    "bar_chart",
    "binned_histogram_chart",
    "event_timeline",
    "fleet_summary_table",
    "histogram_chart",
    "line_chart",
    "resilience_timeline",
    "to_jsonable",
]
