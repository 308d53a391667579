"""Fleet-scale Monte-Carlo campaigns: every user is a die.

The paper's per-die results (Figs 4/5, Table 5) are Monte-Carlo
estimates over sampled variation maps. This package is the 10^5-10^6
die axis of the ROADMAP: die-batched evaluation (the
:class:`~repro.runtime.kernel.EvalKernel` lockstep path), results
streamed to columnar npz shards instead of in-memory lists
(:mod:`.shards`), statistics computed online in O(1) memory
(:mod:`.quantiles`), and crash-safe chunked campaigns on the PR 5
journal (:mod:`.campaign`). Multi-host partitioning and merge live in
:mod:`repro.parallel.manifest` and ``repro fleet merge``.
"""

from .campaign import (
    FLEET_ARCH,
    FleetCampaignResult,
    FleetPlan,
    fleet_die_metrics,
    load_summary,
    merge_campaigns,
    run_fleet_campaign,
    summarize_shards,
)
from .quantiles import (
    FleetAccumulator,
    FleetHistogram,
    P2Quantile,
    RunningMoments,
)
from .shards import (
    ShardInfo,
    iter_shards,
    load_shard,
    write_shard,
)

__all__ = [
    "FLEET_ARCH",
    "FleetAccumulator",
    "FleetCampaignResult",
    "FleetHistogram",
    "FleetPlan",
    "P2Quantile",
    "RunningMoments",
    "ShardInfo",
    "fleet_die_metrics",
    "iter_shards",
    "load_shard",
    "load_summary",
    "merge_campaigns",
    "run_fleet_campaign",
    "summarize_shards",
    "write_shard",
]
