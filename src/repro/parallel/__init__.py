"""Sharded execution, characterisation caching, and crash safety.

The experiment layer's scaling substrate (ROADMAP: "sharding,
batching, caching"): deterministic batch sharding over a fault-
tolerant process pool, an on-disk content-addressed characterisation
cache with integrity verification and quarantine, and a journaled
checkpoint/resume layer for long campaigns, composed by
:func:`characterize_batch`. See DESIGN.md §12 and §14.
"""

from ..settings import parallel_config
from .cache import (
    CACHE_SCHEMA_VERSION,
    CHARACTERIZATION_TAG,
    CharacterizationCache,
    cache_key,
    get_default_cache,
    profile_from_payload,
    profile_payload,
    shared_cache,
)
from .journal import (
    IncompleteJournalError,
    RunJournal,
    active_journal,
    discard_journal,
    merge_journals,
    unit_key,
)
from .manifest import HostSlice, ShardManifest
from .runner import characterize_batch
from .sharding import (
    available_workers,
    get_run_health,
    run_sharded,
    shard_indices,
)

__all__ = [
    "CACHE_SCHEMA_VERSION",
    "CHARACTERIZATION_TAG",
    "CharacterizationCache",
    "HostSlice",
    "IncompleteJournalError",
    "RunJournal",
    "ShardManifest",
    "active_journal",
    "available_workers",
    "cache_key",
    "characterize_batch",
    "discard_journal",
    "get_default_cache",
    "get_run_health",
    "merge_journals",
    "parallel_config",
    "profile_from_payload",
    "profile_payload",
    "run_sharded",
    "shard_indices",
    "shared_cache",
    "unit_key",
]
