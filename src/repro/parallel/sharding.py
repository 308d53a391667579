"""Deterministic, fault-tolerant sharding for parallel batch work.

Every paper experiment characterises a seeded batch of dies: per-item
work that is independent, deterministic per (seed, index), and
therefore safe to fan out across processes *provided* the split and
the merge are deterministic too. This module supplies exactly that:

* :func:`shard_indices` — contiguous, balanced shards whose in-order
  concatenation restores ``arange(n_items)`` exactly;
* :func:`run_sharded` — map a shard function over the items on a
  process pool, merging results in item order. With ``workers=1`` it
  degenerates to one in-process call over all items, bitwise-identical
  to a plain serial loop.

``run_sharded`` is fault tolerant (DESIGN.md §14): a shard whose
worker dies (``BrokenProcessPool``) or hangs past the configurable
timeout is retried with bounded, jitterless exponential backoff on a
replacement pool; a shard that keeps failing is *narrowed* — split in
half and re-tried, bisecting down to the single poisoned item — and
anything the pool cannot complete runs in-process as a final serial
fallback, so a run degrades to ``workers=1`` semantics instead of
dying. Results are keyed by item position throughout, so the stable
merge-order (and therefore bitwise-output) guarantee survives every
recovery path. Every recovery action is counted, under the names
in :data:`HEALTH_COUNTERS`, in the process-wide shard-health record
(:func:`get_run_health`), which also observes each completed shard's
wall time as ``"shard"``.
A *clean* run counts nothing but ``shards_run``: the robustness
machinery must be invisible on the happy path, and the CI perf gate
(``benchmarks/perf_gate.py``) fails whenever a clean benchmark run
shows a serial-fallback activation.
"""

from __future__ import annotations

import dataclasses
import multiprocessing
import os
import time
from collections import deque
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from typing import Callable, Dict, List, Sequence, TypeVar

import numpy as np

from ..metrics import Metrics
from ..settings import settings

T = TypeVar("T")
R = TypeVar("R")

ShardFn = Callable[[List[T]], List[R]]

# Infrastructure-failure retries per shard before it is narrowed
# (split in half, each half with a fresh budget), bisecting down to
# the single poisoned item. Read at call time.
MAX_SHARD_RETRIES = 2

# Base of the jitterless exponential backoff slept before a retry of
# the same shard: attempt k sleeps BACKOFF_S * 2**(k-1); 0 disables
# sleeping. Deterministic (no jitter) so failure-path tests and
# reruns behave identically. Read at call time.
BACKOFF_S = 0.05

#: Recovery actions a sharded run counts, in reporting order:
#: ``shards_run`` — shards completed (on the pool or serially);
#: ``retries`` — shard attempts re-enqueued after a worker death or
#: timeout; ``timeouts`` — shards that exceeded the per-shard timeout;
#: ``broken_pools`` — pools replaced after ``BrokenProcessPool`` or a
#: timeout; ``narrowed_shards`` — shards split in half after
#: exhausting their retries; ``serial_fallback_shards`` and
#: ``serial_fallback_items`` — shards (and their items) run
#: in-process because the pool could not complete them.
HEALTH_COUNTERS = (
    "shards_run",
    "retries",
    "timeouts",
    "broken_pools",
    "narrowed_shards",
    "serial_fallback_shards",
    "serial_fallback_items",
)

# The process-wide record every run_sharded call feeds; benchmarks
# snapshot and delta it into BENCH_*.json.
_run_health = Metrics(HEALTH_COUNTERS)

# Poll interval while waiting on pool futures when a timeout is set.
_POLL_S = 0.05


def get_run_health() -> Metrics:
    """The process-wide shard-health record."""
    return _run_health


def shard_indices(n_items: int, n_shards: int) -> List[np.ndarray]:
    """Split ``range(n_items)`` into at most ``n_shards`` shards.

    Shards are contiguous and balanced (sizes differ by at most one),
    and concatenating them in order restores ``arange(n_items)``
    exactly — the stable merge order every sharded run relies on.
    """
    if n_items < 0:
        raise ValueError("n_items must be non-negative")
    if n_shards <= 0:
        raise ValueError("n_shards must be positive")
    if n_items == 0:
        return []
    return list(np.array_split(np.arange(n_items), min(n_shards, n_items)))


def available_workers() -> int:
    """CPUs usable by this process (affinity-aware, at least 1)."""
    try:
        return max(1, len(os.sched_getaffinity(0)))
    except AttributeError:  # non-Linux
        return max(1, os.cpu_count() or 1)


def _pool_context() -> multiprocessing.context.BaseContext:
    """Prefer fork (cheap, inherits module state); fall back to default."""
    if "fork" in multiprocessing.get_all_start_methods():
        return multiprocessing.get_context("fork")
    return multiprocessing.get_context()


@dataclasses.dataclass
class _ShardTask:
    """One unit of pool work: item positions plus its retry count."""

    indices: List[int]
    attempt: int = 0


def _new_pool(pool_size: int) -> ProcessPoolExecutor:
    return ProcessPoolExecutor(max_workers=pool_size,
                               mp_context=_pool_context())


def _kill_pool(pool: ProcessPoolExecutor) -> None:
    """Tear a pool down without waiting on (possibly hung) workers."""
    for proc in list(getattr(pool, "_processes", {}).values()):
        try:
            proc.terminate()
        except Exception:  # already dead / not started
            pass
    pool.shutdown(wait=False, cancel_futures=True)


def run_sharded(fn: ShardFn, items: Sequence[T],
                workers: int = 1) -> List[R]:
    """Map a shard function over ``items``, merging in stable order.

    Args:
        fn: Callable taking a *list of items* (one shard) and returning
            a list with one result per item, in item order. Must be
            picklable (a module-level function or ``functools.partial``
            of one) when ``workers > 1``, and must tolerate arbitrary
            partitions of the items: failure recovery may re-run it on
            sub-lists of a shard (per-item purity — the contract every
            caller already relies on for worker-count independence —
            is sufficient).
        items: The work items, in the order results are wanted.
        workers: Shard count. ``1`` calls ``fn(items)`` once in this
            process — bitwise-identical to a plain serial loop. The
            *pool* size is clamped to :func:`available_workers`:
            requesting more shards than CPUs queues the excess shards
            in the coordinator and feeds them to the pool as slots
            free up (smaller shards, same results, no
            over-subscription).

    Each shard's wall-time limit is ``settings().shard_timeout_s``
    (``REPRO_SHARD_TIMEOUT_S``, default: no limit), measured from the
    moment the shard is handed to the pool. On expiry the pool is
    assumed hung and replaced, and the shard is retried (up to
    :data:`MAX_SHARD_RETRIES` times, after a :data:`BACKOFF_S`
    backoff, before it is narrowed). Completed shards, their walls and
    every recovery action are recorded in :func:`get_run_health`.

    Returns:
        One result per item, in the original item order regardless of
        worker count, completion order, or any recovery action taken.

    Raises:
        Whatever ``fn`` raises, once recovery is exhausted: an
        exception raised *by the shard function itself* (as opposed to
        a dying or hung worker) is deterministic, so the shard is
        re-run in-process by the serial fallback and the exception
        propagates exactly as it would with ``workers=1``.
    """
    items = list(items)
    if not items:
        return []
    health = _run_health

    def record_shard(wall_s: float) -> None:
        health.incr("shards_run")
        health.observe("shard", wall_s)

    workers = max(1, int(workers))
    if workers == 1 or len(items) == 1:
        start = time.monotonic()
        out = _checked(fn(items), len(items))
        record_shard(time.monotonic() - start)
        return out
    timeout_s = settings().shard_timeout_s
    shards = shard_indices(len(items), workers)
    # Satellite fix: never start more worker processes than CPUs this
    # process may use — the coordinator queues the excess shards.
    pool_size = min(len(shards), available_workers())
    pending = deque(_ShardTask([int(i) for i in shard])
                    for shard in shards)
    serial_queue: List[_ShardTask] = []
    results: Dict[int, R] = {}

    def store(task: _ShardTask, part: List[R]) -> None:
        for index, value in zip(task.indices, _checked(part,
                                                       len(task.indices))):
            results[index] = value

    def handle_failure(task: _ShardTask) -> None:
        """Retry, narrow, or route a failed shard to the serial path."""
        task.attempt += 1
        if task.attempt <= MAX_SHARD_RETRIES:
            health.incr("retries")
            if BACKOFF_S > 0:
                time.sleep(BACKOFF_S * (2 ** (task.attempt - 1)))
            pending.append(task)
        elif len(task.indices) > 1:
            health.incr("narrowed_shards")
            mid = len(task.indices) // 2
            pending.append(_ShardTask(task.indices[:mid]))
            pending.append(_ShardTask(task.indices[mid:]))
        else:
            # The poisoned item: the pool cannot run it; fall back to
            # workers=1 semantics in-process.
            serial_queue.append(task)

    pool = _new_pool(pool_size)
    outstanding: Dict[object, tuple] = {}  # future -> (task, t_submit)

    def replace_pool() -> ProcessPoolExecutor:
        """Requeue every in-flight shard without charging it a retry
        (its future died with the pool) and start a fresh pool."""
        health.incr("broken_pools")
        pending.extend(task for task, _ in outstanding.values())
        outstanding.clear()
        _kill_pool(pool)
        return _new_pool(pool_size)

    try:
        while pending or outstanding:
            # Keep at most pool_size shards in flight so the timeout
            # clock only runs on shards that are actually executing.
            broken = False
            while pending and len(outstanding) < pool_size:
                task = pending.popleft()
                try:
                    future = pool.submit(
                        fn, [items[i] for i in task.indices])
                except BrokenProcessPool:
                    # The pool broke after the last wait() returned:
                    # this shard never ran.
                    pending.appendleft(task)
                    broken = True
                    break
                outstanding[future] = (task, time.monotonic())
            if broken:
                pool = replace_pool()
                continue
            done, _ = wait(list(outstanding), return_when=FIRST_COMPLETED,
                           timeout=_POLL_S if timeout_s else None)
            now = time.monotonic()
            if not done:
                if timeout_s is None:
                    continue
                timed_out = [future for future, (_, t0)
                             in outstanding.items()
                             if now - t0 > timeout_s]
                if not timed_out:
                    continue
                # A hung worker cannot be cancelled individually;
                # replace the whole pool. Timed-out shards are charged
                # a failed attempt, innocent in-flight shards are
                # requeued as they were.
                health.incr("timeouts", len(timed_out))
                for future in timed_out:
                    handle_failure(outstanding.pop(future)[0])
                pool = replace_pool()
                continue
            for future in done:
                task, t0 = outstanding.pop(future)
                try:
                    part = future.result()
                except BrokenProcessPool:
                    broken = True
                    handle_failure(task)
                except Exception:
                    # fn itself raised: deterministic, so retrying in
                    # a subprocess cannot help. Re-run in-process so
                    # the real exception propagates with a clean
                    # traceback (workers=1 semantics).
                    serial_queue.append(task)
                else:
                    store(task, part)
                    record_shard(now - t0)
            if broken:
                pool = replace_pool()
    finally:
        pool.shutdown(wait=False, cancel_futures=True)

    # Final in-process serial fallback, in item order for determinism.
    for task in sorted(serial_queue, key=lambda t: t.indices[0]):
        health.incr("serial_fallback_shards")
        health.incr("serial_fallback_items", len(task.indices))
        start = time.monotonic()
        store(task, fn([items[i] for i in task.indices]))
        record_shard(time.monotonic() - start)

    if len(results) != len(items):  # pragma: no cover - defensive
        missing = sorted(set(range(len(items))) - set(results))
        raise RuntimeError(f"sharded run lost items {missing[:8]}")
    return [results[i] for i in range(len(items))]


def _checked(results: List[R], expected: int) -> List[R]:
    if len(results) != expected:
        raise RuntimeError(
            f"shard function returned {len(results)} results "
            f"for {expected} items")
    return results
