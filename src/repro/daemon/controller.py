"""Tenant lifecycle and decision logic of the daemon (transport-free).

The controller is the synchronous heart of the service: it owns every
registered *tenant* — one chip (tech/arch/seed), one workload, one
policy/manager stack, driven incrementally through a
:class:`~repro.runtime.SimulationStepper` — and exposes the request
verbs the server maps protocol frames onto. Keeping it free of any
asyncio lets the whole robustness surface (registration, advancement,
quarantine, telemetry) be tested directly, and lets the server run
controller calls on executor threads without ceremony.

Isolation model: tenants share nothing mutable. Characterised chips
are cached per ``(n_cores, seed)`` and shared read-only; every
manager, sensor bank, watchdog and stepper is per-tenant. A tenant
whose manager stack raises is *quarantined* — its state is frozen,
every later request for it gets a typed ``quarantined`` error, and no
other tenant observes anything. Per-tenant determinism is structural:
``OnlineSimulation.run`` and daemon-driven advancement execute the same
:class:`SimulationStepper` code path, so a tenant's decision stream is
bitwise-identical to a direct run no matter how advances interleave
across threads.

Durability (DESIGN.md §19): with ``state_dir`` set, every admitted
state-mutating request — register, advance, fault injection, sensor
feed — is journaled to the tenant's write-ahead op log *before* the
reply leaves the daemon, and periodic snapshots bound recovery cost.
Each op after ``register`` has exactly one execution function in
:data:`OPS`, keyed by its op-log type. A live verb looks the tenant
up, takes its lock, answers a repeated ``request_id`` from the
bounded dedup window (before the quarantine check, so a retry of an
acknowledged request gets its journaled reply even after the tenant
was quarantined), checks quarantine, runs the op function, journals
the op and updates telemetry. :meth:`DaemonController.recover` runs
the same op functions on the journaled payloads and compares every
reply with the journaled one: a replay that diverges quarantines the
tenant rather than serving silently-different state.
"""

from __future__ import annotations

import pathlib
import threading
from collections import OrderedDict
from typing import Any, Callable, Dict, List, Optional, Tuple, Union

from ..config import ArchConfig, PowerEnvironment, TechParams
from ..experiments.common import ChipFactory
from ..faults import (
    FaultEvent,
    ResilientManager,
    TenantConfig,
    build_stepper,
)
from ..metrics import Metrics
from ..report import resilience_timeline
from ..runtime import ManagerDecision, SimulationStepper
from .durability import (
    DEDUP_WINDOW,
    SNAPSHOT_FORMAT,
    RecoveryStats,
    StateDir,
    TenantStore,
)
from .protocol import (
    ERR_DUPLICATE_TENANT,
    ERR_INVALID,
    ERR_QUARANTINED,
    ERR_UNKNOWN_TENANT,
    ProtocolError,
)
from .schemas import ENVS
from .telemetry import COUNTER_FIELDS

#: Tenant lifecycle states.
ACTIVE = "active"
FINISHED = "finished"
QUARANTINED = "quarantined"

def decision_to_dict(decision: ManagerDecision) -> Dict[str, Any]:
    """JSON-ready form of one actuation decision."""
    return {
        "time_s": decision.time_s,
        "kind": decision.kind,
        "levels": list(decision.levels),
        "core_of": list(decision.core_of),
        "migrated": list(decision.migrated),
        "resilience_tier": decision.resilience_tier,
        "lp_fallbacks": decision.lp_fallbacks,
        "evaluations": decision.evaluations,
    }


def build_config(payload: Dict[str, Any]) -> TenantConfig:
    """Resolve a validated ``register`` payload to a TenantConfig."""
    n_cores = payload["n_cores"]
    n_threads = payload["n_threads"] or n_cores
    if n_threads > n_cores:
        raise ProtocolError(
            ERR_INVALID,
            f"n_threads ({n_threads}) cannot exceed n_cores "
            f"({n_cores})")
    env = payload["env"]
    if isinstance(env, str):
        env = ENVS[env]
    else:
        env = PowerEnvironment(
            "custom", **{key: float(v) for key, v in env.items()})
    raw = payload["faults"] or ()
    try:
        faults = tuple(FaultEvent(float(e["time_s"]), e["kind"],
                                  target=int(e.get("target", -1)),
                                  param=float(e.get("param", 0.0)))
                       for e in raw)
    except ValueError as exc:
        raise ProtocolError(ERR_INVALID, f"bad fault event: {exc}")
    return TenantConfig(
        name=payload["tenant"],
        seed=payload["seed"],
        n_cores=n_cores,
        n_threads=n_threads,
        env=env,
        policy=payload["policy"],
        duration_s=float(payload["duration_s"]),
        dvfs_interval_s=float(payload["dvfs_interval_s"]),
        noise_sigma=float(payload["noise_sigma"]),
        watchdog=payload["watchdog"],
        faults=faults,
        manager=dict(payload["manager"] or {}),
    )


class Tenant:
    """One hosted chip: a stepper plus lifecycle/quarantine state.

    ``lock`` serialises the ops of *this* tenant only; different
    tenants advance concurrently on different executor threads. The
    controller holds it across each dedup-execute-journal sequence,
    so the op log's order is the execution order.
    """

    def __init__(self, config: TenantConfig,
                 stepper: SimulationStepper) -> None:
        self.config = config
        self.stepper = stepper
        self.lock = threading.Lock()
        self.status = ACTIVE
        self.quarantine_reason: Optional[str] = None
        #: Durable footprint (None on a memory-only controller).
        self.store: Optional[TenantStore] = None
        #: Idempotency window: request_id -> the reply it produced.
        self.dedup: "OrderedDict[str, Dict[str, Any]]" = OrderedDict()
        self._last_snapshot_seq = -1

    def remember_reply(self, request_id: Optional[str],
                       reply: Dict[str, Any]) -> None:
        """Insert a reply into the bounded idempotency window."""
        if request_id is None:
            return
        self.dedup[request_id] = reply
        while len(self.dedup) > DEDUP_WINDOW:
            self.dedup.popitem(last=False)

    def require_usable(self) -> None:
        if self.status == QUARANTINED:
            raise ProtocolError(
                ERR_QUARANTINED,
                f"tenant {self.config.name!r} is quarantined: "
                f"{self.quarantine_reason}")

    def info(self) -> Dict[str, Any]:
        return {
            "tenant": self.config.name,
            "status": self.status,
            "time_s": self.stepper.time_s,
            "duration_s": self.config.duration_s,
            "finished": self.stepper.finished,
            "decisions": len(self.stepper.decisions),
            "resilience_tier": self.stepper.resilience_tier,
            "cause": self.stepper.cause,
            "fallback_activations": self.stepper.fallback_activations,
            "lp_fallbacks": self.stepper.lp_fallbacks,
            "quarantine_reason": self.quarantine_reason,
            "n_cores": self.config.n_cores,
            "n_threads": self.config.n_threads,
            "seed": self.config.seed,
            "ops_journaled": (self.store.oplog.next_seq
                              if self.store is not None else 0),
        }

    def timeline(self, width: int = 60) -> str:
        """The tenant's degradation timeline — rendered by the same
        :func:`repro.report.resilience_timeline` the ext-faults CLI
        chart uses, so both surfaces stay identical."""
        return resilience_timeline(
            self.config.duration_s,
            [e.time_s for e in self.stepper.applied_faults],
            self.stepper.decisions,
            title=f"tenant {self.config.name}: resilience timeline",
            width=width)

    def trace_summary(self) -> Dict[str, Any]:
        """Summary statistics of the finished run."""
        if not self.stepper.finished:
            raise ProtocolError(
                ERR_INVALID,
                f"tenant {self.config.name!r} has not finished "
                f"(at t={self.stepper.time_s:.6f}s)")
        trace = self.stepper.trace()
        return {
            "tenant": self.config.name,
            "deviation_pct": trace.mean_abs_deviation_pct,
            "overshoot_fraction": trace.overshoot_fraction,
            "throughput_mips": trace.mean_throughput_mips,
            "migrations": trace.migrations,
            "level_transitions": trace.level_transitions,
            "fallback_activations": trace.fallback_activations,
            "lp_fallbacks": trace.lp_fallbacks,
            "tier_transitions": [[t, tier] for t, tier
                                 in trace.tier_transitions],
            "causes": trace.causes,
            "watchdog_triggers": len(trace.watchdog_triggers),
            "faults_applied": len(trace.fault_events),
            "decisions": len(self.stepper.decisions),
        }


# -- Op table: one execution function per journaled op type ------------


def run_advance(tenant: Tenant, payload: Dict[str, Any],
                ) -> Dict[str, Any]:
    """Advance the tenant's simulation, quarantining it on a crash."""
    stepper = tenant.stepper
    try:
        if payload["to_end"]:
            decisions = stepper.run_to_end()
        else:
            decisions = stepper.advance_until(float(payload["until_s"]))
    except Exception as exc:
        tenant.status = QUARANTINED
        tenant.quarantine_reason = f"{type(exc).__name__}: {exc}"
        raise ProtocolError(
            ERR_QUARANTINED,
            f"tenant {tenant.config.name!r} crashed and was "
            f"quarantined: {tenant.quarantine_reason}") from exc
    if stepper.finished:
        tenant.status = FINISHED
    return {
        "tenant": tenant.config.name,
        "time_s": stepper.time_s,
        "finished": stepper.finished,
        "decisions": [decision_to_dict(d) for d in decisions],
    }


def run_inject(tenant: Tenant, payload: Dict[str, Any],
               ) -> Dict[str, Any]:
    """Arm a one-shot manager fault on a resilient tenant."""
    manager = tenant.stepper.sim.manager
    if not isinstance(manager, ResilientManager):
        raise ProtocolError(
            ERR_INVALID,
            f"tenant {tenant.config.name!r} has no resilient manager "
            f"to inject into")
    manager.inject_failure(payload["kind"])
    return {"tenant": tenant.config.name, "armed": payload["kind"]}


def run_sensor_feed(tenant: Tenant, payload: Dict[str, Any],
                    ) -> Dict[str, Any]:
    """Pass measurements through the tenant's sensor-bank clamps."""
    bank = tenant.stepper.sim.sensor_bank
    if bank is None:
        raise ProtocolError(
            ERR_INVALID,
            f"tenant {tenant.config.name!r} has no sensor bank "
            f"(register with noise_sigma > 0, watchdog, or sensor "
            f"faults to enable sensor_feed)")
    try:
        fed = bank.feed(payload["core_values"], payload["uncore_value"])
    except ValueError as exc:
        raise ProtocolError(ERR_INVALID, str(exc))
    return {"tenant": tenant.config.name, **fed}


#: Op-log type -> the one function that executes that op, live and on
#: replay. It mutates the tenant and returns the reply to journal.
OPS: Dict[str, Callable[[Tenant, Dict[str, Any]], Dict[str, Any]]] = {
    "advance": run_advance,
    "inject": run_inject,
    "sensor_feed": run_sensor_feed,
}


class DaemonController:
    """Registry of tenants plus the request verbs the server exposes.

    Args:
        tech: Process technology for every hosted chip.
        workers: Worker processes for chip characterisation (the
            daemon defaults to 1 — characterisation of daemon-sized
            chips is cheap and nested pools are not worth it).
        cache: Characterisation cache policy (``"auto"`` honours
            ``REPRO_NO_CACHE`` exactly like the experiment layer).
        state_dir: Durable state directory. ``None`` keeps every
            tenant in RAM only (PR 7 behaviour); a path turns on
            write-ahead op logging, snapshot compaction and — when
            the directory already holds tenants — crash recovery by
            deterministic replay (run automatically at construction).
        snapshot_every: Journal this many ops between snapshots of a
            tenant's live state (bounds replay cost at recovery).
    """

    def __init__(self, tech: Optional[TechParams] = None,
                 workers: int = 1, cache: Any = "auto",
                 state_dir: Optional[Union[str,
                                           pathlib.Path]] = None,
                 snapshot_every: int = 16) -> None:
        if snapshot_every < 1:
            raise ValueError("snapshot_every must be positive")
        #: Shared counter sink of every tenant and the server.
        self.telemetry = Metrics(COUNTER_FIELDS)
        self.tech = tech if tech is not None else TechParams()
        self.workers = workers
        self.cache = cache
        self.snapshot_every = snapshot_every
        self.state = (StateDir(state_dir) if state_dir is not None
                      else None)
        #: Stats of the recovery pass run at construction (if any).
        self.last_recovery: Optional[RecoveryStats] = None
        self._lock = threading.RLock()
        self._tenants: Dict[str, Tenant] = {}
        self._factories: Dict[Tuple[int, int], ChipFactory] = {}
        if self.state is not None:
            self.last_recovery = self.recover()

    # -- Registry ------------------------------------------------------

    def _factory(self, n_cores: int, seed: int) -> ChipFactory:
        key = (n_cores, seed)
        factory = self._factories.get(key)
        if factory is None:
            # 35 mm^2/core grows the heat-spreading area with the core
            # count; smaller dies have too little of it and run away
            # at top V/f. The area lowers the leakage-temperature loop
            # gain but does not keep it below unity on every die: the
            # 2-core low_power tenant with seed 3 recorded in
            # tests/data/daemon_snapshot_v2 runs away at its top V/f
            # and its decisions fall back to the tier-2 floor (see
            # test_older_daemon_snapshot_restores_and_replays in
            # tests/test_simulation.py).
            arch = ArchConfig(
                n_cores=n_cores,
                die_area_mm2=35.0 * n_cores,
                grid_resolution=max(8, min(32, 2 * n_cores)))
            factory = ChipFactory(tech=self.tech, arch=arch,
                                  seed=seed, workers=self.workers,
                                  cache=self.cache)
            self._factories[key] = factory
        return factory

    def _build_tenant(self, config: TenantConfig) -> Tenant:
        """A fresh tenant: the chip build runs outside the registry
        lock so registrations don't serialise on it."""
        with self._lock:
            factory = self._factory(config.n_cores, config.seed)
        return Tenant(config, build_stepper(config, factory.chip(0),
                                            bank_seed=config.seed + 42))

    def _get(self, name: str) -> Tenant:
        with self._lock:
            tenant = self._tenants.get(name)
        if tenant is None:
            raise ProtocolError(ERR_UNKNOWN_TENANT,
                                f"no tenant {name!r}")
        return tenant

    def tenants(self) -> List[str]:
        with self._lock:
            return sorted(self._tenants)

    def quarantined(self) -> Dict[str, Optional[str]]:
        """Quarantined tenants and why (heartbeat/status surface)."""
        with self._lock:
            return {tenant.config.name: tenant.quarantine_reason
                    for _, tenant in sorted(self._tenants.items())
                    if tenant.status == QUARANTINED}

    # -- Live op path --------------------------------------------------

    def _serve(self, name: str, rtype: str, payload: Dict[str, Any],
               request_id: Optional[str],
               ) -> Tuple[Dict[str, Any], bool]:
        """Serve one live op: dedup, quarantine check, ``OPS[rtype]``,
        journal — all under the tenant lock. Returns the reply and
        whether the op ran (False: replayed from the dedup window)."""
        tenant = self._get(name)
        with tenant.lock:
            dup = self._duplicate(tenant, request_id)
            if dup is not None:
                return dup, False
            tenant.require_usable()
            reply = OPS[rtype](tenant, payload)
            self._journal(tenant, rtype, payload, reply, request_id)
            return reply, True

    def _duplicate(self, tenant: Tenant,
                   request_id: Optional[str],
                   ) -> Optional[Dict[str, Any]]:
        """The journaled reply for a repeated request_id, or None.

        Idempotency: a retried request replays its original reply;
        the op is never re-executed. Caller holds the tenant lock.
        """
        if request_id is not None and request_id in tenant.dedup:
            self.telemetry.incr("deduped_requests")
            return tenant.dedup[request_id]
        return None

    def _journal(self, tenant: Tenant, rtype: str,
                 payload: Dict[str, Any], reply: Dict[str, Any],
                 request_id: Optional[str]) -> None:
        """Durably journal one admitted op before its reply leaves.

        Caller holds the tenant lock, so the op log's order is the
        execution order. Snapshots are written every
        ``snapshot_every`` ops to bound replay cost at recovery.
        """
        tenant.remember_reply(request_id, reply)
        if tenant.store is None:
            return
        tenant.store.oplog.append(rtype, payload, reply, request_id)
        self.telemetry.incr("oplog_appends")
        last_seq = tenant.store.oplog.next_seq - 1
        if last_seq - tenant._last_snapshot_seq >= self.snapshot_every:
            self._write_snapshot(tenant, last_seq)

    def _write_snapshot(self, tenant: Tenant, seq: int) -> None:
        assert tenant.store is not None
        tenant.store.write_snapshot(seq, {
            "format": SNAPSHOT_FORMAT,
            "name": tenant.config.name,
            "seq": seq,
            "stepper": tenant.stepper,
            "dedup": list(tenant.dedup.items()),
            "status": tenant.status,
            "quarantine_reason": tenant.quarantine_reason,
        })
        tenant._last_snapshot_seq = seq
        self.telemetry.incr("snapshots_written")

    # -- Request verbs -------------------------------------------------

    def register(self, payload: Dict[str, Any]) -> Dict[str, Any]:
        """Create a tenant (a repeated ``request_id`` gets the
        journaled reply of the registration it repeats)."""
        payload = dict(payload)
        request_id = payload.pop("request_id", None)
        if request_id is not None:
            with self._lock:
                existing = self._tenants.get(payload.get("tenant"))
            if existing is not None:
                with existing.lock:
                    dup = self._duplicate(existing, request_id)
                if dup is not None:
                    return dup
        config = build_config(payload)
        with self._lock:
            if config.name in self._tenants:
                raise ProtocolError(
                    ERR_DUPLICATE_TENANT,
                    f"tenant {config.name!r} already registered")
        tenant = self._build_tenant(config)
        with self._lock:
            if config.name in self._tenants:
                raise ProtocolError(
                    ERR_DUPLICATE_TENANT,
                    f"tenant {config.name!r} already registered")
            self._tenants[config.name] = tenant
        if self.state is not None:
            # Wipe any stale directory (a crash between directory
            # creation and the register append, or a dir recovery
            # skipped as incomplete) before adopting the name.
            self.state.remove_tenant(config.name)
            tenant.store = self.state.store_for(config.name)
        info = tenant.info()
        with tenant.lock:
            self._journal(tenant, "register", payload, info,
                          request_id)
        self.telemetry.incr("tenants_registered")
        return info

    def advance(self, name: str, until_s: Optional[float] = None,
                to_end: bool = False,
                request_id: Optional[str] = None) -> Dict[str, Any]:
        """Advance one tenant. Its decisions, tiers and causes are
        read from the stepper's stream (``status``, ``trace``), not
        counted here."""
        result, ran = self._serve(
            name, "advance",
            {"tenant": name, "until_s": until_s, "to_end": bool(to_end)},
            request_id)
        if ran:
            self.telemetry.incr("advances")
        return result

    def inject(self, name: str, kind: str,
               request_id: Optional[str] = None) -> Dict[str, Any]:
        """Arm a one-shot manager fault on a resilient tenant."""
        return self._serve(name, "inject",
                           {"tenant": name, "kind": kind},
                           request_id)[0]

    def sensor_feed(self, name: str, core_values: List[Any],
                    uncore_value: Optional[float] = None,
                    request_id: Optional[str] = None,
                    ) -> Dict[str, Any]:
        """Ingest client-supplied measurements into a tenant's bank.

        The measurements pass through the tenant's
        :class:`~repro.faults.SensorBank` plausibility clamps before
        any manager can observe them — out-of-range values are
        bounded, never trusted raw — and become the channels'
        last-known-good readings. Requires the tenant to have a bank
        (registered with ``noise_sigma > 0``, ``watchdog`` or sensor
        faults); others get a typed ``invalid`` error.
        """
        result, ran = self._serve(
            name, "sensor_feed",
            {"tenant": name,
             "core_values": [float(v) for v in core_values],
             "uncore_value": (None if uncore_value is None
                              else float(uncore_value))},
            request_id)
        if ran:
            self.telemetry.incr("sensor_feeds")
            if result["clamped"]:
                self.telemetry.incr("sensor_feed_clamps",
                                    result["clamped"])
        return result

    def tenant_info(self, name: str) -> Dict[str, Any]:
        return self._get(name).info()

    def timeline(self, name: str, width: int = 60) -> Dict[str, Any]:
        return {"tenant": name,
                "timeline": self._get(name).timeline(width)}

    def trace(self, name: str) -> Dict[str, Any]:
        return self._get(name).trace_summary()

    def unregister(self, name: str) -> Dict[str, Any]:
        """Drop a tenant and its durable footprint (not idempotent:
        an unregister is destructive, so a retry after it lands gets
        ``unknown_tenant`` rather than a replayed reply)."""
        with self._lock:
            tenant = self._tenants.pop(name, None)
        if tenant is None:
            raise ProtocolError(ERR_UNKNOWN_TENANT,
                                f"no tenant {name!r}")
        if self.state is not None:
            self.state.remove_tenant(name)
        self.telemetry.incr("tenants_unregistered")
        return {"tenant": name, "status": tenant.status}

    def status(self) -> Dict[str, Any]:
        """One-frame operational picture: tenants, telemetry,
        durability mode and the stats of the last recovery pass."""
        with self._lock:
            infos = [tenant.info() for _, tenant
                     in sorted(self._tenants.items())]
        return {
            "durable": self.state is not None,
            "tenants": infos,
            "telemetry": self.telemetry_snapshot(),
            "recovery": (self.last_recovery.to_dict()
                         if self.last_recovery is not None else None),
        }

    def telemetry_snapshot(self) -> Dict[str, Any]:
        snap = self.telemetry.snapshot()
        with self._lock:
            by_status: Dict[str, int] = {}
            for tenant in self._tenants.values():
                by_status[tenant.status] = (
                    by_status.get(tenant.status, 0) + 1)
            quarantined = self.quarantined()
        snap["tenants"] = by_status
        snap["quarantined"] = quarantined
        return snap

    # -- Crash recovery ------------------------------------------------

    def recover(self) -> RecoveryStats:
        """Rebuild every durable tenant from its snapshot + op log.

        Each tenant directory is restored independently: the newest
        digest-verified snapshot (if any) seeds the live state, then
        every journaled op past it is *re-executed* by the same
        :data:`OPS` function that served it originally. Every replayed
        reply is compared bitwise against the journaled reply — the
        determinism invariant of DESIGN.md §19 — and a tenant whose
        replay diverges is quarantined instead of being served in a
        silently different state. Corrupt snapshots were already
        quarantined by the store; the op log is never compacted, so
        full replay always remains as the fallback.
        """
        stats = RecoveryStats()
        assert self.state is not None
        for store in self.state.iter_stores():
            self._recover_tenant(store, stats)
        return stats

    def _recover_tenant(self, store: TenantStore,
                        stats: RecoveryStats) -> None:
        records = store.oplog.records
        if not records or records[0].rtype != "register":
            # The daemon died before journaling the register op (the
            # client never saw a reply: nothing to restore), or the log
            # fails verification before naming its tenant (bit rot, an
            # old format): set that aside rather than let it be wiped.
            if store.oplog.damaged:
                reason = "op log fails verification before register"
                store.quarantine(reason)
                stats.tenants_quarantined += 1
                stats.quarantine_reasons[store.root.name] = reason
            return
        name = records[0].payload["tenant"]
        config = build_config(dict(records[0].payload))
        tenant: Optional[Tenant] = None
        start = 1
        snap = store.load_snapshot()
        stats.snapshot_quarantines += store.snapshot_quarantines
        if snap is not None:
            seq, state = snap
            usable = (state.get("format") == SNAPSHOT_FORMAT
                      and state.get("name") == name
                      and 0 <= seq < len(records))
            if usable:
                tenant = Tenant(config, state["stepper"])
                tenant.dedup = OrderedDict(state["dedup"])
                tenant.status = state["status"]
                tenant.quarantine_reason = state["quarantine_reason"]
                tenant._last_snapshot_seq = seq
                start = seq + 1
                stats.snapshot_restores += 1
        if tenant is None:
            tenant = self._build_tenant(config)
            tenant.remember_reply(records[0].request_id,
                                  records[0].reply)
        tenant.store = store
        for record in records[start:]:
            problem = self._replay_op(tenant, record)
            if problem is not None:
                tenant.status = QUARANTINED
                tenant.quarantine_reason = problem
                stats.tenants_quarantined += 1
                stats.quarantine_reasons[name] = problem
                break
            tenant.remember_reply(record.request_id, record.reply)
            stats.ops_replayed += 1
        with self._lock:
            self._tenants[name] = tenant
        stats.tenants_recovered += 1

    def _replay_op(self, tenant: Tenant, record) -> Optional[str]:
        """Re-execute one journaled op; a description of the problem
        if the op cannot be replayed faithfully, else None."""
        run = OPS.get(record.rtype)
        if run is None:
            return (f"op {record.seq} has unknown type "
                    f"{record.rtype!r}")
        try:
            replayed = run(tenant, record.payload)
        except Exception as exc:
            return (f"replay failed at op {record.seq}: "
                    f"{type(exc).__name__}: {exc}")
        if replayed != record.reply:
            return (f"replay divergence at op {record.seq}: "
                    f"re-executed {record.rtype} disagrees with the "
                    f"journaled reply")
        return None
