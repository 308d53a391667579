"""Command-line entry point: run any paper experiment.

Usage::

    python -m repro.cli list
    python -m repro.cli fig4 [--dies 200]
    python -m repro.cli fig11 [--trials 20] [--static] [--no-sann]
    python -m repro.cli all [--resume]
    python -m repro.cli cache stats|verify|gc|clear
    python -m repro.cli fleet run|plan|merge|stats ...

``REPRO_FULL=1`` switches the defaults to the paper's full scale
(200 dies, 20 trials) — expect long runtimes. ``--resume`` (or
``REPRO_RESUME=1``) journals every completed (experiment, die,
policy) unit to ``results/<run>/journal.jsonl`` and picks an
interrupted campaign up from the last completed unit; ``--fresh``
discards an existing journal first.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from typing import List, Optional

from .experiments import EXPERIMENTS


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduce experiments from 'Variation-Aware "
                    "Application Scheduling and Power Management for "
                    "Chip Multiprocessors' (ISCA 2008).")
    parser.add_argument("experiment",
                        help="experiment name (see 'list'), or 'list'/'all'")
    parser.add_argument("--dies", type=int, default=None,
                        help="number of dies (fig4/fig5)")
    parser.add_argument("--trials", type=int, default=None,
                        help="workload trials per data point")
    parser.add_argument("--static", action="store_true",
                        help="use the static protocol for fig11-13 "
                             "(faster, no phase adaptation)")
    parser.add_argument("--no-sann", action="store_true",
                        help="skip the SAnn algorithm in fig11-13")
    parser.add_argument("--chart", action="store_true",
                        help="also render terminal charts where the "
                             "experiment supports it")
    parser.add_argument("--workers", type=int, default=None,
                        help="processes for die characterisation "
                             "(default: REPRO_WORKERS or 1; serial "
                             "runs are bitwise-identical)")
    parser.add_argument("--no-cache", action="store_true",
                        help="bypass the persistent characterisation "
                             "cache (benchmarks/.cache)")
    parser.add_argument("--resume", action="store_true",
                        help="journal completed units to results/<run>/"
                             "journal.jsonl and resume an interrupted "
                             "campaign from the last completed unit")
    parser.add_argument("--fresh", action="store_true",
                        help="like --resume, but discard any existing "
                             "journal for the requested run(s) first")
    return parser


def _run_one(name: str, args: argparse.Namespace) -> None:
    module = EXPERIMENTS[name]
    kwargs = {}
    if name in ("fig4", "fig5") and args.dies is not None:
        kwargs["n_dies"] = args.dies
    if name in ("fig7", "fig8", "fig9", "fig10", "fig11", "fig12",
                "fig13", "fig14", "fig15") and args.trials is not None:
        kwargs["n_trials"] = args.trials
    if name in ("fig11", "fig12", "fig13"):
        if args.static:
            kwargs["protocol"] = "static"
        if args.no_sann:
            kwargs["include_sann"] = False
    start = time.time()
    result = module.run(**kwargs)
    elapsed = time.time() - start
    print(result.format_table())
    if args.chart:
        chart = _render_chart(name, result)
        if chart:
            print()
            print(chart)
    print(f"[{name} completed in {elapsed:.1f}s]")


def _render_chart(name: str, result) -> Optional[str]:
    """Terminal chart for the experiments with a natural one."""
    from .report import (bar_chart, histogram_chart, line_chart,
                         resilience_timeline)
    if name == "fig4":
        return "\n\n".join([
            histogram_chart(result.power_ratios, title="Fig 4(a): "
                            "core power ratio histogram"),
            histogram_chart(result.freq_ratios, title="Fig 4(b): "
                            "core frequency ratio histogram"),
        ])
    if name == "fig5":
        return line_chart(result.sigma_over_mu,
                          {"power ratio": result.power_ratio,
                           "freq ratio": result.freq_ratio},
                          title="Fig 5: ratios vs Vth sigma/mu")
    if name == "fig14":
        series = {f"{nt} threads": devs
                  for nt, devs in result.deviation_pct.items()}
        return line_chart(range(len(result.intervals_s)), series,
                          title="Fig 14: |P - Ptarget| (%) per "
                                "interval (left = longest)")
    if name == "ext-faults":
        from .experiments.ext_faults import DURATION_S
        curves = line_chart(
            result.noise_sigmas,
            {"dev %": [a.mean_abs_deviation_pct
                       for a in result.noise_arms],
             "wd trig": [float(len(a.watchdog_triggers))
                         for a in result.noise_arms]},
            title="ext-faults: degradation vs sensor noise sigma")
        wd = result.scenario.watchdog
        timeline = resilience_timeline(
            DURATION_S, [e.time_s for e in wd.fault_events],
            wd.decisions,
            title="ext-faults scenario: faults vs watchdog/fallback "
                  "activity")
        return curves + "\n\n" + timeline
    if name in ("fig11", "fig12", "fig13"):
        some_key = sorted(result.results)[-1]
        per = result.results[some_key]
        labels = list(per)
        values = [per[a].mips for a in labels]
        return bar_chart(labels, values, baseline=1.0,
                         title=f"{name}: relative throughput "
                               f"({some_key})")
    return None


def _parse_size(text: str) -> int:
    """Parse a byte budget like ``500M``, ``2G``, ``4096``."""
    text = text.strip().upper()
    factor = 1
    for suffix, mult in (("K", 1 << 10), ("M", 1 << 20), ("G", 1 << 30)):
        if text.endswith(suffix):
            text, factor = text[:-1], mult
            break
    return int(float(text) * factor)


def _cache_main(argv: List[str]) -> int:
    """The ``repro cache`` maintenance subcommand."""
    from .parallel import CharacterizationCache
    from .settings import settings
    parser = argparse.ArgumentParser(
        prog="repro cache",
        description="Inspect and maintain the persistent "
                    "characterisation cache.")
    parser.add_argument("action",
                        choices=("stats", "verify", "gc", "clear"))
    parser.add_argument("--max-bytes", type=_parse_size, default=None,
                        help="gc: evict LRU entries until the cache is "
                             "at most this big (suffixes K/M/G)")
    parser.add_argument("--cache-dir", default=None,
                        help="cache directory (default: REPRO_CACHE_DIR "
                             "or benchmarks/.cache)")
    args = parser.parse_args(argv)
    root = args.cache_dir or settings().cache_root
    cache = CharacterizationCache(root)
    if args.action == "stats":
        usage = cache.usage()
        print(f"cache root        {cache.root}")
        print(f"entries           {usage['entries']}")
        print(f"bytes             {usage['bytes']}")
        print(f"quarantined       {usage['quarantined']}")
        return 0
    if args.action == "verify":
        report = cache.verify_all()
        print(f"verified {len(report['ok'])} entr"
              f"{'y' if len(report['ok']) == 1 else 'ies'}, "
              f"{len(report['corrupt'])} corrupt")
        for key in report["corrupt"]:
            print(f"quarantined {key} -> {cache.quarantine_root}")
        return 1 if report["corrupt"] else 0
    if args.action == "gc":
        if args.max_bytes is None:
            print("cache gc requires --max-bytes", file=sys.stderr)
            return 2
        removed = cache.gc(args.max_bytes)
        usage = cache.usage()
        print(f"evicted {len(removed)} entr"
              f"{'y' if len(removed) == 1 else 'ies'}; "
              f"{usage['entries']} left ({usage['bytes']} bytes)")
        return 0
    cache.clear()
    print(f"cleared {cache.root}")
    return 0


def _daemon_main(argv: List[str]) -> int:
    """The ``repro daemon`` service subcommand."""
    import asyncio

    parser = argparse.ArgumentParser(
        prog="repro daemon",
        description="Serve the power-management stack as a "
                    "long-running multi-tenant daemon (NDJSON over "
                    "TCP; see DESIGN.md section 16).")
    parser.add_argument("action", choices=("serve", "recover",
                                           "status"))
    parser.add_argument("--host", default="127.0.0.1",
                        help="bind address (serve) or daemon address "
                             "(status; default 127.0.0.1)")
    parser.add_argument("--port", type=int, default=7715,
                        help="TCP port; 0 picks a free one "
                             "(default 7715)")
    parser.add_argument("--state-dir", default=None,
                        help="durable state directory: journal every "
                             "admitted request, snapshot tenants, and "
                             "recover them by deterministic replay on "
                             "restart (DESIGN.md section 19; default "
                             "in-RAM only)")
    parser.add_argument("--fresh", action="store_true",
                        help="wipe --state-dir before serving "
                             "(discard all durable tenants)")
    parser.add_argument("--snapshot-every", type=int, default=16,
                        help="ops journaled between tenant snapshots "
                             "(default 16)")
    parser.add_argument("--max-frame-bytes", type=_parse_size,
                        default=None,
                        help="per-frame size budget (suffixes K/M/G; "
                             "default 64K)")
    parser.add_argument("--queue-size", type=int, default=64,
                        help="per-subscriber event queue bound "
                             "(default 64; overflow drops oldest)")
    parser.add_argument("--idle-timeout", type=float, default=300.0,
                        help="reap clients silent this long, seconds "
                             "(0 disables; default 300)")
    parser.add_argument("--heartbeat", type=float, default=10.0,
                        help="heartbeat event period, seconds "
                             "(0 disables; default 10)")
    args = parser.parse_args(argv)

    from .daemon import DaemonController, DaemonServer

    if args.action == "status":
        from .daemon import DaemonClient, DaemonError
        try:
            with DaemonClient(args.host, args.port,
                              timeout_s=10.0) as client:
                status = client.request("status")
        except (OSError, DaemonError) as exc:
            print(f"repro daemon status: {exc}", file=sys.stderr)
            return 2
        counters = status["telemetry"]["counters"]
        print(f"daemon at {args.host}:{args.port} "
              f"(durable={status['durable']})")
        for info in status["tenants"]:
            print(f"  tenant {info['tenant']}: {info['status']} "
                  f"t={info['time_s']:.4f}s "
                  f"decisions={info['decisions']} "
                  f"ops_journaled={info['ops_journaled']}")
        recovery = status.get("recovery")
        if recovery:
            print(f"  recovery: {recovery['tenants_recovered']} "
                  f"tenants, {recovery['ops_replayed']} ops "
                  f"replayed, {recovery['snapshot_restores']} from "
                  f"snapshot, {recovery['tenants_quarantined']} "
                  f"quarantined")
        dropped = status.get("dropped_by_tenant") or {}
        print(f"  dropped_frames={counters['dropped_frames']}"
              + (f" by_tenant={dropped}" if dropped else ""))
        quarantined = status["telemetry"].get("quarantined") or {}
        for name, reason in quarantined.items():
            print(f"  quarantined {name}: {reason}")
        return 0

    if args.action == "recover":
        # Offline recovery check: replay the state dir (no listener),
        # report what would be restored, exit non-zero on quarantine.
        if not args.state_dir:
            print("repro daemon recover requires --state-dir",
                  file=sys.stderr)
            return 2
        controller = DaemonController(
            state_dir=args.state_dir,
            snapshot_every=args.snapshot_every)
        stats = controller.last_recovery
        assert stats is not None
        print(f"recovered {stats.tenants_recovered} tenant(s): "
              f"{stats.ops_replayed} op(s) replayed, "
              f"{stats.snapshot_restores} snapshot restore(s), "
              f"{stats.snapshot_quarantines} snapshot "
              f"quarantine(s)")
        for name in controller.tenants():
            info = controller.tenant_info(name)
            print(f"  tenant {name}: {info['status']} "
                  f"t={info['time_s']:.4f}s "
                  f"decisions={info['decisions']}")
        for name, reason in stats.quarantine_reasons.items():
            print(f"  quarantined {name}: {reason}")
        return 1 if stats.tenants_quarantined else 0

    if args.fresh and args.state_dir:
        from .daemon.durability import StateDir
        StateDir(args.state_dir).clear()

    async def _serve() -> int:
        server = DaemonServer(
            DaemonController(state_dir=args.state_dir,
                             snapshot_every=args.snapshot_every),
            host=args.host, port=args.port,
            max_frame_bytes=(args.max_frame_bytes
                             if args.max_frame_bytes else 64 * 1024),
            queue_size=args.queue_size,
            idle_timeout_s=args.idle_timeout or None,
            heartbeat_interval_s=args.heartbeat or None)
        host, port = await server.start()
        recovery = server.controller.last_recovery
        if recovery is not None and recovery.tenants_recovered:
            print(f"recovered {recovery.tenants_recovered} "
                  f"tenant(s) ({recovery.ops_replayed} ops "
                  f"replayed, {recovery.snapshot_restores} from "
                  f"snapshot)", flush=True)
        print(f"repro daemon listening on {host}:{port}",
              flush=True)
        try:
            await server._stopped.wait()
        except (KeyboardInterrupt, asyncio.CancelledError):
            await server.stop()
        return 0

    try:
        return asyncio.run(_serve())
    except KeyboardInterrupt:
        return 0


def _fleet_main(argv: List[str]) -> int:
    """The ``repro fleet`` campaign subcommand.

    ``run`` streams a fig04-shaped Monte-Carlo campaign over many
    dies (columnar shards + online statistics, always journaled, so
    an interrupted run resumes bitwise); ``plan`` writes a multi-host
    manifest partitioning the die range; ``merge`` reassembles the
    hosts' outputs into one campaign (refusing on gaps unless
    ``--allow-partial``); ``stats`` renders a campaign summary.
    """
    import pathlib

    parser = argparse.ArgumentParser(
        prog="repro fleet",
        description="Fleet-scale Monte-Carlo campaigns over many "
                    "dies (see DESIGN.md section 17).")
    sub = parser.add_subparsers(dest="action", required=True)

    p_run = sub.add_parser("run", help="run (or resume) a campaign")
    p_run.add_argument("--name", default="fleet",
                       help="campaign name (results/<name>/)")
    p_run.add_argument("--dies", type=int, default=1000,
                       help="fleet size (default 1000)")
    p_run.add_argument("--start", type=int, default=0,
                       help="first die index (manifest slices)")
    p_run.add_argument("--chunk", type=int, default=64,
                       help="dies per chunk/shard (default 64)")
    p_run.add_argument("--seed", type=int, default=0)
    p_run.add_argument("--no-power", action="store_true",
                       help="skip the 4(a) power analysis (freq "
                            "ratios only; much faster)")
    p_run.add_argument("--out", default="results",
                       help="results root (default results/)")
    p_run.add_argument("--workers", type=int, default=None,
                       help="characterisation worker processes; each "
                            "chunk starts its own pool, so 2 is slower "
                            "than 1 on a 2-CPU host (640 cold dies: "
                            "3.6-4.5 s against 1.6-2.3 s)")
    p_run.add_argument("--manifest", default=None,
                       help="multi-host manifest; with --host, run "
                            "only that host's die slice")
    p_run.add_argument("--host", default=None,
                       help="this host's name in the manifest")
    p_run.add_argument("--quiet", action="store_true",
                       help="no per-chunk progress lines")

    p_plan = sub.add_parser("plan", help="write a multi-host manifest")
    p_plan.add_argument("--name", default="fleet")
    p_plan.add_argument("--dies", type=int, required=True)
    p_plan.add_argument("--chunk", type=int, default=64)
    p_plan.add_argument("--seed", type=int, default=0)
    p_plan.add_argument("--no-power", action="store_true")
    p_plan.add_argument("--hosts", required=True,
                        help="comma-separated host names")
    p_plan.add_argument("--manifest", required=True,
                        help="manifest file to write")

    p_merge = sub.add_parser("merge",
                             help="merge per-host campaign outputs")
    p_merge.add_argument("host_dirs", nargs="+",
                         help="per-host campaign directories "
                              "(<out>/<name> layouts)")
    p_merge.add_argument("--manifest", required=True)
    p_merge.add_argument("--out", default="results",
                         help="merged results root")
    p_merge.add_argument("--allow-partial", action="store_true",
                         help="emit a best-effort summary even if "
                              "chunks are missing (no complete mark)")

    p_stats = sub.add_parser("stats", help="render a campaign summary")
    p_stats.add_argument("campaign_dir",
                         help="campaign directory (<out>/<name>)")
    p_stats.add_argument("--from-shards", action="store_true",
                         help="recompute statistics by streaming the "
                              "shards instead of reading summary.json")

    args = parser.parse_args(argv)
    from .fleet import (FleetPlan, load_summary, merge_campaigns,
                        run_fleet_campaign, summarize_shards)
    from .parallel.manifest import ShardManifest
    from .report import fleet_summary_table

    if args.action == "run":
        if args.manifest:
            manifest = ShardManifest.load(args.manifest)
            if not args.host:
                print("--manifest requires --host for 'fleet run'",
                      file=sys.stderr)
                return 2
            plan = FleetPlan.from_dict(
                manifest.host_plan_params(args.host))
        else:
            plan = FleetPlan(name=args.name, n_dies=args.dies,
                             start=args.start, seed=args.seed,
                             chunk_dies=args.chunk,
                             with_power=not args.no_power)
        progress = None
        if not args.quiet:
            def progress(done: int, total: int) -> None:
                print(f"  {done}/{total} dies", flush=True)
        result = run_fleet_campaign(plan, args.out,
                                    workers=args.workers,
                                    progress=progress)
        print(fleet_summary_table(load_summary(result.out_dir)))
        print(f"\n{result.n_dies} dies in {result.wall_s:.1f}s "
              f"({result.computed_dies} computed at "
              f"{result.dies_per_s:.1f} dies/s, "
              f"{result.resumed_chunks}/{result.n_chunks} chunks "
              "resumed from journal)")
        print(f"shards + summary under {result.out_dir}")
        return 0

    if args.action == "plan":
        plan = FleetPlan(name=args.name, n_dies=args.dies,
                         seed=args.seed, chunk_dies=args.chunk,
                         with_power=not args.no_power)
        hosts = [h.strip() for h in args.hosts.split(",") if h.strip()]
        manifest = ShardManifest.partition(plan.to_dict(), hosts)
        path = manifest.write(args.manifest)
        for h in manifest.hosts:
            print(f"{h.host:16s} dies [{h.start}, {h.end})  "
                  f"({h.n_dies})")
        print(f"manifest written to {path}")
        print(f"per host: repro fleet run --manifest {path} "
              "--host <name>")
        return 0

    if args.action == "merge":
        manifest = ShardManifest.load(args.manifest)
        from .parallel import IncompleteJournalError
        try:
            result = merge_campaigns(
                manifest, args.host_dirs, args.out,
                require_complete=not args.allow_partial)
        except IncompleteJournalError as exc:
            print(f"merge refused: {exc}", file=sys.stderr)
            print("(use --allow-partial for a best-effort summary)",
                  file=sys.stderr)
            return 1
        print(fleet_summary_table(load_summary(result.out_dir)))
        print(f"\nmerged {result.n_dies} dies "
              f"({result.n_chunks} chunks) into {result.out_dir}")
        return 0

    campaign_dir = pathlib.Path(args.campaign_dir)
    if args.from_shards:
        acc = summarize_shards(campaign_dir / "shards")
        print(fleet_summary_table({"metrics": acc.summary()}))
    else:
        print(fleet_summary_table(load_summary(campaign_dir)))
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns a process exit code.

    A reader that closes stdout early (``repro ... | head``) ends the
    run with status 1 and no traceback.
    """
    try:
        code = _dispatch(sys.argv[1:] if argv is None else argv)
        sys.stdout.flush()
    except BrokenPipeError:
        # Point stdout at devnull so the flush at interpreter exit
        # cannot raise again (the idiom of the Python signal docs).
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    return code


def _dispatch(argv: List[str]) -> int:
    if argv and argv[0] == "cache":
        return _cache_main(argv[1:])
    if argv and argv[0] == "daemon":
        return _daemon_main(argv[1:])
    if argv and argv[0] == "fleet":
        return _fleet_main(argv[1:])
    args = _build_parser().parse_args(argv)
    if args.experiment == "list":
        for name, module in EXPERIMENTS.items():
            doc = (module.__doc__ or "").strip().splitlines()[0]
            print(f"{name:8s} {doc}")
        return 0
    from .parallel import discard_journal, parallel_config
    resume = True if (args.resume or args.fresh) else None
    with parallel_config(
            workers=args.workers,
            cache_enabled=False if args.no_cache else None,
            resume=resume):
        names = (list(EXPERIMENTS) if args.experiment == "all"
                 else [args.experiment])
        if args.fresh:
            for name in names:
                if name in EXPERIMENTS:
                    discard_journal(name)
        if args.experiment == "all":
            for name in EXPERIMENTS:
                print(f"=== {name} ===")
                _run_one(name, args)
                print()
            return 0
        if args.experiment not in EXPERIMENTS:
            print(f"unknown experiment {args.experiment!r}; try 'list'",
                  file=sys.stderr)
            return 2
        _run_one(args.experiment, args)
    return 0


if __name__ == "__main__":
    sys.exit(main())
