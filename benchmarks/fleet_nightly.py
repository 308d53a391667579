#!/usr/bin/env python3
"""Nightly fleet campaign: kill it mid-run, resume it, split it across
hosts, merge it, prove bitwise.

The crash-safety promise of the fleet subsystem is not "it usually
recovers" but "an interrupted-then-resumed campaign emits *exactly*
the bytes an uninterrupted one does", and a multi-host campaign is
held to the same bytes once merged. This driver enforces both end to
end, nightly, at smoke scale (10^4 dies by default):

1. launch ``repro fleet run`` as a subprocess and SIGKILL it once its
   journal holds at least ``--kill-after`` completed chunk units;
2. resume the campaign in-process from the surviving journal;
3. run the identical plan fresh in a separate directory;
4. compare: ``summary.json`` must be byte-identical and every shard's
   loaded arrays bitwise-equal (npz files are zip containers with
   member timestamps, so file bytes are *expected* to differ — array
   contents are the contract);
5. run the same plan as two chunk-aligned host slices
   (:meth:`ShardManifest.partition`), merge them with
   :func:`merge_campaigns` and compare the merge with the reference
   the same way;
6. enforce the campaign throughput floor and write a
   ``BENCH_fleet_nightly.json`` record for the artifact trail.

Exit code 0 only if every check above holds.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import signal
import subprocess
import sys
import time

import numpy as np

HERE = pathlib.Path(__file__).parent
sys.path.insert(0, str(HERE.parent / "src"))

from repro.fleet import (  # noqa: E402
    FleetPlan,
    iter_shards,
    load_shard,
    merge_campaigns,
    run_fleet_campaign,
)
from repro.parallel import ShardManifest  # noqa: E402
from repro.storage import decode_line  # noqa: E402

DIES_PER_S_FLOOR = 18.0

#: Host names of the multi-host merge check.
HOSTS = ("alpha", "beta")


def count_journal_units(journal: pathlib.Path) -> int:
    if not journal.exists():
        return 0
    units = 0
    for line in journal.read_bytes().splitlines(keepends=True):
        record = decode_line(line)
        if record is None:
            break
        units += record.get("kind") == "unit"
    return units


def run_and_kill(plan: FleetPlan, out_root: pathlib.Path,
                 kill_after: int, timeout_s: float) -> int:
    """Run the campaign CLI; SIGKILL after ``kill_after`` chunks."""
    cmd = [sys.executable, "-m", "repro.cli", "fleet", "run",
           "--name", plan.name, "--dies", str(plan.n_dies),
           "--chunk", str(plan.chunk_dies), "--seed", str(plan.seed),
           "--out", str(out_root), "--workers", "1", "--quiet"]
    if not plan.with_power:
        cmd.append("--no-power")
    journal = out_root / plan.name / "journal.jsonl"
    proc = subprocess.Popen(cmd)
    deadline = time.monotonic() + timeout_s
    try:
        while True:
            units = count_journal_units(journal)
            if units >= kill_after:
                proc.send_signal(signal.SIGKILL)
                proc.wait()
                return units
            if proc.poll() is not None:
                raise SystemExit(
                    f"campaign finished (rc {proc.returncode}) before "
                    f"{kill_after} chunks were journaled — fleet too "
                    "small for a meaningful kill window")
            if time.monotonic() > deadline:
                raise SystemExit("timed out waiting for the campaign "
                                 "to journal its first chunks")
            time.sleep(0.2)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()


def compare_campaigns(a: pathlib.Path, b: pathlib.Path) -> None:
    """Byte-compare summaries, bitwise-compare shard arrays."""
    sa = (a / "summary.json").read_bytes()
    sb = (b / "summary.json").read_bytes()
    if sa != sb:
        raise SystemExit(
            f"summary.json of {a} differs from the uninterrupted "
            f"reference {b} — not deterministic")
    shards_a = {i.path.name: i.path for i in iter_shards(a / "shards")}
    shards_b = {i.path.name: i.path for i in iter_shards(b / "shards")}
    if set(shards_a) != set(shards_b):
        raise SystemExit(
            f"shard sets differ: {sorted(set(shards_a) ^ set(shards_b))}")
    for name in sorted(shards_a):
        ca = load_shard(shards_a[name])
        cb = load_shard(shards_b[name])
        if set(ca) != set(cb):
            raise SystemExit(f"{name}: column sets differ")
        for col in sorted(ca):
            if not np.array_equal(ca[col], cb[col]):
                raise SystemExit(
                    f"{name}: column {col!r} differs between {a} and "
                    "the reference campaign (not bitwise)")
    print(f"bitwise check OK: {len(shards_a)} shards, "
          "summary.json byte-identical")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__.splitlines()[0])
    parser.add_argument("--dies", type=int, default=10_000)
    parser.add_argument("--chunk", type=int, default=256)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--no-power", action="store_true",
                        help="freq-only campaign (much faster)")
    parser.add_argument("--kill-after", type=int, default=2,
                        help="journaled chunks before the SIGKILL")
    parser.add_argument("--kill-timeout", type=float, default=1800.0)
    parser.add_argument("--out", type=pathlib.Path,
                        default=pathlib.Path("fleet-nightly"))
    parser.add_argument("--floor", type=float,
                        default=DIES_PER_S_FLOOR,
                        help="dies/s floor for the reference run")
    args = parser.parse_args(argv)

    plan = FleetPlan(name="nightly", n_dies=args.dies, seed=args.seed,
                     chunk_dies=args.chunk,
                     with_power=not args.no_power)

    print(f"[1/5] interrupted run: {plan.n_dies} dies, SIGKILL after "
          f"{args.kill_after} journaled chunks")
    killed_at = run_and_kill(plan, args.out / "interrupted",
                             args.kill_after, args.kill_timeout)
    print(f"      killed with {killed_at} chunks journaled")

    print("[2/5] resuming from the surviving journal")
    resumed = run_fleet_campaign(plan, args.out / "interrupted",
                                 workers=1)
    if resumed.resumed_chunks < args.kill_after:
        raise SystemExit(
            f"resume replayed only {resumed.resumed_chunks} chunks "
            f"from the journal, expected >= {args.kill_after} — the "
            "kill window did not exercise resume")
    print(f"      {resumed.resumed_chunks}/{resumed.n_chunks} chunks "
          "replayed from journal")

    print("[3/5] uninterrupted reference run")
    reference = run_fleet_campaign(plan, args.out / "reference",
                                   workers=1)
    print(f"      {reference.dies_per_s:.1f} dies/s")

    print("[4/5] bitwise equality: resumed vs reference")
    compare_campaigns(resumed.out_dir, reference.out_dir)

    print("[5/5] two host slices, merged, vs reference")
    manifest = ShardManifest.partition(plan.to_dict(), HOSTS)
    host_dirs = [
        run_fleet_campaign(
            FleetPlan.from_dict(manifest.host_plan_params(host)),
            args.out / "hosts" / host, workers=1).out_dir
        for host in HOSTS]
    merged = merge_campaigns(manifest, host_dirs, args.out / "merged")
    compare_campaigns(merged.out_dir, reference.out_dir)

    record = {
        "name": "fleet_nightly",
        "full_run": False,
        "workers": 1,
        "wall_time_s": reference.wall_s,
        "cache": None,
        "metrics": {
            "n_dies": plan.n_dies,
            "n_chunks": reference.n_chunks,
            "dies_per_s": reference.dies_per_s,
            "resumed_chunks": resumed.resumed_chunks,
            "killed_at_chunks": killed_at,
        },
        "floors": {"dies_per_s": args.floor},
    }
    record_path = args.out / "BENCH_fleet_nightly.json"
    record_path.parent.mkdir(parents=True, exist_ok=True)
    record_path.write_text(json.dumps(record, indent=2,
                                      sort_keys=True) + "\n")
    print(f"record written to {record_path}")

    if reference.dies_per_s < args.floor:
        raise SystemExit(
            f"throughput {reference.dies_per_s:.1f} dies/s below the "
            f"{args.floor:g} dies/s floor")
    return 0


if __name__ == "__main__":
    sys.exit(main())
