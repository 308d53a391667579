"""Output checks of the end-to-end benchmark.

Every pass of a workload yields a digest of its repr-exact simulated
outputs. :func:`verify` compares those digests with the ones pinned in
``digests.json`` (for the seed they were pinned at), with each other
(every pass of a run, and the traced run against the untraced one),
and checks the paper-shape orderings that must hold for any seed. A
failed check marks every operation it covers as failed, which is what
the benchmark's ``failed`` count and exit code report.
"""

from __future__ import annotations

import hashlib
import json
import pathlib
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence

PINNED_PATH = pathlib.Path(__file__).resolve().parent / "digests.json"

FIG11_ALGORITHMS = ("Random+Foxton*", "VarF&AppIPC+Foxton*",
                    "VarF&AppIPC+LinOpt", "VarF&AppIPC+SAnn")
FIG11_DECISIONS = 48
FLEET_DIES = 1600
#: 10 ms slices each daemon tenant is advanced by; each slice takes
#: exactly one manager decision.
DAEMON_ROUNDS = 40


def fig11_digest(table: Dict[str, Sequence[float]]) -> str:
    """sha256 over each algorithm's normalised metric vector."""
    h = hashlib.sha256(b"fig11-averages-v1\n")
    for name in sorted(table):
        values = "|".join(repr(float(v)) for v in table[name])
        h.update(f"{name}|{values}\n".encode("utf-8"))
    return h.hexdigest()


def daemon_digest(streams: Sequence[Sequence[Dict[str, Any]]]) -> str:
    """sha256 over every tenant's decision stream, in tenant order.

    Decisions are the ``advance`` replies' JSON objects; their floats
    went over the wire as ``repr`` and come back exact.
    """
    h = hashlib.sha256(b"daemon-streams-v1\n")
    for index, stream in enumerate(streams):
        for decision in stream:
            h.update(f"{index}|{json.dumps(decision, sort_keys=True)}\n"
                     .encode("utf-8"))
    return h.hexdigest()


def load_pinned(path: pathlib.Path = PINNED_PATH) -> Dict[str, Any]:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


@dataclass
class Verdict:
    """Operations attempted and failed, and why they failed."""

    attempted: int = 0
    failed: int = 0
    problems: List[str] = field(default_factory=list)

    @property
    def correct(self) -> bool:
        return self.failed == 0 and not self.problems


def _fig11_shape(out: Dict[str, Any]) -> List[str]:
    """Fig 11 orderings (benchmarks/test_bench_fig11.py)."""
    table = out["averages"]
    if sorted(table) != sorted(FIG11_ALGORITHMS):
        return [f"algorithms {sorted(table)}"]
    mips = {name: v[0] for name, v in table.items()}
    base, fox = mips["Random+Foxton*"], mips["VarF&AppIPC+Foxton*"]
    lin, sann = mips["VarF&AppIPC+LinOpt"], mips["VarF&AppIPC+SAnn"]
    lin_ed2 = table["VarF&AppIPC+LinOpt"][2]
    problems = []
    if abs(base - 1.0) >= 1e-9:
        problems.append(f"baseline MIPS {base!r} is not 1")
    if not lin > fox - 0.01:
        problems.append(f"LinOpt MIPS {lin:.4f} below Foxton* {fox:.4f}")
    if not lin > 1.02:
        problems.append(f"LinOpt MIPS gain {lin:.4f} <= 1.02")
    if not lin_ed2 < 0.95:
        problems.append(f"LinOpt ED^2 {lin_ed2:.4f} >= 0.95")
    if not abs(sann - lin) < 0.05:
        problems.append(f"SAnn MIPS {sann:.4f} not within 0.05 of "
                        f"LinOpt {lin:.4f}")
    if out["ops"] != FIG11_DECISIONS:
        problems.append(f"{out['ops']} decisions, expected "
                        f"{FIG11_DECISIONS}")
    return problems


def _fleet_shape(out: Dict[str, Any]) -> List[str]:
    """Fleet orderings (benchmarks/test_bench_fleet.py)."""
    freq = out["summary"]["freq_ratio"]
    power = out["summary"]["power_ratio"]
    problems = []
    if not 1.05 < freq["mean"] < 1.45:
        problems.append(f"mean freq ratio {freq['mean']:.4f}")
    if not 1.1 < power["mean"] < 1.9:
        problems.append(f"mean power ratio {power['mean']:.4f}")
    if not freq["count"] == power["count"] == out["ops"] == FLEET_DIES:
        problems.append(f"counts {freq['count']}/{power['count']}/"
                        f"{out['ops']}, expected {FLEET_DIES}")
    return problems


def _daemon_shape(out: Dict[str, Any]) -> List[str]:
    problems = [f"error reply: {e}" for e in out["errors"]]
    short = [i for i, n in enumerate(out["decisions"])
             if n != DAEMON_ROUNDS]
    if short:
        problems.append(f"tenants {short} did not take "
                        f"{DAEMON_ROUNDS} decisions")
    return problems


_SHAPES = {"fig11_sann": _fig11_shape, "fleet_cold": _fleet_shape,
           "daemon_durable": _daemon_shape}


def _restart_problems(restart: Dict[str, Any], tenants: int) -> List[str]:
    problems = []
    if restart["tenants"] != tenants:
        problems.append(f"restart sees {restart['tenants']} of "
                        f"{tenants} tenants")
    if restart["quarantined"] or restart["recovery"]["tenants_quarantined"]:
        problems.append(f"restart quarantined {restart['quarantined']}")
    if not restart["traces_match"]:
        problems.append("restart trace summaries differ from pre-kill")
    return problems


def verify(result: Dict[str, Any], pinned: Dict[str, Any],
           reference: Optional[str] = None) -> Verdict:
    """Check one workload run's outputs.

    Args:
        result: The workload child's ``result.json``.
        pinned: ``digests.json``; its digests apply at its seed only.
        reference: A digest this run must reproduce (the untraced
            run's, when checking a traced one).
    """
    workload = result["workload"]
    expected = reference
    if expected is None and result["seed"] == pinned["seed"]:
        expected = pinned[workload]
    verdict = Verdict()
    first = result["passes"][0]["digest"]
    for index, out in enumerate(result["passes"]):
        problems = _SHAPES[workload](out)
        if expected is not None and out["digest"] != expected:
            problems.append(f"digest {out['digest'][:16]} != expected "
                            f"{expected[:16]}")
        elif out["digest"] != first:
            problems.append("digest differs from the run's first pass")
        verdict.attempted += out["ops"]
        if problems:
            verdict.failed += out["ops"]
            verdict.problems += [f"pass {index}: {p}" for p in problems]
    for index, restart in enumerate(result.get("restarts", [])):
        problems = _restart_problems(restart, result["tenants"])
        verdict.attempted += 1
        if problems:
            verdict.failed += 1
            verdict.problems += [f"restart {index}: {p}" for p in problems]
    return verdict
