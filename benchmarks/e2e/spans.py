"""Outside-in span recorder for the end-to-end benchmark.

The benchmark times the repro package's layers without editing them:
:func:`install` wraps the public functions listed in :data:`TARGETS`
where they are bound. A method is patched on its class, so every
instance and every subclass that does not override it is covered. A
module function is rebound in every loaded ``repro`` module that holds
it, which catches ``from x import f`` bindings such as
``repro.runtime.simulation.evaluate_levels``.

Spans nest per thread. A span's *self* time is its duration minus the
durations of the spans it directly encloses. Spans stay in memory and
are written once, by :meth:`Recorder.dump`, when the process is done.
Nothing is wrapped unless a caller installs a recorder, so untraced
runs execute the unmodified package.
"""

from __future__ import annotations

import collections
import contextlib
import functools
import importlib
import json
import statistics
import sys
import threading
import time
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

#: (span name, module, attribute). A dotted attribute is a method,
#: patched on its class; a bare one is a module-level function. One
#: span name may cover several attributes (both field samplers, every
#: LP backend).
TARGETS: Tuple[Tuple[str, str, str], ...] = (
    ("kernel.evaluate_levels_batch", "repro.runtime.kernel",
     "EvalKernel.evaluate_levels_batch"),
    ("kernel.evaluate_levels_fleet", "repro.runtime.kernel",
     "FleetEvalKernel.evaluate_levels_fleet"),
    ("thermal.solve_many", "repro.thermal.rc_network",
     "ThermalNetwork.solve_many"),
    ("thermal.solve", "repro.thermal.rc_network", "ThermalNetwork.solve"),
    ("thermal.solve_with_leakage", "repro.thermal.hotspot",
     "solve_with_leakage"),
    ("evaluation.evaluate_levels", "repro.runtime.evaluation",
     "evaluate_levels"),
    ("evaluation.evaluate_explicit", "repro.runtime.evaluation",
     "evaluate_explicit"),
    ("simulation.advance_until", "repro.runtime.simulation",
     "SimulationStepper.advance_until"),
    ("simulation.run_to_end", "repro.runtime.simulation",
     "SimulationStepper.run_to_end"),
    ("pm.sann.set_levels", "repro.pm.sann", "SAnnManager.set_levels"),
    ("pm.linopt.set_levels", "repro.pm.linopt", "LinOpt.set_levels"),
    ("pm.foxton.set_levels", "repro.pm.foxton", "FoxtonStar.set_levels"),
    ("pm.resilient.set_levels", "repro.faults.resilient",
     "ResilientManager.set_levels"),
    ("linprog.solve", "repro.linprog.backends",
     "BoundedSimplexBackend.solve"),
    ("linprog.solve", "repro.linprog.backends",
     "ReferenceSimplexBackend.solve"),
    ("linprog.solve", "repro.linprog.backends", "HighsBackend.solve"),
    ("variation.sample_batch", "repro.variation.spatial",
     "CholeskyFieldSampler.sample_batch"),
    ("variation.sample_batch", "repro.variation.spatial",
     "CirculantFieldSampler.sample_batch"),
    ("chip.characterize_dies", "repro.chip.batch", "characterize_dies"),
    ("parallel.characterize_batch", "repro.parallel.runner",
     "characterize_batch"),
    ("sched.assign_with_profiling", "repro.sched.base",
     "SchedulingPolicy.assign_with_profiling"),
    ("fleet.fleet_die_metrics", "repro.fleet.campaign",
     "fleet_die_metrics"),
    ("fleet.write_shard", "repro.fleet.shards", "write_shard"),
    ("parallel.journal.record", "repro.parallel.journal",
     "RunJournal.record"),
    ("daemon.oplog.append", "repro.daemon.durability", "OpLog.append"),
    ("daemon.snapshot.write", "repro.daemon.durability",
     "TenantStore.write_snapshot"),
    ("daemon.recover", "repro.daemon.controller",
     "DaemonController.recover"),
    ("daemon.controller.advance", "repro.daemon.controller",
     "DaemonController.advance"),
    ("daemon.controller.register", "repro.daemon.controller",
     "DaemonController.register"),
)

#: Every span name, in table order without repeats.
SPAN_NAMES: Tuple[str, ...] = tuple(dict.fromkeys(t[0] for t in TARGETS))

#: Power managers whose per-decision latencies are kept as samples.
MANAGERS = ("sann", "linopt", "foxton", "resilient")

#: The DVFS control interval of every workload that runs managers
#: (the paper's 10 ms); decision latencies are reported in intervals.
CONTROL_INTERVAL_S = 0.010

#: Packages imported before patching, so every module that binds a
#: target function already exists when the bindings are scanned.
_PRELOAD = ("repro.cli", "repro.daemon", "repro.experiments.pm_runner",
            "repro.fleet", "repro.faults")


class Recorder:
    """Per-process span store: aggregates, samples and counts.

    ``spans[name]`` is ``[calls, self_ns, total_ns]``; ``samples``
    keeps every duration of the spans named in ``sampled``;
    ``counts`` sums the work counters read from return values.
    """

    def __init__(self, sampled: Tuple[str, ...] = ()) -> None:
        self.spans: Dict[str, List[int]] = {}
        self.samples: Dict[str, List[int]] = collections.defaultdict(list)
        self.counts: Dict[str, float] = collections.defaultdict(float)
        self._sampled = frozenset(sampled)
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self) -> List[List[int]]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self) -> Tuple[List[int], int]:
        frame = [0]  # nanoseconds covered by direct children
        self._stack().append(frame)
        return frame, time.perf_counter_ns()

    def _close(self, name: str, frame: List[int], start: int) -> None:
        total = time.perf_counter_ns() - start
        stack = self._stack()
        stack.pop()
        if stack:
            stack[-1][0] += total
        with self._lock:
            agg = self.spans.get(name)
            if agg is None:
                agg = self.spans[name] = [0, 0, 0]
            agg[0] += 1
            agg[1] += total - frame[0]
            agg[2] += total
            if name in self._sampled:
                self.samples[name].append(total)

    @contextlib.contextmanager
    def span(self, name: str) -> Iterator[None]:
        """Record one span around a block."""
        frame, start = self._open()
        try:
            yield
        finally:
            self._close(name, frame, start)

    def count(self, name: str, value: float) -> None:
        with self._lock:
            self.counts[name] += float(value)

    def wrap(self, name: str, fn: Callable[..., Any],
             on_result: Optional[Callable[["Recorder", Any], None]] = None,
             ) -> Callable[..., Any]:
        """``fn`` inside a span, with ``on_result`` fed its return."""

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            frame, start = self._open()
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(name, frame, start)
            if on_result is not None:
                on_result(self, result)
            return result

        return traced

    def to_dict(self) -> Dict[str, Any]:
        with self._lock:
            return {"spans": {k: list(v) for k, v in self.spans.items()},
                    "samples": {k: list(v)
                                for k, v in self.samples.items()},
                    "counts": dict(self.counts)}

    def dump(self, path: str) -> None:
        """Write everything recorded so far as one JSON file."""
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.to_dict(), fh, sort_keys=True)


# -- Counters read from public return values ---------------------------


def _count_rows(key: str) -> Callable[[Recorder, Any], None]:
    def hook(rec: Recorder, result: Any) -> None:
        rec.count(key, len(result))
    return hook


def _count_decision(manager: str) -> Callable[[Recorder, Any], None]:
    """PmResult counters. The resilient wrapper forwards its delegate's
    stats, so only the other managers add kernel iterations."""
    def hook(rec: Recorder, result: Any) -> None:
        stats = result.stats
        rec.count(f"pm.{manager}.evaluations", result.evaluations)
        if manager != "resilient":
            rec.count("pm.kernel_fp_iterations",
                      stats.get("kernel_fp_iterations", 0.0))
        if manager == "sann":
            rec.count("pm.sann.cache_hits", stats.get("sa_cache_hits", 0.0))
        if manager == "linopt":
            rec.count("pm.linopt.lp_warm",
                      stats.get("lp_warm_solves", 0.0))
            rec.count("pm.linopt.lp_cold",
                      stats.get("lp_cold_solves", 0.0))
    return hook


def _count_pivots(rec: Recorder, result: Any) -> None:
    rec.count("linprog.pivots", result.iterations)


def _count_recovery(rec: Recorder, result: Any) -> None:
    rec.count("daemon.ops_replayed", result.ops_replayed)
    rec.count("daemon.snapshot_restores", result.snapshot_restores)


HOOKS: Dict[str, Callable[[Recorder, Any], None]] = {
    "kernel.evaluate_levels_batch": _count_rows("kernel.cols"),
    "kernel.evaluate_levels_fleet": _count_rows("kernel.dies"),
    "linprog.solve": _count_pivots,
    "daemon.recover": _count_recovery,
}
HOOKS.update({f"pm.{m}.set_levels": _count_decision(m) for m in MANAGERS})


def install(recorder: Recorder) -> None:
    """Wrap every :data:`TARGETS` entry with ``recorder``'s spans."""
    for module in _PRELOAD:
        importlib.import_module(module)
    for name, module, attr in TARGETS:
        mod = importlib.import_module(module)
        hook = HOOKS.get(name)
        owner, _, fn_name = attr.rpartition(".")
        if owner:
            cls = getattr(mod, owner)
            setattr(cls, fn_name,
                    recorder.wrap(name, cls.__dict__[fn_name], hook))
            continue
        original = getattr(mod, fn_name)
        traced = recorder.wrap(name, original, hook)
        for loaded in list(sys.modules.values()):
            if not getattr(loaded, "__name__", "").startswith("repro"):
                continue
            for key, value in list(vars(loaded).items()):
                if value is original:
                    setattr(loaded, key, traced)


def new_recorder() -> Recorder:
    """A recorder that keeps per-decision samples of every manager."""
    return Recorder(sampled=tuple(f"pm.{m}.set_levels" for m in MANAGERS))


def merge(dumps: List[Dict[str, Any]]) -> Dict[str, Any]:
    """Sum the dumps of several processes (generator plus daemons)."""
    spans: Dict[str, List[int]] = {}
    samples: Dict[str, List[int]] = collections.defaultdict(list)
    counts: Dict[str, float] = collections.defaultdict(float)
    for dump in dumps:
        for name, agg in dump["spans"].items():
            into = spans.setdefault(name, [0, 0, 0])
            for i in range(3):
                into[i] += agg[i]
        for name, values in dump["samples"].items():
            samples[name].extend(values)
        for name, value in dump["counts"].items():
            counts[name] += value
    return {"spans": spans, "samples": dict(samples),
            "counts": dict(counts)}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(merged: Dict[str, Any], wall_s: float,
                  ) -> Dict[str, Tuple[float, str]]:
    """Per-layer metrics (name -> (value, unit)) from merged spans.

    Every span of :data:`SPAN_NAMES` is reported, with zeros where it
    never fired, so each workload prints the same metric set. Span
    times are shares of ``wall_s``, the timed phase's wall time, and
    decision latencies are in control intervals: a metric that is
    zero by construction on some workload is never a time.
    """
    spans = merged["spans"]
    counts = merged["counts"]
    samples = merged["samples"]
    out: Dict[str, Tuple[float, str]] = {}
    for name in SPAN_NAMES:
        calls, self_ns, total_ns = spans.get(name, (0, 0, 0))
        out[f"{name}.calls"] = (float(calls), "count")
        out[f"{name}.self_frac"] = (self_ns / 1e9 / wall_s, "ratio")
        out[f"{name}.total_frac"] = (total_ns / 1e9 / wall_s, "ratio")
    batch_calls = spans.get("kernel.evaluate_levels_batch", (0,))[0]
    fleet_calls = spans.get("kernel.evaluate_levels_fleet", (0,))[0]
    out["kernel.cols_per_call"] = (
        _ratio(counts.get("kernel.cols", 0.0), batch_calls), "count")
    out["kernel.dies_per_call"] = (
        _ratio(counts.get("kernel.dies", 0.0), fleet_calls), "count")
    out["pm.kernel_fp_iterations"] = (
        counts.get("pm.kernel_fp_iterations", 0.0), "count")
    for m in MANAGERS:
        durations = samples.get(f"pm.{m}.set_levels", [])
        p50 = statistics.median(durations) / 1e9 if durations else 0.0
        out[f"pm.{m}.decision_p50_intervals"] = (
            p50 / CONTROL_INTERVAL_S, "ratio")
        out[f"pm.{m}.evaluations"] = (
            counts.get(f"pm.{m}.evaluations", 0.0), "count")
    hits = counts.get("pm.sann.cache_hits", 0.0)
    out["pm.sann.cache_hit_ratio"] = (
        _ratio(hits, hits + counts.get("pm.sann.evaluations", 0.0)),
        "ratio")
    warm = counts.get("pm.linopt.lp_warm", 0.0)
    out["pm.linopt.lp_warm_ratio"] = (
        _ratio(warm, warm + counts.get("pm.linopt.lp_cold", 0.0)),
        "ratio")
    out["linprog.pivots"] = (counts.get("linprog.pivots", 0.0), "count")
    out["daemon.ops_replayed"] = (
        counts.get("daemon.ops_replayed", 0.0), "count")
    out["daemon.snapshot_restores"] = (
        counts.get("daemon.snapshot_restores", 0.0), "count")
    return out
