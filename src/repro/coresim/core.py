"""Interval-style out-of-order core model (the SESC substitute).

A first-order interval model (Karkhanis & Smith): in the absence of
miss events, a ``width``-issue out-of-order core sustains a base IPC
limited by issue width and the trace's dependency structure; each miss
event inserts a stall interval:

* branch mispredictions cost the front-end refill time (7 cycles per
  Table 4);
* L1 misses hitting in L2 cost the L2 latency (8-12 cycles,
  partially hidden by out-of-order overlap);
* L2 misses cost the 400-cycle (at 4 GHz) memory latency, which in
  *wall-clock* terms is fixed — so its cycle cost scales with the
  core's frequency, which is exactly where the memory-bound IPC
  compensation comes from.

The model is evaluated per simulated trace chunk and produces both
IPC(f) and per-unit activity counts for the dynamic power model.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Sequence

import numpy as np

from .cache import CacheHierarchy
from .trace import Instruction, InstrType, TraceGenerator, TraceParams

# Table 4 core parameters.
ISSUE_WIDTH = 2
MISPREDICT_PENALTY_CYCLES = 7
L2_HIT_CYCLES = 10          # 8-12 cycle access, midpoint
MEMORY_LATENCY_CYCLES_AT_4GHZ = 400
REF_FREQ_HZ = 4.0e9
# Out-of-order execution hides part of the L2-hit latency.
L2_OVERLAP = 0.5
# And a small part of memory latency (MLP from independent misses).
MEM_OVERLAP = 0.15


@dataclass(frozen=True)
class TraceSummary:
    """Event counts extracted from one simulated trace.

    These are frequency-independent; IPC at any frequency follows in
    closed form from them (:meth:`ipc_at`).
    """

    n_instructions: int
    base_cpi: float
    mispredicts: int
    l2_hits: int
    l2_misses: int
    activity: Dict[str, int]

    def cpi_at(self, freq_hz: float) -> float:
        """Cycles per instruction at a core frequency."""
        if freq_hz <= 0:
            raise ValueError("frequency must be positive")
        n = self.n_instructions
        mem_cycles = (MEMORY_LATENCY_CYCLES_AT_4GHZ
                      * freq_hz / REF_FREQ_HZ)
        stall = (self.mispredicts * MISPREDICT_PENALTY_CYCLES
                 + self.l2_hits * L2_HIT_CYCLES * (1 - L2_OVERLAP)
                 + self.l2_misses * mem_cycles * (1 - MEM_OVERLAP))
        return self.base_cpi + stall / n

    def ipc_at(self, freq_hz: float) -> float:
        return 1.0 / self.cpi_at(freq_hz)

    @property
    def memory_cpi_fraction(self) -> float:
        """Share of reference-frequency CPI spent on L2 misses."""
        cpi = self.cpi_at(REF_FREQ_HZ)
        mem = (self.l2_misses * MEMORY_LATENCY_CYCLES_AT_4GHZ
               * (1 - MEM_OVERLAP)) / self.n_instructions
        return mem / cpi


class CoreSimulator:
    """Trace-driven interval simulation of one core."""

    def __init__(self, params: TraceParams, seed: int = 0) -> None:
        self.params = params
        self.generator = TraceGenerator(params, seed=seed)
        self.hierarchy = CacheHierarchy()

    def run(self, n_instructions: int,
            warmup: int = 100_000) -> TraceSummary:
        """Simulate a trace chunk (after cache warm-up).

        Args:
            n_instructions: Instructions measured.
            warmup: Instructions executed beforehand to warm the
                caches (not counted).

        Returns:
            A :class:`TraceSummary` with event counts and activity.
        """
        if n_instructions <= 0:
            raise ValueError("n_instructions must be positive")
        if warmup > 0:
            self._execute(self.generator.generate(warmup))
        return self._execute(self.generator.generate(n_instructions))

    def _execute(self, trace: Sequence[Instruction]) -> TraceSummary:
        p = self.params
        rng = np.random.default_rng(0xF00D)
        mispredicts = 0
        l2_hits = 0
        l2_misses = 0
        activity: Dict[str, int] = {
            "int_alu": 0, "fpu": 0, "bpred": 0, "l1i": 0, "l1d": 0,
            "l2": 0, "regfile": 0,
        }
        branch_draws = rng.random(len(trace))
        for k, instr in enumerate(trace):
            where = self.hierarchy.fetch(instr.pc)
            activity["l1i"] += 1
            activity["regfile"] += 1
            if where == "l2":
                activity["l2"] += 1
                l2_hits += 1
            elif where == "mem":
                activity["l2"] += 1
                l2_misses += 1
            if instr.itype is InstrType.FP:
                activity["fpu"] += 1
            elif instr.itype is InstrType.BRANCH:
                activity["bpred"] += 1
                if branch_draws[k] < p.mispredict_rate:
                    mispredicts += 1
            elif instr.itype in (InstrType.LOAD, InstrType.STORE):
                activity["l1d"] += 1
                where = self.hierarchy.data_access(instr.address)
                if where == "l2":
                    activity["l2"] += 1
                    l2_hits += 1
                elif where == "mem":
                    activity["l2"] += 1
                    l2_misses += 1
            else:
                activity["int_alu"] += 1
        # Base CPI: issue-width limit inflated by dependency chains.
        base_cpi = (1.0 / ISSUE_WIDTH) * (1.0 + 2.0 * p.dependency_factor)
        return TraceSummary(
            n_instructions=len(trace),
            base_cpi=base_cpi,
            mispredicts=mispredicts,
            l2_hits=l2_hits,
            l2_misses=l2_misses,
            activity=activity,
        )
