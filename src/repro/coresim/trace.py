"""Synthetic instruction-trace generation.

SPEC binaries and the reference inputs are not distributable, so the
trace-driven simulator runs on synthetic traces whose statistical
knobs — instruction mix, memory locality, branch behaviour — are set
per application class. The generator is a small Markov process:

* instruction types are drawn from the mix (int ALU, FP, branch,
  load, store);
* the data-address stream mixes three access patterns: sequential
  striding (spatial locality), revisits to a hot working set
  (temporal locality), and uniform accesses over a large footprint
  (the part that misses in L2);
* the instruction-address stream walks loop bodies with occasional
  jumps, re-entering a small hot code region.

Traces are reproducible from (params, seed).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from .cache import LINE_BYTES


class InstrType(enum.Enum):
    INT_ALU = "int"
    FP = "fp"
    BRANCH = "branch"
    LOAD = "load"
    STORE = "store"


@dataclass(frozen=True)
class Instruction:
    """One dynamic instruction of a synthetic trace."""

    itype: InstrType
    pc: int
    address: Optional[int] = None  # data address for loads/stores


@dataclass(frozen=True)
class TraceParams:
    """Statistical knobs of a synthetic application.

    Attributes:
        frac_fp/frac_branch/frac_load/frac_store: Instruction mix
            (the remainder is integer ALU).
        hot_set_bytes: Size of the hot data working set (temporal
            locality; fits in L1/L2 depending on size).
        footprint_bytes: Total data footprint (uniform component).
        frac_sequential: Share of data accesses that stride.
        frac_hot: Share of data accesses hitting the hot set.
        code_bytes: Hot code region size.
        mispredict_rate: Branch mispredictions per branch.
        dependency_factor: 0..1 — how serialised the instruction
            stream is (limits issue parallelism in the core model).
    """

    frac_fp: float = 0.10
    frac_branch: float = 0.15
    frac_load: float = 0.22
    frac_store: float = 0.10
    hot_set_bytes: int = 8 * 1024
    footprint_bytes: int = 64 * 1024 * 1024
    frac_sequential: float = 0.45
    frac_hot: float = 0.45
    code_bytes: int = 8 * 1024
    mispredict_rate: float = 0.04
    dependency_factor: float = 0.35

    def __post_init__(self) -> None:
        fractions = (self.frac_fp, self.frac_branch, self.frac_load,
                     self.frac_store, self.frac_sequential,
                     self.frac_hot, self.mispredict_rate,
                     self.dependency_factor)
        if any(f < 0 for f in fractions):
            raise ValueError("fractions must be non-negative")
        if self.frac_fp + self.frac_branch + self.frac_load \
                + self.frac_store > 1.0 + 1e-9:
            raise ValueError("instruction mix exceeds 1")
        if self.frac_sequential + self.frac_hot > 1.0 + 1e-9:
            raise ValueError("data-pattern shares exceed 1")
        if min(self.hot_set_bytes, self.footprint_bytes,
               self.code_bytes) <= 0:
            raise ValueError("sizes must be positive")


class TraceGenerator:
    """Reproducible synthetic-trace source."""

    # Data segment starts far above the code segment.
    DATA_BASE = 1 << 30

    def __init__(self, params: TraceParams, seed: int = 0) -> None:
        self.params = params
        self._rng = np.random.default_rng([seed, 0xACE])
        self._pc = 0
        self._stride_ptr = self.DATA_BASE
        self._stride_count = 0

    def generate(self, n_instructions: int) -> List[Instruction]:
        """Generate the next ``n_instructions`` of the trace."""
        if n_instructions <= 0:
            raise ValueError("n_instructions must be positive")
        p = self.params
        rng = self._rng
        mix = rng.random(n_instructions)
        pattern = rng.random(n_instructions)
        out: List[Instruction] = []
        f_fp = p.frac_fp
        f_br = f_fp + p.frac_branch
        f_ld = f_br + p.frac_load
        f_st = f_ld + p.frac_store
        for k in range(n_instructions):
            # Hot-loop instruction stream: mostly sequential PCs,
            # wrapping inside the hot code region.
            self._pc = (self._pc + 4) % p.code_bytes
            pc = self._pc
            u = mix[k]
            if u < f_fp:
                out.append(Instruction(InstrType.FP, pc))
            elif u < f_br:
                if rng.random() < 0.1:  # taken far jump
                    self._pc = int(rng.integers(0, p.code_bytes // 4)) * 4
                out.append(Instruction(InstrType.BRANCH, pc))
            elif u < f_st or u < f_ld:
                address = self._data_address(pattern[k])
                itype = (InstrType.LOAD if u < f_ld
                         else InstrType.STORE)
                out.append(Instruction(itype, pc, address=address))
            else:
                out.append(Instruction(InstrType.INT_ALU, pc))
        return out

    def _data_address(self, u: float) -> int:
        p = self.params
        if u < p.frac_sequential:
            # Striding through memory, one line every few accesses.
            self._stride_count += 1
            if self._stride_count % 4 == 0:
                self._stride_ptr += LINE_BYTES
                if (self._stride_ptr
                        > self.DATA_BASE + p.footprint_bytes):
                    self._stride_ptr = self.DATA_BASE
            return self._stride_ptr
        if u < p.frac_sequential + p.frac_hot:
            offset = int(self._rng.integers(0, p.hot_set_bytes))
            return self.DATA_BASE + offset
        offset = int(self._rng.integers(0, p.footprint_bytes))
        return self.DATA_BASE + offset


# Trace parameterisations for representative application classes,
# loosely mirroring the SPEC pool's behaviour spectrum.
TRACE_CLASSES = {
    # compute-bound, cache-friendly (crafty/vortex-like)
    "compute": TraceParams(frac_fp=0.02, frac_branch=0.18,
                           frac_load=0.25, frac_store=0.10,
                           hot_set_bytes=12 * 1024,
                           footprint_bytes=256 * 1024,
                           frac_sequential=0.25, frac_hot=0.74,
                           mispredict_rate=0.05,
                           dependency_factor=0.12),
    # floating-point streaming (swim/applu-like)
    "streaming": TraceParams(frac_fp=0.35, frac_branch=0.05,
                             frac_load=0.25, frac_store=0.12,
                             hot_set_bytes=16 * 1024,
                             footprint_bytes=256 * 1024 * 1024,
                             frac_sequential=0.80, frac_hot=0.19,
                             mispredict_rate=0.01,
                             dependency_factor=0.25),
    # pointer-chasing memory hog (mcf-like)
    "memory": TraceParams(frac_fp=0.01, frac_branch=0.20,
                          frac_load=0.30, frac_store=0.08,
                          hot_set_bytes=4 * 1024,
                          footprint_bytes=512 * 1024 * 1024,
                          frac_sequential=0.10, frac_hot=0.855,
                          mispredict_rate=0.08,
                          dependency_factor=0.65),
}
