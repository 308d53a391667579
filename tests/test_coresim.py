"""Tests for the trace-driven core simulator (SESC substitute)."""

import numpy as np
import pytest

from repro.coresim import (
    Cache,
    CacheHierarchy,
    CoreSimulator,
    InstrType,
    LINE_BYTES,
    TRACE_CLASSES,
    TraceGenerator,
    TraceParams,
    derive_app_profile,
    dynamic_power_from_activity,
)
from repro.coresim.core import REF_FREQ_HZ


class TestCache:
    def test_compulsory_miss_then_hit(self):
        cache = Cache(1024, 2)
        assert not cache.access(0)
        assert cache.access(0)
        assert cache.access(63)      # same line
        assert not cache.access(64)  # next line

    def test_lru_eviction(self):
        # 2 ways, hammer three lines mapping to the same set.
        cache = Cache(2 * LINE_BYTES, 2)  # a single set
        a, b, c = 0, LINE_BYTES, 2 * LINE_BYTES
        cache.access(a)
        cache.access(b)
        cache.access(c)             # evicts a (LRU)
        assert not cache.access(a)  # a was evicted
        assert cache.access(c)      # c still resident

    def test_lru_updated_on_hit(self):
        cache = Cache(2 * LINE_BYTES, 2)
        a, b, c = 0, LINE_BYTES, 2 * LINE_BYTES
        cache.access(a)
        cache.access(b)
        cache.access(a)             # refresh a
        cache.access(c)             # evicts b now
        assert cache.access(a)
        assert not cache.access(b)

    def test_capacity_behaviour(self):
        # Working set larger than the cache keeps missing; smaller
        # working set stops missing after the first pass.
        small = Cache(1024, 2)
        lines_fit = 1024 // LINE_BYTES
        for sweep in range(3):
            for i in range(lines_fit):
                small.access(i * LINE_BYTES)
        stats = small.stats
        assert stats.misses == lines_fit  # only compulsory

    def test_stats(self):
        cache = Cache(1024, 2)
        cache.access(0)
        cache.access(0)
        assert cache.stats.accesses == 2
        assert cache.stats.misses == 1
        assert cache.stats.hits == 1

    def test_flush(self):
        cache = Cache(1024, 2)
        cache.access(0)
        cache.flush()
        assert not cache.access(0)

    def test_install_makes_line_resident(self):
        cache = Cache(1024, 2)
        cache.install(128)
        assert cache.access(128)
        assert cache.stats.accesses == 1  # install not counted

    def test_geometry_validation(self):
        with pytest.raises(ValueError):
            Cache(0, 2)
        with pytest.raises(ValueError):
            Cache(1024, 3)  # 16 lines don't divide into 3 ways
        with pytest.raises(ValueError):
            Cache(1024, 2).access(-1)


class TestHierarchy:
    def test_miss_path(self):
        h = CacheHierarchy(next_line_prefetch=False)
        assert h.data_access(0) == "mem"
        assert h.data_access(0) == "l1"

    def test_l2_catches_l1_eviction(self):
        h = CacheHierarchy(next_line_prefetch=False)
        h.data_access(0)
        # Evict line 0 from the 2-way L1 by touching conflicting lines
        # (same L1 set, different L2 sets).
        for i in range(1, 7):
            h.data_access(i * 16 * 1024)
        assert h.data_access(0) == "l2"

    def test_prefetch_covers_streaming(self):
        with_pf = CacheHierarchy(next_line_prefetch=True)
        without = CacheHierarchy(next_line_prefetch=False)
        base = 1 << 20
        for h in (with_pf, without):
            for i in range(512):
                h.data_access(base + i * LINE_BYTES)
        assert (with_pf.l2.stats.misses
                < 0.3 * without.l2.stats.misses)


class TestTraceGenerator:
    def test_reproducible(self):
        p = TRACE_CLASSES["compute"]
        a = TraceGenerator(p, seed=5).generate(2000)
        b = TraceGenerator(p, seed=5).generate(2000)
        assert [(i.itype, i.pc, i.address) for i in a] == \
               [(i.itype, i.pc, i.address) for i in b]

    def test_mix_matches_params(self):
        p = TraceParams(frac_fp=0.3, frac_branch=0.1, frac_load=0.2,
                        frac_store=0.1)
        trace = TraceGenerator(p, seed=1).generate(30_000)
        counts = {t: 0 for t in InstrType}
        for instr in trace:
            counts[instr.itype] += 1
        n = len(trace)
        assert counts[InstrType.FP] / n == pytest.approx(0.3, abs=0.02)
        assert counts[InstrType.BRANCH] / n == pytest.approx(0.1,
                                                             abs=0.02)
        assert counts[InstrType.LOAD] / n == pytest.approx(0.2,
                                                           abs=0.02)

    def test_memory_ops_have_addresses(self):
        trace = TraceGenerator(TRACE_CLASSES["memory"],
                               seed=2).generate(5000)
        for instr in trace:
            if instr.itype in (InstrType.LOAD, InstrType.STORE):
                assert instr.address is not None
            else:
                assert instr.address is None

    def test_mix_validation(self):
        with pytest.raises(ValueError):
            TraceParams(frac_fp=0.6, frac_branch=0.3, frac_load=0.2,
                        frac_store=0.1)
        with pytest.raises(ValueError):
            TraceParams(frac_sequential=0.8, frac_hot=0.5)
        with pytest.raises(ValueError):
            TraceParams(hot_set_bytes=0)

    def test_generate_validation(self):
        gen = TraceGenerator(TRACE_CLASSES["compute"])
        with pytest.raises(ValueError):
            gen.generate(0)


class TestCoreSimulator:
    def test_class_spectrum(self):
        """The three built-in classes span the Table 5 spectrum."""
        ipc = {}
        for name in ("compute", "streaming", "memory"):
            sim = CoreSimulator(TRACE_CLASSES[name], seed=0)
            summary = sim.run(40_000, warmup=40_000)
            ipc[name] = summary.ipc_at(REF_FREQ_HZ)
        assert ipc["compute"] > ipc["streaming"] > ipc["memory"]
        assert ipc["compute"] > 0.5
        assert ipc["memory"] < 0.3

    def test_memory_bound_ipc_compensates(self):
        sim = CoreSimulator(TRACE_CLASSES["memory"], seed=0)
        summary = sim.run(30_000, warmup=30_000)
        assert summary.ipc_at(2e9) > 1.3 * summary.ipc_at(4e9)

    def test_compute_bound_ipc_flat(self):
        sim = CoreSimulator(TRACE_CLASSES["compute"], seed=0)
        summary = sim.run(30_000, warmup=60_000)
        ratio = summary.ipc_at(2e9) / summary.ipc_at(4e9)
        assert 1.0 <= ratio < 1.35

    def test_throughput_still_rises_with_frequency(self):
        for name in TRACE_CLASSES:
            sim = CoreSimulator(TRACE_CLASSES[name], seed=0)
            s = sim.run(20_000, warmup=20_000)
            assert s.ipc_at(4e9) * 4e9 > s.ipc_at(2e9) * 2e9

    def test_activity_counts_cover_trace(self):
        sim = CoreSimulator(TRACE_CLASSES["compute"], seed=0)
        s = sim.run(10_000, warmup=0)
        assert s.activity["l1i"] == s.n_instructions
        assert s.activity["regfile"] == s.n_instructions
        assert s.activity["int_alu"] > 0
        assert s.activity["bpred"] > 0

    def test_validation(self):
        sim = CoreSimulator(TRACE_CLASSES["compute"])
        with pytest.raises(ValueError):
            sim.run(0)
        s = sim.run(1000, warmup=0)
        with pytest.raises(ValueError):
            s.ipc_at(0.0)


class TestProfileDerivation:
    @pytest.fixture(scope="class")
    def derived(self):
        return {name: derive_app_profile(params, f"sim-{name}",
                                         n_instructions=60_000)
                for name, params in TRACE_CLASSES.items()}

    def test_profiles_in_table5_range(self, derived):
        for sp in derived.values():
            p = sp.profile
            assert 0.03 < p.ipc_ref < 1.5
            assert 0.5 < p.dynamic_power_ref < 6.0

    def test_power_ipc_correlation(self, derived):
        """Table 5's structural fact: dynamic power tracks IPC."""
        ipcs = [sp.profile.ipc_ref for sp in derived.values()]
        pows = [sp.profile.dynamic_power_ref
                for sp in derived.values()]
        assert np.corrcoef(ipcs, pows)[0, 1] > 0.7

    def test_cpi_split_model_cross_validates(self, derived):
        """The analytical CPI-split profile must track the simulator's
        own IPC(f) — the substitution DESIGN.md claims."""
        for name, sp in derived.items():
            for freq in (1.5e9, 2e9, 3e9, 4e9):
                analytical = sp.profile.ipc_at(freq)
                simulated = sp.summary.ipc_at(freq)
                assert analytical == pytest.approx(
                    simulated, rel=0.15), name

    def test_power_from_activity_scales(self, derived):
        sp = derived["compute"]
        p1 = dynamic_power_from_activity(sp.summary, 4e9, 1.0)
        p2 = dynamic_power_from_activity(sp.summary, 4e9, 0.8)
        assert p2 == pytest.approx(p1 * 0.64, rel=1e-9)
        with pytest.raises(ValueError):
            dynamic_power_from_activity(sp.summary, -1.0, 1.0)
