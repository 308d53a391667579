"""Tests for repro.workloads (Table 5 profiles, phases, workloads)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.runtime.evaluation import Assignment, evaluate_levels
from repro.workloads import (
    AppProfile,
    PhasedApplication,
    REF_FREQ_HZ,
    REF_VDD,
    SPEC_APPS,
    Workload,
    get_app,
    make_workload,
    phases,
)
from tests.references import phase_state_at

# (name, dynamic power W, IPC) exactly as printed in Table 5.
TABLE5 = [
    ("applu", 4.3, 1.1), ("apsi", 1.6, 0.1), ("art", 2.4, 0.2),
    ("bzip2", 3.7, 1.1), ("crafty", 3.9, 1.1), ("equake", 2.1, 0.3),
    ("gap", 3.5, 1.0), ("gzip", 2.7, 0.7), ("mcf", 1.5, 0.1),
    ("mgrid", 2.2, 0.4), ("parser", 2.8, 0.7), ("swim", 2.2, 0.3),
    ("twolf", 2.3, 0.4), ("vortex", 4.4, 1.2),
]


class TestTable5RoundTrip:
    @pytest.mark.parametrize("name,power,ipc", TABLE5)
    def test_dynamic_power(self, name, power, ipc):
        app = get_app(name)
        assert app.dynamic_power_at(REF_VDD, REF_FREQ_HZ) == pytest.approx(
            power)

    @pytest.mark.parametrize("name,power,ipc", TABLE5)
    def test_ipc(self, name, power, ipc):
        assert get_app(name).ipc_at(REF_FREQ_HZ) == pytest.approx(ipc)

    def test_fourteen_apps(self):
        assert len(SPEC_APPS) == 14

    def test_get_app_unknown(self):
        with pytest.raises(KeyError):
            get_app("gcc")


class TestCpiSplitModel:
    def test_ipc_rises_as_frequency_falls_for_memory_bound(self):
        mcf = get_app("mcf")
        assert mcf.ipc_at(2e9) > mcf.ipc_at(4e9)

    def test_compute_bound_ipc_nearly_flat(self):
        crafty = get_app("crafty")
        ratio = crafty.ipc_at(2e9) / crafty.ipc_at(4e9)
        assert 1.0 <= ratio < 1.1

    def test_throughput_increases_with_frequency(self):
        for app in SPEC_APPS:
            assert app.throughput_at(4e9) > app.throughput_at(2e9)

    def test_cpi_decomposition_identity(self):
        for app in SPEC_APPS:
            cpi = app.cpi_core + app.mem_seconds_per_instr * REF_FREQ_HZ
            assert cpi == pytest.approx(app.cpi_ref)

    def test_low_ipc_apps_are_memory_bound(self):
        # The correlation the VarF&AppIPC intuition relies on.
        mem = [a.mem_cpi_fraction for a in SPEC_APPS]
        ipc = [a.ipc_ref for a in SPEC_APPS]
        assert np.corrcoef(mem, ipc)[0, 1] < -0.6

    @given(st.sampled_from([a.name for a in SPEC_APPS]),
           st.floats(min_value=1e9, max_value=8e9))
    @settings(max_examples=40)
    def test_ipc_positive_and_bounded(self, name, freq):
        app = get_app(name)
        ipc = app.ipc_at(freq)
        assert 0 < ipc < 1.0 / app.cpi_core + 1e-9

    def test_validation(self):
        with pytest.raises(ValueError):
            AppProfile("x", -1.0, 1.0, 0.1)
        with pytest.raises(ValueError):
            AppProfile("x", 1.0, 0.0, 0.1)
        with pytest.raises(ValueError):
            AppProfile("x", 1.0, 1.0, 1.0)


class TestPhases:
    def test_reproducible(self):
        app = get_app("bzip2")
        a = PhasedApplication(app, seed=3)
        b = PhasedApplication(app, seed=3)
        for t in (0.0, 0.05, 0.2, 1.0):
            assert phase_state_at(a, t).ipc_multiplier == pytest.approx(
                phase_state_at(b, t).ipc_multiplier)

    def test_multipliers_positive(self):
        ph = PhasedApplication(get_app("mcf"), seed=1)
        for t in np.linspace(0, 2.0, 50):
            s = phase_state_at(ph, float(t))
            assert s.ipc_multiplier > 0
            assert s.power_multiplier > 0

    def test_mean_near_one(self, monkeypatch):
        monkeypatch.setattr(phases, "MEAN_PHASE_S", 0.01)
        ph = PhasedApplication(get_app("swim"), seed=2)
        mults = [phase_state_at(ph, t).ipc_multiplier
                 for t in np.arange(0, 20.0, 0.01)]
        assert np.mean(mults) == pytest.approx(1.0, abs=0.12)

    def test_phases_actually_change(self, monkeypatch):
        monkeypatch.setattr(phases, "MEAN_PHASE_S", 0.01)
        ph = PhasedApplication(get_app("gap"), seed=4)
        mults = {round(phase_state_at(ph, t).ipc_multiplier, 6)
                 for t in np.arange(0, 1.0, 0.01)}
        assert len(mults) > 10

    def test_zero_sigma_is_constant(self, monkeypatch):
        monkeypatch.setattr(phases, "PHASE_SIGMA", 0.0)
        ph = PhasedApplication(get_app("gap"), seed=4)
        for t in np.linspace(0, 1.0, 20):
            assert phase_state_at(
                ph, float(t)).ipc_multiplier == pytest.approx(1.0)

    def test_rejects_negative_time(self):
        ph = PhasedApplication(get_app("gap"))
        with pytest.raises(ValueError):
            phase_state_at(ph, -0.1)

    def test_ipc_at_combines_profile_and_phase(self, chip):
        """The model's IPC is the profile's ``ipc_at`` scaled by the
        timeline's phase multiplier, which is ``phase_state_at``'s."""
        app = get_app("gzip")
        ph = PhasedApplication(app, seed=7)
        ends, ipc, _ = ph.timeline_until(0.3)
        top = chip.cores[0].vf_table.n_levels - 1
        for t in (0.0, 0.1, 0.3):
            mult = ipc[np.searchsorted(ends, t, side="right")]
            assert mult == phase_state_at(ph, t).ipc_multiplier
            state = evaluate_levels(chip, Workload((app,)),
                                    Assignment(core_of=(0,)), [top],
                                    ipc_multipliers=[mult])
            assert state.ipcs[0] == app.ipc_at(state.freqs[0]) * mult

    def test_boundaries_until_match_state_at(self, monkeypatch):
        """The bulk timeline agrees with pointwise phase_state_at()."""
        monkeypatch.setattr(phases, "MEAN_PHASE_S", 0.02)
        ph = PhasedApplication(get_app("art"), seed=9)
        ends, ipc, power = ph.timeline_until(0.5)
        assert ends.size == ipc.size == power.size
        assert np.all(np.diff(ends) > 0)
        assert ends[-1] >= 0.5  # horizon covers the requested end
        inner = ends[ends < 0.5]
        assert inner.size > 3  # the sweep actually crosses boundaries
        # Same segment selection as phase_state_at on both sides of
        # each edge.
        probe = PhasedApplication(get_app("art"), seed=9)
        times = np.concatenate([[0.0], inner - 1e-9, inner, [0.499]])
        idx = np.searchsorted(ends, times, side="right")
        for t, i in zip(times, idx):
            s = phase_state_at(probe, float(t))
            assert s.ipc_multiplier == ipc[i]
            assert s.power_multiplier == power[i]

    def test_boundaries_until_is_prefix_stable(self, monkeypatch):
        """A longer horizon only extends the timeline."""
        monkeypatch.setattr(phases, "MEAN_PHASE_S", 0.02)
        ph = PhasedApplication(get_app("art"), seed=9)
        short = ph.timeline_until(0.2)
        long = ph.timeline_until(0.6)
        assert long[0][-1] >= 0.6 > short[0][-1]
        for a, b in zip(short, long):
            np.testing.assert_array_equal(b[:a.size], a)

    def test_boundaries_does_not_disturb_state_at(self, monkeypatch):
        monkeypatch.setattr(phases, "MEAN_PHASE_S", 0.02)
        a = PhasedApplication(get_app("mcf"), seed=12)
        b = PhasedApplication(get_app("mcf"), seed=12)
        a.timeline_until(1.0)  # pre-materialise segments
        for t in np.linspace(0.0, 1.5, 40):
            assert phase_state_at(a, float(t)).ipc_multiplier == \
                phase_state_at(b, float(t)).ipc_multiplier


class TestWorkloads:
    def test_size(self):
        wl = make_workload(6, np.random.default_rng(0))
        assert wl.n_threads == 6

    def test_no_duplicates_below_pool_size(self):
        wl = make_workload(14, np.random.default_rng(1))
        names = [a.name for a in wl]
        assert len(set(names)) == 14

    def test_duplicates_allowed_beyond_pool(self):
        wl = make_workload(20, np.random.default_rng(2))
        assert wl.n_threads == 20

    def test_trials_reproducible(self):
        a = [make_workload(8, np.random.default_rng([5, t]))
             for t in range(3)]
        b = [make_workload(8, np.random.default_rng([5, t]))
             for t in range(3)]
        for wa, wb in zip(a, b):
            assert [x.name for x in wa] == [x.name for x in wb]

    def test_trials_differ(self):
        trials = [make_workload(8, np.random.default_rng([5, t]))
                  for t in range(5)]
        names = {tuple(a.name for a in wl) for wl in trials}
        assert len(names) > 1

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            make_workload(0, np.random.default_rng(0))
        with pytest.raises(ValueError):
            Workload(threads=())

    def test_indexing_and_iteration(self):
        wl = make_workload(4, np.random.default_rng(3))
        assert wl[0] is wl.threads[0]
        assert len(list(wl)) == 4
