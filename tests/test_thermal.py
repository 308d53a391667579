"""Tests for repro.thermal (RC network + leakage fixed point)."""

import numpy as np
import pytest

from repro.config import DEFAULT_ARCH
from repro.floorplan import Rect, build_floorplan
from repro.thermal import (
    ThermalNetwork,
    shared_edge_length,
    solve_with_leakage,
)
from repro.thermal.hotspot import ThermalRunawayError


class TestSharedEdgeLength:
    def test_vertical_neighbours(self):
        a = Rect(0, 0, 2, 2)
        b = Rect(2, 0, 4, 2)
        assert shared_edge_length(a, b) == pytest.approx(2.0)

    def test_horizontal_neighbours_partial(self):
        a = Rect(0, 0, 2, 2)
        b = Rect(1, 2, 5, 4)
        assert shared_edge_length(a, b) == pytest.approx(1.0)

    def test_disjoint(self):
        a = Rect(0, 0, 1, 1)
        b = Rect(5, 5, 6, 6)
        assert shared_edge_length(a, b) == 0.0

    def test_corner_touch_is_zero(self):
        a = Rect(0, 0, 1, 1)
        b = Rect(1, 1, 2, 2)
        assert shared_edge_length(a, b) == pytest.approx(0.0)

    def test_symmetry(self):
        a = Rect(0, 0, 2, 3)
        b = Rect(2, 1, 4, 5)
        assert shared_edge_length(a, b) == shared_edge_length(b, a)


class TestThermalNetwork:
    @pytest.fixture(scope="class")
    def network(self):
        return ThermalNetwork(build_floorplan(DEFAULT_ARCH))

    def test_zero_power_gives_ambient(self, network):
        temps = network.solve(np.zeros(network.n_blocks))
        np.testing.assert_allclose(temps, network.ambient_k)

    def test_power_raises_temperature(self, network):
        p = np.zeros(network.n_blocks)
        p[0] = 5.0
        temps = network.solve(p)
        assert temps[0] > network.ambient_k
        assert np.all(temps >= network.ambient_k - 1e-9)

    def test_heated_block_is_hottest(self, network):
        p = np.zeros(network.n_blocks)
        p[7] = 5.0
        temps = network.solve(p)
        assert np.argmax(temps) == 7

    def test_linearity(self, network):
        p = np.zeros(network.n_blocks)
        p[3] = 2.0
        rise1 = network.solve(p) - network.ambient_k
        rise2 = network.solve(2 * p) - network.ambient_k
        np.testing.assert_allclose(rise2, 2 * rise1, rtol=1e-9)

    def test_superposition(self, network):
        pa = np.zeros(network.n_blocks)
        pb = np.zeros(network.n_blocks)
        pa[1] = 3.0
        pb[5] = 4.0
        amb = network.ambient_k
        combined = network.solve(pa + pb) - amb
        separate = (network.solve(pa) - amb) + (network.solve(pb) - amb)
        np.testing.assert_allclose(combined, separate, rtol=1e-9)

    def test_neighbour_warmer_than_far_block(self, network):
        # Heat core 0 (top-left): core 1 (adjacent) should run warmer
        # than core 19 (opposite corner).
        p = np.zeros(network.n_blocks)
        p[0] = 8.0
        temps = network.solve(p)
        assert temps[1] > temps[19]

    def test_full_load_temperature_plausible(self, network):
        # ~95 W across the die should land near the paper's 95-105 C.
        p = np.full(network.n_blocks, 95.0 / network.n_blocks)
        temps = network.solve(p)
        assert 360.0 < temps.max() < 390.0

    def test_rejects_wrong_length(self, network):
        with pytest.raises(ValueError):
            network.solve(np.zeros(3))

    def test_rejects_negative_power(self, network):
        p = np.zeros(network.n_blocks)
        p[0] = -1.0
        with pytest.raises(ValueError):
            network.solve(p)

    def test_rejects_bad_parameters(self):
        fp = build_floorplan(DEFAULT_ARCH)
        with pytest.raises(ValueError):
            ThermalNetwork(fp, ambient_k=-1.0)
        with pytest.raises(ValueError):
            ThermalNetwork(fp, g_vertical=0.0)

    def test_core_temperatures_slice(self, network):
        temps = network.solve(np.zeros(network.n_blocks))
        assert temps[: network.floorplan.n_cores].shape == (20,)


class TestLeakageFixedPoint:
    @pytest.fixture(scope="class")
    def network(self):
        return ThermalNetwork(build_floorplan(DEFAULT_ARCH))

    def test_constant_leakage_converges_immediately(self, network):
        dyn = np.full(network.n_blocks, 1.0)
        sol = solve_with_leakage(network, dyn, lambda t: np.zeros_like(t))
        # Under-relaxation needs a few sweeps even with zero feedback.
        assert sol.iterations <= 10
        np.testing.assert_allclose(sol.block_power_w, dyn)

    def test_mild_feedback_converges(self, network):
        dyn = np.full(network.n_blocks, 2.0)

        def leak(temps):
            return 0.5 + 0.005 * (temps - network.ambient_k)

        sol = solve_with_leakage(network, dyn, leak)
        # Fixed point: leakage consistent with final temperatures.
        expected = 0.5 + 0.005 * (sol.block_temps_k - network.ambient_k)
        np.testing.assert_allclose(
            sol.block_power_w, dyn + expected, rtol=0.02)

    def test_runaway_detected(self, network):
        dyn = np.full(network.n_blocks, 2.0)

        def explosive(temps):
            return 5.0 * np.exp((temps - network.ambient_k) / 10.0)

        with pytest.raises(ThermalRunawayError):
            solve_with_leakage(network, dyn, explosive)

    def test_rejects_wrong_dynamic_length(self, network):
        with pytest.raises(ValueError):
            solve_with_leakage(network, np.zeros(2),
                               lambda t: np.zeros_like(t))

    def test_rejects_wrong_leakage_length(self, network):
        dyn = np.zeros(network.n_blocks)
        with pytest.raises(ValueError):
            solve_with_leakage(network, dyn, lambda t: np.zeros(3))


class TestTransient:
    @pytest.fixture(scope="class")
    def network(self):
        return ThermalNetwork(build_floorplan(DEFAULT_ARCH))

    def test_converges_to_steady_state(self, network):
        from tests.transient import TransientThermal
        tr = TransientThermal(network)
        p = np.full(network.n_blocks, 3.0)
        t_ss = network.solve(p)
        for _ in range(200):
            tr.step(p, 0.05)
        np.testing.assert_allclose(tr.temps, t_ss, atol=0.2)

    def test_warms_monotonically_from_ambient(self, network):
        from tests.transient import TransientThermal
        tr = TransientThermal(network)
        p = np.full(network.n_blocks, 3.0)
        prev = tr.temps.copy()
        for _ in range(5):
            cur = tr.step(p, 0.01).copy()
            assert np.all(cur >= prev - 1e-9)
            prev = cur

    def test_short_step_moves_little(self, network):
        # Thermal time constants >> 1 ms: a millisecond barely moves T.
        from tests.transient import TransientThermal
        tr = TransientThermal(network)
        p = np.full(network.n_blocks, 5.0)
        t_ss = network.solve(p)
        tr.step(p, 1e-3)
        moved = np.abs(tr.temps - network.ambient_k).max()
        total = np.abs(t_ss - network.ambient_k).max()
        assert moved < 0.2 * total

    def test_time_constants_scale(self, network):
        from tests.transient import TransientThermal
        tr = TransientThermal(network)
        tau = tr.time_constants_s()
        # Slowest mode in the tens-of-ms to seconds range.
        assert 0.005 < tau[0] < 30.0
        assert np.all(np.diff(tau) <= 1e-12)

    def test_reset(self, network):
        from tests.transient import TransientThermal
        tr = TransientThermal(network)
        tr.step(np.full(network.n_blocks, 5.0), 1.0)
        tr.reset()
        np.testing.assert_allclose(tr.temps, network.ambient_k)

    def test_validation(self, network):
        from tests.transient import TransientThermal
        tr = TransientThermal(network)
        with pytest.raises(ValueError):
            tr.step(np.zeros(2), 0.01)
        with pytest.raises(ValueError):
            tr.step(np.zeros(network.n_blocks), 0.0)
        with pytest.raises(ValueError):
            TransientThermal(network, thickness_mm=0.0)
