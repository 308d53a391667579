"""Tests for the simulated-annealing kernel."""

import numpy as np
import pytest

from repro.anneal import (
    logarithmic_temperature,
    simulated_annealing,
)


class TestCooling:
    def test_decreasing(self):
        temps = [logarithmic_temperature(10.0, k) for k in range(100)]
        assert all(a >= b for a, b in zip(temps, temps[1:]))

    def test_initial_value(self):
        assert logarithmic_temperature(10.0, 0) == pytest.approx(10.0)

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            logarithmic_temperature(0.0, 1)
        with pytest.raises(ValueError):
            logarithmic_temperature(1.0, -1)


class TestSimulatedAnnealing:
    def test_minimises_quadratic(self):
        def energy(x):
            return (x - 3.0) ** 2

        def neighbour(x, temp, rng):
            return x + rng.standard_normal() * max(temp, 0.1)

        result = simulated_annealing(
            initial_state=10.0,
            energy_fn=energy,
            neighbour_fn=neighbour,
            rng=np.random.default_rng(0),
            n_evaluations=3000,
            initial_temp=5.0)
        assert abs(result.best_state - 3.0) < 0.3
        assert result.best_energy < 0.1

    def test_escapes_local_minimum(self):
        # Double well with the deeper minimum far from the start.
        def energy(x):
            return min((x + 2.0) ** 2, (x - 4.0) ** 2 - 1.0)

        def neighbour(x, temp, rng):
            return x + rng.standard_normal() * (1.0 + temp)

        result = simulated_annealing(
            initial_state=-2.0,
            energy_fn=energy,
            neighbour_fn=neighbour,
            rng=np.random.default_rng(1),
            n_evaluations=4000,
            initial_temp=8.0)
        assert result.best_energy < -0.5

    def test_best_never_worse_than_initial(self):
        def energy(x):
            return x ** 2

        result = simulated_annealing(
            initial_state=5.0,
            energy_fn=energy,
            neighbour_fn=lambda x, t, r: x + r.standard_normal(),
            rng=np.random.default_rng(2),
            n_evaluations=50,
            initial_temp=1.0)
        assert result.best_energy <= 25.0

    def test_deterministic_with_seed(self):
        def run():
            return simulated_annealing(
                initial_state=1.0,
                energy_fn=lambda x: abs(x),
                neighbour_fn=lambda x, t, r: x + r.standard_normal() * t,
                rng=np.random.default_rng(3),
                n_evaluations=200,
                initial_temp=2.0)
        assert run().best_state == run().best_state

    def test_single_evaluation(self):
        result = simulated_annealing(
            initial_state=7.0,
            energy_fn=lambda x: x,
            neighbour_fn=lambda x, t, r: x,
            rng=np.random.default_rng(4),
            n_evaluations=1)
        assert result.best_state == 7.0
        assert result.evaluations == 1
        assert result.acceptance_rate == 0.0

    def test_rejects_zero_evaluations(self):
        with pytest.raises(ValueError):
            simulated_annealing(0.0, lambda x: x, lambda x, t, r: x,
                                np.random.default_rng(0), n_evaluations=0)

    def test_acceptance_rate_in_unit_interval(self):
        result = simulated_annealing(
            initial_state=0.0,
            energy_fn=lambda x: x ** 2,
            neighbour_fn=lambda x, t, r: x + r.standard_normal(),
            rng=np.random.default_rng(5),
            n_evaluations=300,
            initial_temp=1.0)
        assert 0.0 <= result.acceptance_rate <= 1.0
