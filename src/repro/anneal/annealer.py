"""Generic simulated-annealing kernel (Kirkpatrick et al.).

Used by the SAnn power manager (Section 4.3.2 / 6.5): proposals come
from a Gaussian-Markov-style neighbourhood whose scale is proportional
to the current annealing temperature, the temperature follows a
logarithmic cooling schedule, and the search stops after a fixed number
of objective evaluations.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Generic, TypeVar

import numpy as np

State = TypeVar("State")


@dataclass(frozen=True)
class AnnealResult(Generic[State]):
    """Outcome of one annealing run."""

    best_state: State
    best_energy: float
    evaluations: int
    accepted: int

    @property
    def acceptance_rate(self) -> float:
        if self.evaluations <= 1:
            return 0.0
        return self.accepted / (self.evaluations - 1)


def logarithmic_temperature(initial_temp: float, step: int) -> float:
    """Logarithmic cooling: T_k = T_0 / ln(k + e)."""
    if initial_temp <= 0:
        raise ValueError("initial temperature must be positive")
    if step < 0:
        raise ValueError("step must be non-negative")
    return initial_temp / np.log(step + np.e)


def simulated_annealing(
    initial_state: State,
    energy_fn: Callable[[State], float],
    neighbour_fn: Callable[[State, float, np.random.Generator], State],
    rng: np.random.Generator,
    n_evaluations: int = 2000,
    initial_temp: float = 1.0,
) -> AnnealResult[State]:
    """Minimise ``energy_fn`` by simulated annealing.

    Args:
        initial_state: Starting point.
        energy_fn: Maps a state to the energy to minimise.
        neighbour_fn: Proposes a new state given (state, annealing
            temperature, rng); the temperature argument lets proposals
            shrink as the search cools.
        rng: Randomness source.
        n_evaluations: Total objective evaluations (including the
            initial one).
        initial_temp: Starting annealing temperature, in energy units.

    Returns:
        The best state encountered (not merely the final one).
    """
    if n_evaluations < 1:
        raise ValueError("need at least one evaluation")
    current = initial_state
    current_e = float(energy_fn(current))
    best, best_e = current, current_e
    accepted = 0
    for step in range(1, n_evaluations):
        temp = logarithmic_temperature(initial_temp, step)
        candidate = neighbour_fn(current, temp, rng)
        cand_e = float(energy_fn(candidate))
        delta = cand_e - current_e
        if delta <= 0 or rng.random() < np.exp(-delta / max(temp, 1e-12)):
            current, current_e = candidate, cand_e
            accepted += 1
            if current_e < best_e:
                best, best_e = current, current_e
    return AnnealResult(best_state=best, best_energy=best_e,
                        evaluations=n_evaluations, accepted=accepted)
