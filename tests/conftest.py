"""Shared fixtures: characterised chips are expensive, so they are
built once per session and shared read-only across tests."""

from __future__ import annotations

import numpy as np
import pytest

from repro.chip import characterize_dies
from repro.config import ArchConfig, DEFAULT_ARCH, DEFAULT_TECH, TechParams
from repro.variation import DieBatch


@pytest.fixture(scope="session")
def tech() -> TechParams:
    return DEFAULT_TECH


@pytest.fixture(scope="session")
def arch() -> ArchConfig:
    return DEFAULT_ARCH


@pytest.fixture(scope="session")
def small_arch() -> ArchConfig:
    """A cheaper 8-core die for tests that sweep many evaluations."""
    return ArchConfig(n_cores=8, die_area_mm2=140.0, grid_resolution=32)


@pytest.fixture(scope="session")
def die_batch(tech, arch) -> DieBatch:
    return DieBatch(tech, arch, n_dies=3, seed=1234)


@pytest.fixture(scope="session")
def chip(die_batch, tech, arch):
    """One characterised 20-core chip (die 0 of the shared batch)."""
    return characterize_dies([die_batch[0]], tech, arch)[0]


@pytest.fixture(scope="session")
def chip2(die_batch, tech, arch):
    """A second die, for die-to-die comparisons."""
    return characterize_dies([die_batch[1]], tech, arch)[0]


@pytest.fixture(scope="session")
def small_chip(tech, small_arch):
    """A characterised 8-core chip for expensive sweeps."""
    batch = DieBatch(tech, small_arch, n_dies=1, seed=99)
    return characterize_dies([batch[0]], tech, small_arch)[0]


@pytest.fixture()
def rng() -> np.random.Generator:
    return np.random.default_rng(2024)
