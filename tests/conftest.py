"""Shared fixtures and hypothesis configuration for the test suite."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

# A single moderate profile: deterministic, CI-friendly.
settings.register_profile(
    "repro",
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
    derandomize=True,
)
settings.load_profile("repro")


def pytest_configure(config):
    config.addinivalue_line(
        "markers", "slow: a test that takes seconds (paper-scale runs, spawned pools)"
    )


@pytest.fixture
def rng() -> np.random.Generator:
    """Fresh deterministic generator per test."""
    return np.random.default_rng(0xC0FFEE)


@pytest.fixture
def rng_factory():
    """Factory for independently seeded generators inside one test."""

    def make(seed: int) -> np.random.Generator:
        return np.random.default_rng(seed)

    return make
