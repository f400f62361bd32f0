"""Shared fixtures for the test suite."""

from __future__ import annotations

import numpy as np
import pytest


@pytest.fixture
def rng() -> np.random.Generator:
    """Deterministic RNG for reproducible tests."""
    return np.random.default_rng(12345)


@pytest.fixture(scope="session")
def session_rng() -> np.random.Generator:
    return np.random.default_rng(999)


@pytest.fixture
def balancers_created(monkeypatch) -> list:
    """A list that grows by one for every :class:`Balancer` created while
    the test runs (through the constructor or the trusted fast path)."""
    from repro.core.network import Balancer

    created = []
    post_init = Balancer.__post_init__
    trusted = Balancer._trusted

    def counting_post_init(self):
        created.append(1)
        post_init(self)

    def counting_trusted(index, inputs, outputs):
        created.append(1)
        return trusted(index, inputs, outputs)

    monkeypatch.setattr(Balancer, "__post_init__", counting_post_init)
    monkeypatch.setattr(Balancer, "_trusted", staticmethod(counting_trusted))
    return created
