"""Shared fixtures for the test suite."""

from __future__ import annotations

from collections.abc import Iterator

import numpy as np
import pytest

from repro.experiments import executor
from repro.frequency import FrequencyProfile


@pytest.fixture(autouse=True)
def _isolated_memo() -> Iterator[None]:
    """Start and end every test with an empty per-process memo.

    Exhibit runners reuse memoized sweeps, columns and datasets, so a
    test that monkeypatches env vars or dataset builders must never read
    another test's cached results.
    """
    executor.clear_memo()
    yield
    executor.clear_memo()


@pytest.fixture
def rng() -> np.random.Generator:
    """A deterministic generator; tests that need variation reseed locally."""
    return np.random.default_rng(12345)


@pytest.fixture
def small_profile() -> FrequencyProfile:
    """A tiny hand-checkable profile: f1=3, f2=1, f4=1 (r=9, d=5)."""
    return FrequencyProfile({1: 3, 2: 1, 4: 1})


@pytest.fixture
def uniform_profile() -> FrequencyProfile:
    """A profile typical of uniform data: every value seen ~3 times."""
    return FrequencyProfile({2: 10, 3: 30, 4: 10})


@pytest.fixture
def singleton_profile() -> FrequencyProfile:
    """All-singletons profile (r = d = 50)."""
    return FrequencyProfile({1: 50})
