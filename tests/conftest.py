"""Shared fixtures: every test runs against a fresh simulated device."""

from __future__ import annotations

import numpy as np
import pytest

from repro.device import Device, use_device


@pytest.fixture(autouse=True)
def fresh_device():
    """Isolate the global device so clock/memory state never leaks."""
    with use_device(Device()) as device:
        yield device


@pytest.fixture
def rng():
    return np.random.default_rng(1234)
