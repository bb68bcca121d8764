"""Shared test configuration: hypothesis profiles and common fixtures."""

from __future__ import annotations

import random

import pytest
from hypothesis import HealthCheck, settings

settings.register_profile(
    "default",
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
#: The wire decoder is a hand-written binary parser facing the network; CI
#: fuzzes it harder with ``--hypothesis-profile=codec-fuzz``.
settings.register_profile(
    "codec-fuzz",
    max_examples=2000,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("default")


def pytest_configure(config):
    config.addinivalue_line(
        "markers",
        "udp: opens real UDP sockets (deselected in the socket-free "
        "in-memory CI job with -m 'not udp')",
    )


@pytest.fixture
def rng() -> random.Random:
    return random.Random(12345)
