"""Pytest configuration for the DoubleChecker reproduction tests.

Hypothesis profiles: ``ci`` (loaded automatically when ``CI`` is set)
derandomizes every property test, so a CI run draws the same examples
every time and a red run is reproducible.  ``explore`` keeps random
exploration and is opt-in: ``pytest --hypothesis-profile=explore``.
Per-test ``@settings`` (``max_examples``, ``deadline``) apply under
both.
"""

import os

import pytest
from hypothesis import settings

from repro.runtime.scheduler import RandomScheduler, RoundRobinScheduler

settings.register_profile("ci", derandomize=True)
settings.register_profile("explore", derandomize=False)
if os.environ.get("CI"):
    settings.load_profile("ci")


@pytest.fixture
def rr():
    """A fresh round-robin scheduler."""
    return RoundRobinScheduler()


@pytest.fixture
def random_scheduler():
    """A factory for seeded random schedulers."""

    def make(seed: int = 0, switch_prob: float = 0.5) -> RandomScheduler:
        return RandomScheduler(seed=seed, switch_prob=switch_prob)

    return make
