"""Shared test fixtures; the oracles and random-graph helpers the tests import
are in ``support.py``."""

import numpy as np
import pytest

from mpnnkit import tensor as T


@pytest.fixture(autouse=True)
def fresh_tape():
    """Each test starts and ends with an empty tape."""
    T.active_tape().clear()
    yield
    T.active_tape().clear()


@pytest.fixture
def rng():
    return np.random.default_rng(20260814)
