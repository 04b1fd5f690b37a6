from typing import NamedTuple

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

import doublephase as dp

settings.register_profile(
    "numeric",
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("numeric")

DEFAULT_P1 = "2"
DEFAULT_P2 = "2 + 0.5*sin(pi*x1)"
DEFAULT_Q = "4"


def default_set(res=16, dim=3):
    grid = dp.DomainGrid(dim, (res,) * dim)
    return dp.build_exponent_set(DEFAULT_P1, DEFAULT_P2, DEFAULT_Q, grid)


class Level(NamedTuple):
    """A level and its summation roundoff: all that the descent core reads of
    a report."""

    total: float
    roundoff: float


def level(*parts) -> Level:
    """The sum of ``parts`` with the roundoff an energy report gives its
    terms: 64 eps max(sum |part|, 1)."""
    size = sum(abs(x) for x in parts)
    return Level(sum(parts), 64.0 * np.finfo(float).eps * max(size, 1.0))


def random_field(grid, rng, amp=1.0, zero_boundary=True):
    vals = amp * rng.standard_normal(grid.node_shape)
    if zero_boundary:
        vals[grid.boundary_mask()] = 0.0
    return dp.GridFunction(grid, vals)


@pytest.fixture(scope="session")
def set16():
    return default_set(16)


@pytest.fixture(scope="session")
def set12():
    return default_set(12)


@pytest.fixture(scope="session")
def set8():
    return default_set(8)


@pytest.fixture()
def rng():
    return np.random.default_rng(0)
