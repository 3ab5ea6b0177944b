import math

import numpy as np
import pytest

from cutpoisson import LevelSetDomain
from cutpoisson.study import _discretize


@pytest.fixture(scope="session")
def domain_mixed():
    """Disk R=0.7 with Dirichlet upper half, Neumann lower half; junctions at 0 and pi."""
    return LevelSetDomain((0.0, 0.0), 0.7, ((0.0, math.pi),))


@pytest.fixture(scope="session")
def domain_dirichlet():
    return LevelSetDomain((0.0, 0.0), 0.7, ((0.0, 2.0 * math.pi),))


@pytest.fixture(scope="session")
def domain_unit_mixed():
    return LevelSetDomain((0.0, 0.0), 1.0, ((0.0, math.pi),))


def make_discretization(
    domain, n, box=(-1.0, -1.0, 1.0, 1.0), tol=1e-10, beta=10.0, sigma=0.1, shift=(0.0, 0.0)
):
    return _discretize(domain, n, box, tol, shift, beta, sigma)


@pytest.fixture(scope="session")
def disc_mixed_8(domain_mixed):
    return make_discretization(domain_mixed, 8)


@pytest.fixture(scope="session")
def disc_mixed_16(domain_mixed):
    return make_discretization(domain_mixed, 16)


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(20260810)
