import time

import pytest

import hessint as h

BUILD_SECONDS = {}


@pytest.fixture(scope="session")
def bump_profile():
    return h.RadialProfile(3, 1.0, 0.35, 1.0, 2.0)


@pytest.fixture(scope="session")
def bump_grid(bump_profile):
    return h.capped_bump(bump_profile, 129)


@pytest.fixture(scope="session")
def bump_theta(bump_grid):
    # one qhull call of 12,853 points in R^4 plus its certificates (about
    # 2 s); shared by the acceptance run and the unit tests, with the build
    # cost recorded so the acceptance timing can include it
    t0 = time.perf_counter()
    field = h.theta_field(bump_grid, a_max=600.0)
    BUILD_SECONDS["bump_theta"] = time.perf_counter() - t0
    return field
