import time

import numpy as np
import pytest

import hessint as h

BUILD_SECONDS = {}


def bump_slice(prof, points_per_axis, centre=(0.0, 0.0)):
    """Capped single-bump profile on the unit ball, value 1 at ``centre``.

    The grid has len(centre) dimensions: the default is the 2-d slice.
    """
    def vals(pts):
        r = np.sqrt(((pts - np.asarray(centre)) ** 2).sum(axis=1))
        out = np.empty(len(r))
        for i, ri in enumerate(r):
            out[i] = 1.0 if ri == 0.0 else min(1.0, h.u_value(prof, float(ri)))
        return out
    return h.grid_from_callable(vals, len(centre), points_per_axis, domain_radius=1.0)


@pytest.fixture(scope="session")
def bump_profile():
    return h.RadialProfile(3, 1.0, 0.35, 1.0, 2.0)


@pytest.fixture(scope="session")
def bump_grid(bump_profile):
    return bump_slice(bump_profile, 129)


@pytest.fixture(scope="session")
def bump_theta(bump_grid):
    # one qhull call of 12,853 points in R^4 plus its certificates (about
    # 2 s); shared by the acceptance run and the unit tests, with the build
    # cost recorded so the acceptance timing can include it
    t0 = time.perf_counter()
    field = h.theta_field(bump_grid, a_max=600.0)
    BUILD_SECONDS["bump_theta"] = time.perf_counter() - t0
    return field
