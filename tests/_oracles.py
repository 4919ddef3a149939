"""Slow reference implementations that the tests check the library against."""

import math

import mpmath
import numpy as np
from scipy.optimize import linprog
from scipy.spatial import ConvexHull, QhullError


def lambert_bisect(z, branch):
    """Solve w e^w = z by plain bisection on a hand-picked sign-change bracket."""
    if branch == 0:
        if z >= 0.0:
            lo, hi = 0.0, max(1.0, math.log(z + 1.0) + 1.0)
        else:
            lo, hi = -1.0, 0.0
    else:
        lo, hi = math.log(-z) - 10.0, -1.0
    flo = lo * math.exp(lo) - z
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break
        fm = mid * math.exp(mid) - z
        if (fm > 0.0) == (flo > 0.0):
            lo, flo = mid, fm
        else:
            hi = mid
    return 0.5 * (lo + hi)


def lambert_mp(z, branch):
    """W on the given real branch at 40 digits, for the double z, rounded to a float."""
    with mpmath.workdps(40):
        return float(mpmath.lambertw(mpmath.mpf(z), branch).real)


def lp_envelope(points, values, queries):
    """Convex envelope via LP duality: at x0 maximize p.x0 + q over planes below the data."""
    d = points.shape[1]
    A = np.column_stack([points, np.ones(len(points))])
    bounds = [(None, None)] * (d + 1)
    out = np.empty(len(queries))
    for i, x0 in enumerate(np.atleast_2d(queries)):
        c = -np.append(np.asarray(x0, dtype=float), 1.0)
        res = linprog(c, A_ub=A, b_ub=values, bounds=bounds,
                      method="highs", options={"presolve": False})
        if not res.success:
            raise RuntimeError(f"envelope LP failed at {x0}: {res.message}")
        out[i] = -res.fun
    return out


def theta_lp(points, values, i):
    """Minimal contact opening at sample i by linear programming (HiGHS).

    Minimizes a >= 0 over (a, p) subject to
    a |x_j - x_i|^2 / 2 - p . (x_j - x_i) >= v_i - v_j for every other sample j:
    the paraboloid of opening -a through (x_i, v_i) stays below the data.
    """
    dx = np.delete(points - points[i], i, axis=0)
    rhs = np.delete(values, i) - values[i]
    A = np.column_stack([-0.5 * (dx ** 2).sum(axis=1), dx])
    cost = np.zeros(A.shape[1])
    cost[0] = 1.0
    bounds = [(0.0, None)] + [(None, None)] * dx.shape[1]
    res = linprog(cost, A_ub=A, b_ub=rhs, bounds=bounds, method="highs")
    if res.status != 0:
        raise RuntimeError(f"Theta LP failed at sample {i}: {res.message}")
    return float(res.x[0])


class CertificateError(RuntimeError):
    """The certificate oracle could not produce a certificate for every sample."""


BLOCK_BYTES = 10_000_000


def envelope_certificates(points, values):
    """Certified interval [lower, upper] for the convex envelope at every sample.

    Both bounds come from LP duality and are verified here in numpy against
    all N samples, whatever produced the candidates:

    - lower: a plane p.x + c whose largest excess over the data is delta lies,
      once lowered by delta, below every sample, so env(x0) >= p.x0 + c - delta;
    - upper: weights lam >= 0 summing to 1 on at most d+1 samples x_j with
      sum lam_j x_j = x0 (residual checked to 1e-12) give env(x0) <= sum lam_j v_j.
      The sample itself (lam = e_i) is always such a certificate.

    Candidates are the lower facets of a qhull hull of the lifted cloud: each
    sample is located by barycentric coordinates in a facet whose projection is
    non-degenerate, in blocks of facets so the temporary stays near BLOCK_BYTES.
    A wrong candidate can only widen the interval. Raises CertificateError when
    qhull cannot build the hull or some sample lies in no facet.
    Returns the arrays (lower, upper).
    """
    points = np.asarray(points, dtype=float)
    values = np.asarray(values, dtype=float)
    n, d = points.shape
    try:
        hull = ConvexHull(np.column_stack([points, values]))
    except QhullError as exc:
        raise CertificateError(f"qhull cannot build the hull of {n} samples: {exc}") from exc

    down = hull.equations[:, d] < 0.0
    simplices = hull.simplices[down]
    verts = points[simplices]                       # (F, d+1, d)
    edges = verts[:, 1:, :] - verts[:, :1, :]       # (F, d, d), one edge per row
    det = np.linalg.det(edges)
    flat = np.abs(det) <= 1e-10 * np.prod(np.linalg.norm(edges, axis=2), axis=1)
    simplices, verts, edges = simplices[~flat], verts[~flat], edges[~flat]
    planes = hull.equations[down][~flat]
    to_bary = np.linalg.inv(np.swapaxes(edges, 1, 2))  # mu = to_bary @ (x - x_0)

    # locate: per sample, the facet whose smallest barycentric weight is largest
    best = np.full(n, -1)
    best_min = np.full(n, -np.inf)
    block = max(1, BLOCK_BYTES // (8 * n * (d + 1)))
    for s in range(0, len(verts), block):
        diff = points[None, :, :] - verts[s:s + block, :1, :]
        mu = np.einsum("fkl,fnl->fnk", to_bary[s:s + block], diff)
        least = np.minimum(1.0 - mu.sum(axis=2), mu.min(axis=2))
        k = least.argmax(axis=0)
        top = least[k, np.arange(n)]
        better = top > best_min
        best[better] = s + k[better]
        best_min[better] = top[better]
    missing = best_min < -1e-9
    if missing.any():
        raise CertificateError(f"{int(missing.sum())} of {n} samples lie in no lower facet")

    # upper certificate: clipped barycentric weights, residual checked
    mu = np.einsum("nkl,nl->nk", to_bary[best], points - verts[best, 0, :])
    lam = np.clip(np.column_stack([1.0 - mu.sum(axis=1), mu]), 0.0, None)
    lam /= lam.sum(axis=1, keepdims=True)
    residual = np.abs(np.einsum("nk,nkl->nl", lam, verts[best]) - points).max(axis=1)
    combo = (lam * values[simplices[best]]).sum(axis=1)
    upper = np.minimum(np.where(residual <= 1e-12, combo, np.inf), values)

    # lower certificate: facet plane z = p.x + c, lowered by its excess over all samples
    used, facet = np.unique(best, return_inverse=True)
    p = -planes[used, :d] / planes[used, d][:, None]
    c = -planes[used, d + 1] / planes[used, d]
    excess = np.empty(len(used))
    block = max(1, BLOCK_BYTES // (8 * n))
    for s in range(0, len(used), block):
        excess[s:s + block] = (p[s:s + block] @ points.T + c[s:s + block, None]
                               - values[None, :]).max(axis=1)
    lower = (p[facet] * points).sum(axis=1) + c[facet] - excess[facet]
    return lower, upper


def envelope_1d_bruteforce(x, y):
    """Direct definition on a 1-d grid: minimum over all chords through the data."""
    env = y.copy()
    for i in range(len(x)):
        xl, yl = x[: i + 1], y[: i + 1]
        xr, yr = x[i:], y[i:]
        span = xr[None, :] - xl[:, None]
        good = span > 0.0
        t = np.where(good, (x[i] - xl[:, None]) / np.where(good, span, 1.0), 0.0)
        chords = yl[:, None] + (yr[None, :] - yl[:, None]) * t
        if good.any():
            env[i] = min(env[i], chords[good].min())
    return env


def lattice_count_slices(dim, R):
    """Lattice points y with |2 R y| + R <= 1/2, counted slice by slice over every coordinate."""
    reach = (0.5 - R) / (2.0 * R)

    def count(d: int, rem2: float) -> int:
        limit = int(math.floor(math.sqrt(rem2) + 1e-12))
        if d == 1:
            return 2 * limit + 1
        ys = np.arange(-limit, limit + 1, dtype=np.float64)
        rems = rem2 - ys * ys
        if d == 2:
            inner = np.floor(np.sqrt(np.maximum(rems, 0.0)) + 1e-12)
            return int((2 * inner + 1).sum())
        return sum(count(d - 1, float(r)) for r in rems)

    return int(count(dim, reach * reach))


def phi_max_mp(n, ratio, k):
    """(gamma0, eps) = argmax and max of phi(gamma) = ln(1 - c gamma^n)/ln(1 - gamma), at 50 digits.

    c = max over i = 1..k of (1 + (rho - 1) i/(n - i))^(i - n), from the float
    ratio exactly. A grid geometric in 1 - gamma (10 points a decade, from
    10^-0.1 down to 1e-30) finds the best cell, and the sign of phi' is
    bisected on the cells either side of it.
    """
    with mpmath.workdps(50):
        rho = mpmath.mpf(ratio)
        c = max((1 + (rho - 1) * i / (n - i)) ** (i - n) for i in range(1, k + 1))

        def phi(g):
            return mpmath.log1p(-c * g ** n) / mpmath.log1p(-g)

        def rising(g):  # phi'(g) > 0, with phi' times ln(1 - g)^2 > 0
            cgn = c * g ** n
            return mpmath.log1p(-cgn) / (1 - g) - n * cgn / (g * (1 - cgn)) * mpmath.log1p(-g) > 0

        grid = [1 - mpmath.mpf(10) ** (-j / mpmath.mpf(10)) for j in range(1, 301)]
        vals = [phi(g) for g in grid]
        i = max(range(len(grid)), key=vals.__getitem__)
        lo, hi = grid[max(i - 1, 0)], grid[min(i + 1, len(grid) - 1)]
        for _ in range(180):
            mid = (lo + hi) / 2
            if rising(mid):
                lo = mid
            else:
                hi = mid
        g = (lo + hi) / 2
        return g, phi(g)
