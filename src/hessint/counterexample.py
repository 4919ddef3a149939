"""Radial profiles that pin the Hessian integrability exponent from above.

The profile u(r) = R^(a+2) r^-a + (a/2) r^2 - (1 + a/2) R^2 on (0, R), glued
to 0 at r = R with matching first derivative, is a supersolution of the Pucci
minimal inequality whenever 0 < a <= (n-1) Lambda/lambda - 1. Tiling a ball
with shrunken translates, rescaled to unit size and stacked on a background
paraboloid, produces a function whose minimal-opening field Theta has a
super-level tail fat enough to force |D^2 v| out of L^eps once eps exceeds
n/((n-1) rho + 1). The L^eps mass of the tiled field admits an explicit
lower bound whose divergence along a shrinking lattice is the certificate.
"""

from __future__ import annotations

import math
import sys
import warnings
from dataclasses import dataclass, field

import numpy as np

from .envelope_lab import GridFunction, grid_from_callable
from .errors import (AdmissibilityError, ConditionError, DomainError, GeometryError, is_number,
                     require_finite, require_int, require_positive)

_TRUNCATION_CAP = 1.0
_PI_LO = 1.2246467991473532e-16  # pi - math.pi, the part the float drops


@dataclass(frozen=True)
class RadialProfile:
    """Parameters (n, alpha, R, lambda, Lambda) of one radial bump.

    ``admissible`` records whether alpha <= (n-1) Lambda/lambda - 1, the window
    in which the profile is a supersolution; construction does not fail on a
    violation, but curvature-dependent operations do.
    """

    n: int
    alpha: float
    R: float
    lam: float
    Lam: float
    admissible: bool = field(init=False)

    def __post_init__(self):
        require_int("n", self.n, 3)
        require_positive("alpha", self.alpha)
        if not (is_number(self.R) and 0.0 < self.R < 1.0):
            raise DomainError(f"R must lie in (0, 1), got {self.R!r}")
        require_positive("lam", self.lam)
        require_finite("Lam", self.Lam, self.lam)
        object.__setattr__(
            self, "admissible",
            self.alpha <= (self.n - 1) * self.Lam / self.lam - 1.0 + 1e-12,
        )

    @property
    def ratio(self) -> float:
        return self.Lam / self.lam

    @property
    def truncation_radius(self) -> float:
        """Radius below which (lam/(Lam*alpha)) u >= 1: c~ R^((alpha+2)/alpha).

        Where the product of c~ = (lam/(Lam*alpha))^(1/alpha) and the power of
        R is not a normal float (a factor over- or underflows at small alpha),
        it is taken in logarithms: inf past the float range, 0.0 below it.
        """
        base = self.lam / (self.Lam * self.alpha)
        try:
            radius = base ** (1.0 / self.alpha) * self.R ** ((self.alpha + 2.0) / self.alpha)
        except OverflowError:
            radius = math.inf
        if sys.float_info.min <= radius < math.inf:
            return radius
        log_r = (math.log(base) + (self.alpha + 2.0) * math.log(self.R)) / self.alpha
        return math.exp(log_r) if log_r <= math.log(sys.float_info.max) else math.inf


def u_value(p: RadialProfile, r: float) -> float:
    """Profile value at radius r > 0; identically 0 for r >= R (C^1 glue)."""
    if not (is_number(r) and r > 0.0):
        raise DomainError(f"u_value requires r > 0, got {r!r}")
    r = float(r)
    if r >= p.R:
        return 0.0
    a = p.alpha
    return p.R ** (a + 2.0) * r ** (-a) + 0.5 * a * r * r - (1.0 + 0.5 * a) * p.R ** 2


def _u_profile(p: RadialProfile, r: np.ndarray) -> np.ndarray:
    # vectorized u with u(0) = +inf, for grid sampling under a truncation cap
    r = np.asarray(r, dtype=np.float64)
    a = p.alpha
    with np.errstate(divide="ignore"):
        core = p.R ** (a + 2.0) * r ** (-a) + 0.5 * a * r * r - (1.0 + 0.5 * a) * p.R ** 2
    return np.where(r >= p.R, 0.0, core)


def hessian_eigenvalues(p: RadialProfile, r: float) -> tuple[float, float]:
    """(tangential, radial) Hessian eigenvalues of u at 0 < r < R.

    The tangential eigenvalue -alpha r^-(alpha+2) (R^(alpha+2) - r^(alpha+2))
    has multiplicity n-1 and is negative; the radial one
    alpha(alpha+1) R^(alpha+2) r^-(alpha+2) + alpha is positive.
    """
    if not (is_number(r) and 0.0 < r < p.R):
        raise DomainError(f"hessian_eigenvalues requires 0 < r < R={p.R}, got {r!r}")
    r = float(r)
    a = p.alpha
    tangential = -a * r ** (-a - 2.0) * (p.R ** (a + 2.0) - r ** (a + 2.0))
    radial = a * (a + 1.0) * p.R ** (a + 2.0) * r ** (-a - 2.0) + a
    return tangential, radial


def pucci_minus(p: RadialProfile, r: float) -> float:
    """M^-(D^2 u)(r) = Lambda (n-1) tangential + lambda radial, for 0 < r < R.

    Evaluated factored, as alpha (R/r)^(alpha+2) c + alpha (Lambda (n-1) + lambda)
    with c = lambda (alpha+1) - Lambda (n-1): the two r^-(alpha+2) terms are
    each of size alpha (alpha+1) (R/r)^(alpha+2) and cancel exactly at
    alpha = (n-1) Lambda/lambda - 1, where their plain sum leaves rounding
    noise up to 7e19 against the cap 58.5 at (n, rho) = (6, 1.5), R = 0.2.
    Bounded above by Lambda n alpha exactly when the profile is admissible.
    """
    if not p.admissible:
        raise AdmissibilityError(
            f"alpha={p.alpha} exceeds (n-1)Lambda/lambda - 1 = "
            f"{(p.n - 1) * p.Lam / p.lam - 1.0:.6g}; not a supersolution"
        )
    if not (is_number(r) and 0.0 < r < p.R):
        raise DomainError(f"pucci_minus requires 0 < r < R={p.R}, got {r!r}")
    r, a, weight = float(r), p.alpha, p.Lam * (p.n - 1)   # weight of the tangential one
    return (a * p.R ** (a + 2.0) * r ** (-a - 2.0) * (p.lam * (a + 1.0) - weight)
            + a * (weight + p.lam))


def theta_lower(p: RadialProfile, r: float) -> float:
    """Guaranteed minimal-opening lower bound on 0 < r <= R/2.

    (1 - 2^-(alpha+2)) alpha R^(alpha+2) r^-(alpha+2); it minorizes the
    negated tangential eigenvalue on that range.
    """
    if not (is_number(r) and 0.0 < r <= p.R / 2.0):
        raise DomainError(f"theta_lower requires 0 < r <= R/2 = {p.R / 2.0}, got {r!r}")
    r = float(r)
    a = p.alpha
    return (1.0 - 2.0 ** (-(a + 2.0))) * a * p.R ** (a + 2.0) * r ** (-a - 2.0)


def lattice_admissible_radius(dim: int, m: int) -> float:
    """The R for which exactly m^dim lattice balls fit inside B_{1/2}.

    Solves 1/(8 sqrt(dim) R) = m + 1/(2 sqrt(dim)), i.e.
    R = 1/(8 sqrt(dim) m + 4).
    """
    require_int("dim", dim, 1)
    require_int("m", m, 1)
    return 1.0 / (8.0 * math.sqrt(dim) * m + 4.0)


def _isqrt(x: np.ndarray) -> np.ndarray:
    # floor(sqrt(x) + 1e-12) in place, x < 0 read as 0: the lattice count's one floor
    np.maximum(x, 0.0, out=x)
    np.sqrt(x, out=x)
    x += 1e-12
    return np.floor(x, out=x)


_DISK_BLOCK = 1 << 16  # floor terms per block: a 0.5 MB float64 buffer


def lattice_ball_count(dim: int, R: float) -> int:
    """Exact number of lattice points y with |2 R y| + R <= 1/2.

    These are the integer points of the ball of radius reach = (1/2 - R)/(2R).
    Every coordinate but the last two is summed over z >= 0 only, weight 2
    for z > 0: by recursion down to dimension 3, whose slices z = 0..L form
    one array of rows s = r^2 - z^2, r^2 the squared radius left at that
    level. Each row is a disk of
    1 + 4L + 4 sum_{y=1..L} floor(sqrt(s - y^2)) points, L = floor(sqrt s),
    evaluated in rectangular blocks of about 2^16 terms in one 0.5 MB
    buffer, so no Python code runs per row. That is about
    V reach^(dim-1) / 2^(dim-1) square roots, V the volume of the unit
    (dim-1)-ball, where a count slice by slice takes V reach^(dim-1):
    0.79 reach^2 against 3.14 reach^2 in dimension 3. Memory is O(reach)
    plus the buffer in every dimension.

    Every floor is floor(sqrt(x) + 1e-12), x < 0 read as 0, as in a count
    slice by slice, and the count equals that one exactly.
    """
    require_int("dim", dim, 1)
    if not (is_number(R) and 0.0 < R < 0.25):
        raise GeometryError(f"lattice requires 0 < R < 1/4, got {R!r}")
    reach = (0.5 - R) / (2.0 * R)
    return _ball_count(dim, reach * reach)


def _ball_count(dim: int, s: float) -> int:
    # integer points of Z^dim with squared norm <= s, floors as in _isqrt
    limit = int(_isqrt(np.array([s]))[0])
    if dim == 1:
        return 2 * limit + 1
    if dim == 2:
        return _disk_counts(np.array([s]), np.ones(1))
    if dim == 3:
        z = np.arange(limit + 1.0)
        return _disk_counts(s - z * z, np.where(z > 0.0, 2.0, 1.0))
    return _ball_count(dim - 1, s) + 2 * sum(
        _ball_count(dim - 1, s - z * z) for z in range(1, limit + 1))


def _disk_counts(rows: np.ndarray, weights: np.ndarray) -> int:
    # sum of weights * (integer points of the disk s), rows s non-increasing
    L = _isqrt(rows.copy())
    total = int(np.dot(weights, 1.0 + 4.0 * L))
    rows = rows[:np.count_nonzero(L)]  # rows with L = 0 have no point with x, y >= 1
    if not len(rows):
        return total
    y2 = np.arange(1.0, L[0] + 1.0) ** 2
    buf = np.empty(max(_DISK_BLOCK, len(y2)))
    lo = 0
    while lo < len(rows):
        w = int(L[lo])  # the block's widest row; f is 0 past each row's own L
        hi = min(len(rows), lo + max(1, _DISK_BLOCK // w))
        f = buf[:(hi - lo) * w].reshape(hi - lo, w)
        q = _isqrt(np.subtract(rows[lo:hi, None], y2[:w], out=f)).sum(axis=1)
        total += 4 * int(np.dot(q, weights[lo:hi]))
        lo = hi
    return total


def build_v(p: RadialProfile, grid: GridFunction) -> GridFunction:
    """Tile the grid ball with truncated bumps on a -|x|^2 background.

    v(x) = -|x|^2 + min(1, (lambda/(Lambda alpha)) u(x - 2Ry)) where y is the
    lattice cell containing x; cells are disjoint for R < 1/4 (GeometryError
    otherwise). The claimed unit bound on sup|v| ignores the background term;
    the actual supremum is recorded via a warning when it exceeds 1.
    """
    if p.R >= 0.25:
        raise GeometryError(f"lattice balls require R < 1/4, got R={p.R}")
    if grid.domain_radius < 1.0 - 1e-12:
        raise GeometryError("grid must cover the unit ball")

    pts, _, inside = grid._coords()
    y = np.round(pts / (2.0 * p.R))
    offsets = pts - 2.0 * p.R * y
    r = np.sqrt((offsets ** 2).sum(axis=1))
    scale = p.lam / (p.Lam * p.alpha)
    bump = np.minimum(_TRUNCATION_CAP, scale * _u_profile(p, r))
    vals = -(pts ** 2).sum(axis=1) + bump
    vals = np.where(inside, vals, np.nan)

    sup_abs = float(np.nanmax(np.abs(vals)))
    if sup_abs > 1.0 + 1e-9:
        warnings.warn(
            f"sup|v| = {sup_abs:.6g} exceeds the claimed unit bound "
            "(background |x|^2 term); recorded, not rescaled", stacklevel=2)
    return GridFunction(dim=grid.dim, shape=grid.shape, spacing=grid.spacing,
                        center=grid.center, domain_radius=grid.domain_radius,
                        values=vals.reshape(grid.shape))


def capped_bump(p: RadialProfile, points_per_axis: int,
                centre: tuple = (0.0, 0.0)) -> GridFunction:
    """Grid of min(1, u(|x - centre|)) over the unit ball, in len(centre) dimensions.

    points_per_axis samples span [-1, 1] on each axis; samples outside the
    ball are NaN, and a sample at the centre itself takes the cap 1. centre
    must hold 1 to 3 finite numbers, none of them a bool (DomainError).
    """
    try:
        entries = list(centre)
    except TypeError:
        entries = []
    if not (1 <= len(entries) <= 3 and all(is_number(c) and math.isfinite(c) for c in entries)):
        raise DomainError(
            f"centre must hold 1 to 3 finite numbers (a bool is not one), got {centre!r}")
    centre = np.asarray(entries, dtype=np.float64)

    def vals(pts):
        r = np.sqrt(((pts - centre) ** 2).sum(axis=1))
        return np.minimum(_TRUNCATION_CAP, _u_profile(p, r))
    return grid_from_callable(vals, len(centre), points_per_axis, domain_radius=1.0)


def _check_divergence_condition(n: int, ratio: float, epsilon: float) -> bool:
    return ((n - 1) * ratio + 1.0) * epsilon > n


def lp_lower_bound(p: RadialProfile, epsilon: float) -> float:
    """Honest lower bound for the L^eps mass of Theta over the tiled ball.

    Ball count ((1-4R)/(8 sqrt(n) R))^n times the per-ball annulus integral
    of the guaranteed Theta tail: S K R^((alpha+2) eps) (lo^-q - hi^-q)/q with
    q = (alpha+2) eps - n, lo the truncation radius, hi = R/2, S the unit
    sphere area and K = ((lambda/Lambda)(1 - 2^-(alpha+2)))^eps.

    Requires ((n-1) rho + 1) eps > n (strictly), which is equivalent to the
    admissible window (n-1) rho - 1 >= alpha > n/eps - 2 being nonempty.
    A DomainError names an R too small for floats (see _per_ball_integral).
    """
    n, a = p.n, p.alpha
    require_positive("epsilon", epsilon)
    if not _check_divergence_condition(n, p.ratio, epsilon):
        raise ConditionError(
            f"((n-1)rho+1)eps = {((n - 1) * p.ratio + 1) * epsilon:.6g} must exceed n = {n}"
        )
    if not p.admissible:
        raise AdmissibilityError(
            f"alpha={a} exceeds (n-1)Lambda/lambda - 1; profile is not a supersolution"
        )
    if not a > n / epsilon - 2.0:
        raise ConditionError(
            f"alpha must exceed n/eps - 2 = {n / epsilon - 2.0:.6g} for divergence, got {a}"
        )
    if p.R >= 0.25:
        raise GeometryError(f"lattice balls require R < 1/4, got R={p.R}")

    # the integral first: R^((alpha+2) eps) underflows at a larger R than the
    # count overflows at, since (alpha+2) eps > n (at R = 1e-110 the count raised)
    per_ball = _per_ball_integral(p, epsilon)
    return ((1.0 - 4.0 * p.R) / (8.0 * math.sqrt(n) * p.R)) ** n * per_ball


def _sphere_area(n: int) -> float:
    """Area 2 pi^(n/2) / Gamma(n/2) of the unit sphere in R^n (OverflowError from n = 344).

    pi^(n/2) = math.pi^(n/2) (1 + _PI_LO/math.pi)^(n/2), corrected to first
    order in _PI_LO, as exponent_bounds._golden corrects phi.
    """
    h = n / 2.0
    return 2.0 * math.pi ** h / math.gamma(h) * (1.0 + h * _PI_LO / math.pi)


def _per_ball_integral(p: RadialProfile, epsilon: float) -> float:
    """Guaranteed Theta^eps mass of one bump over its annulus lo < r < R/2.

    S K R^((alpha+2) eps) (lo^-q - hi^-q)/q with q = (alpha+2) eps - n, lo the
    truncation radius, S the unit sphere area, and
    K = ((lambda/Lambda)(1 - 2^-(alpha+2)))^eps. DomainError naming R where
    R^((alpha+2) eps) is below the least normal float or the integral is not
    finite in floats.
    """
    n, a = p.n, p.alpha
    lo = p.truncation_radius
    hi = p.R / 2.0
    if lo >= hi:
        raise GeometryError(
            f"truncation radius {lo:.6g} reaches the annulus edge R/2 = {hi:.6g}; R too large"
        )
    q = (a + 2.0) * epsilon - n
    K = ((p.lam / p.Lam) * (1.0 - 2.0 ** (-(a + 2.0)))) ** epsilon
    scale = p.R ** ((a + 2.0) * epsilon)
    if scale < sys.float_info.min:
        raise DomainError(f"R = {p.R!r} is too small: R^((alpha+2) eps) = {scale!r} underflows")
    area = _sphere_area(n)      # outside the try: its OverflowError is about n, not R
    try:
        value = area * K * scale * (lo ** -q - hi ** -q) / q
    except (OverflowError, ZeroDivisionError):     # lo ** -q past the floats, or lo = 0.0
        value = math.inf
    if not math.isfinite(value):
        raise DomainError(f"R = {p.R!r} is too small: the per-ball integral overflows in floats")
    return value


@dataclass(frozen=True)
class DivergenceScan:
    """Lower bounds along halved radii R = 2^-m, with their power-law fit.

    analytic_exponent is the growth exponent 2q/alpha, q = (alpha+2) eps - n,
    of the per-ball integral times the smooth ball count (R^-n). The bound
    approaches A R^-(2q/alpha) - B, so fit_exponent, a straight line in
    log-log, reads it only for small R.
    """

    epsilon: float
    R_sequence: np.ndarray
    lower_bounds: np.ndarray
    condition_ok: bool
    m_values: np.ndarray
    alpha: float
    analytic_exponent: float
    fit_exponent: float
    fit_r_squared: float
    note: str = ""


def divergence_scan(n: int, ratio: float, epsilon: float, m_range) -> DivergenceScan:
    """Certified L^eps mass along R = 2^-m: exact ball count x per-ball integral.

    The profile uses the largest admissible alpha = (n-1) rho - 1, which
    maximizes the guaranteed growth exponent 2((alpha+2)eps - n)/alpha. Each
    bound multiplies the exact lattice ball count at R (tighter than the
    (1-4R)^n/(8 sqrt(n) R)^n guarantee, so still a true lower bound) by the
    per-ball annulus integral. When the divergence condition
    ((n-1)rho+1)eps > n fails the scan is empty with an explanatory note.
    The fit is least squares of ln(bound) against ln(1/R) = m ln 2 (NaN for one m).
    """
    require_int("n", n, 3)
    require_finite("ratio", ratio, 1.0)
    require_positive("epsilon", epsilon)
    ms = list(m_range)
    if (not ms or any(m != int(m) for m in ms) or any(m < 3 for m in ms)
            or any(b <= a for a, b in zip(ms, ms[1:]))):
        raise DomainError(
            "m_range must be a nonempty strictly increasing list of integers m >= 3 "
            "(R = 2^-m < 1/4)"
        )
    ms = [int(m) for m in ms]

    if not _check_divergence_condition(n, ratio, epsilon):
        return DivergenceScan(
            epsilon=float(epsilon), R_sequence=np.array([]), lower_bounds=np.array([]),
            condition_ok=False, m_values=np.array([], dtype=int),
            alpha=math.nan, analytic_exponent=math.nan, fit_exponent=math.nan,
            fit_r_squared=math.nan,
            note=f"((n-1)rho+1)eps = {((n - 1) * ratio + 1) * epsilon:.6g} "
                 f"does not exceed n = {n}; no divergence certificate",
        )

    # every per-ball integral before the first count: a count can take
    # seconds, and an annulus already empty is a GeometryError
    alpha = (n - 1) * ratio - 1.0
    Rs = [2.0 ** -m for m in ms]
    per_ball = [_per_ball_integral(RadialProfile(n=n, alpha=alpha, R=R, lam=1.0, Lam=ratio),
                                   epsilon) for R in Rs]
    bounds = np.asarray([lattice_ball_count(n, R) * b for R, b in zip(Rs, per_ball)])
    Rs = np.asarray(Rs)

    slope = r2 = math.nan  # one point fits no line
    if len(ms) >= 2:
        x = np.log(1.0 / Rs)
        yv = np.log(bounds)
        slope, intercept = np.polyfit(x, yv, 1)
        pred = slope * x + intercept
        ss_res = float(((yv - pred) ** 2).sum())
        ss_tot = float(((yv - yv.mean()) ** 2).sum())
        r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else math.nan
    return DivergenceScan(
        epsilon=float(epsilon), R_sequence=Rs, lower_bounds=bounds, condition_ok=True,
        m_values=np.asarray(ms, dtype=int), alpha=alpha,
        analytic_exponent=2.0 * ((alpha + 2.0) * epsilon - n) / alpha,
        fit_exponent=float(slope), fit_r_squared=float(r2),
    )
