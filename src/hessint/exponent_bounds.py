"""Quantitative bounds for the Hessian integrability exponent.

A viscosity supersolution of the Pucci minimal inequality M^-(D^2 u) <= f with
ellipticity 0 < lambda <= Lambda has second derivatives in L^eps for small
eps > 0. Everything here quantifies that eps: the measure-decay constant
c(n, lambda, Lambda, k), the decay-rate function phi whose supremum is the
interior exponent, closed-form lower bounds built from the Lambert W function,
upper bounds from an explicit radial family, the global (up-to-the-boundary)
exponent, and the threshold bookkeeping that turns a decay rate into an
integrability statement.

Only the ellipticity ratio rho = Lambda/lambda enters any formula, so the
:class:`Ellipticity` configuration carries (n, ratio, k) with 1 <= k <= n-1
directions of assumed negative curvature.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import DomainError, OptimizationError
from .special_functions import lambert_w0, lambert_wm1

_SQRT5 = math.sqrt(5.0)
# ln of the golden ratio (1+sqrt5)/2, which is asinh(1/2); the ring constant
# 2 (1+sqrt5)^n/(3+sqrt5)^(n+1) of the global exponent is golden^-(n+2)
_LN_GOLDEN = math.asinh(0.5)
# gamma values for the maximizer scan of epsilon_interior: 1 - gamma geometric
# from 1 - 1e-9 down to 2^-53, so the maximizer stays inside the scan as c -> 1
_SCAN = 1.0 - np.geomspace(1.0 - 1e-9, 2.0 ** -53, 1000)


@dataclass(frozen=True)
class Ellipticity:
    """Dimension n >= 2, ellipticity ratio rho >= 1, and direction count k.

    k counts the eigendirections along which the paraboloid-touching argument
    assumes negative curvature; k = n is rejected (the construction needs at
    least one complementary direction).
    """

    n: int
    ratio: float
    k: int = 1

    def __post_init__(self):
        if not isinstance(self.n, int) or self.n < 2:
            raise DomainError(f"dimension n must be an integer >= 2, got {self.n}")
        if not (isinstance(self.ratio, (int, float)) and math.isfinite(self.ratio)):
            raise DomainError(f"ellipticity ratio must be finite, got {self.ratio}")
        if self.ratio < 1.0:
            raise DomainError(f"ellipticity ratio must be >= 1, got {self.ratio}")
        if not isinstance(self.k, int) or not (1 <= self.k <= self.n - 1):
            raise DomainError(
                f"k must be an integer in [1, n-1] = [1, {self.n - 1}], got {self.k}"
            )


@dataclass(frozen=True)
class ExponentReport:
    """All bound values for one Ellipticity, with optimizer diagnostics."""

    n: int
    ratio: float
    k: int
    c: float
    c_star: float
    gamma0: float
    epsilon_interior: float
    stationarity_residual: float
    gamma_star: float
    f_at_gamma_star: float
    closed_form_lower: float
    tau_n: float
    refined_lower: float
    abstract_lower: float
    epsilon_upper: float
    ass_conjecture: float
    epsilon_global: float


@dataclass(frozen=True)
class ThresholdData:
    """Paraboloid-opening thresholds for integrating |{Theta > t}| ~ t^-eps."""

    j: int
    t_min_interior: float
    t_min_global: float
    interior_scale: float
    global_scale: float


def pucci_c(e: Ellipticity) -> float:
    """Measure-decay constant c(n, rho, k) = (1 + (rho-1)k/(n-k))^(k-n)."""
    if e.k >= e.n:
        raise DomainError(f"pucci_c requires k < n, got k={e.k}, n={e.n}")
    base = 1.0 + (e.ratio - 1.0) * e.k / (e.n - e.k)
    return base ** (e.k - e.n)


def c_star(e: Ellipticity) -> float:
    """Best (largest) decay constant over direction counts i = 1..k."""
    return max(pucci_c(Ellipticity(e.n, e.ratio, i)) for i in range(1, e.k + 1))


def c_lower_bound(e: Ellipticity) -> float:
    """Closed-form lower bound for c when k < n/2.

    rho^(k-n) * (1 + ((n-2k)/(n-k))(1 - 1/rho))^(n-k); sharpens the trivial
    rho^(k-n) by the explicit bracket on the base.
    """
    n, rho, k = e.n, e.ratio, e.k
    if not 2 * k < n:
        raise DomainError(f"c_lower_bound requires k < n/2, got k={k}, n={n}")
    base = _c_lower_base(e)
    try:
        return rho ** (k - n) * base ** (n - k)
    except OverflowError:  # base^(n-k) past the float range; base <= rho
        return (base / rho) ** (n - k)


def _c_lower_base(e: Ellipticity) -> float:
    return 1.0 + ((e.n - 2 * e.k) / (e.n - e.k)) * (1.0 - 1.0 / e.ratio)


def phi(gamma: float, c: float, n: int) -> float:
    """Decay-rate exponent phi(gamma) = ln(1 - c*gamma^n) / ln(1 - gamma)."""
    if not 0.0 < gamma < 1.0:
        raise DomainError(f"phi requires gamma in (0,1), got {gamma}")
    if not 0.0 < c <= 1.0:
        raise DomainError(f"phi requires c in (0,1], got {c}")
    if not isinstance(n, int) or n < 2:
        raise DomainError(f"phi requires integer n >= 2, got {n}")
    return math.log1p(-c * gamma ** n) / math.log1p(-gamma)


def phi_lower(gamma: float, c: float, n: int) -> float:
    """Pointwise minorant f(gamma) = c*gamma^n / (-ln(1-gamma)) <= phi(gamma)."""
    if not 0.0 < gamma < 1.0:
        raise DomainError(f"phi_lower requires gamma in (0,1), got {gamma}")
    return c * gamma ** n / (-math.log1p(-gamma))


def _stationarity_gap(gamma: float, c: float, n: int) -> float:
    # n*c*g^(n-1)(1-g)/(1-c*g^n) - phi(g); vanishes exactly at critical points,
    # positive left of the interior max, negative right of it
    expr = n * c * gamma ** (n - 1) * (1.0 - gamma) / (1.0 - c * gamma ** n)
    return expr - phi(gamma, c, n)


def epsilon_interior(e: Ellipticity) -> tuple[float, float, float]:
    """Maximize phi over gamma in (0,1) with c = c_star(e).

    Returns (gamma0, eps, residual) where residual is the absolute gap in the
    stationarity identity n*c*g0^(n-1)(1-g0)/(1-c*g0^n) = eps.

    At rho = 1 the constant is c = 1 and phi increases to its supremum 1 as
    gamma -> 1-; the limiting triple (1.0, 1.0, 0.0) is returned since the
    stationarity identity holds in that limit.

    One scan of gamma, geometric in 1 - gamma from 1 - 1e-9 down to 2^-53,
    brackets the maximizer, then the stationarity gap is bisected down to
    adjacent floats. Raises OptimizationError when the scan does not bracket
    a sign change of the gap. Near rho = 1, 1 - c*gamma^n at the maximizer is
    of size rho - 1 and its rounding error decides the gap's sign: for some
    3 <= n <= 40 the scan bracket fails once rho - 1 is below about 1e-14,
    and elsewhere the bisection stops inside that noise, which the residual
    shows (up to about 7e-3 at rho - 1 = 1e-13 for n <= 200).
    """
    c = c_star(e)
    n = e.n
    if c == 1.0:
        return 1.0, 1.0, 0.0

    vals = np.log1p(-c * _SCAN ** n) / np.log1p(-_SCAN)
    i = int(np.argmax(vals))
    if i == 0 or i == len(_SCAN) - 1:
        raise OptimizationError(
            f"coarse scan put the maximum at the boundary (gamma={_SCAN[i]:.3g}); "
            "cannot bracket an interior maximizer"
        )
    # the gap is positive left of the maximizer and negative right of it;
    # bisect it on the scan bracket down to adjacent floats
    lo, hi = _SCAN[i - 1], _SCAN[i + 1]
    if not (_stationarity_gap(lo, c, n) > 0.0 > _stationarity_gap(hi, c, n)):
        raise OptimizationError(
            f"stationarity gap does not change sign from + to - on the scan bracket "
            f"[{lo:.17g}, {hi:.17g}]"
        )
    while True:
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break
        if _stationarity_gap(mid, c, n) > 0.0:
            lo = mid
        else:
            hi = mid
    gamma0 = 0.5 * (lo + hi)

    eps = phi(gamma0, c, n)
    residual = abs(_stationarity_gap(gamma0, c, n))
    return gamma0, eps, residual


def gamma_star(n: int) -> float:
    """Closed-form near-maximizer 1 + 1/(n*W-1(-(1/n)e^{-1/n})).

    Solves gamma/(1-gamma) = -n ln(1-gamma); lies in (0,1) for n >= 2.
    """
    if not isinstance(n, int) or n < 2:
        raise DomainError(f"gamma_star requires integer n >= 2, got {n}")
    w = lambert_wm1(-(1.0 / n) * math.exp(-1.0 / n)).value
    return 1.0 + 1.0 / (n * w)


def _tau_kernel(n: float) -> float:
    # n(e-1)ln(n)/(1+n e ln n) * (n ln n / (1 + n ln n))^n, log1p-stable
    t = n * math.log(n)
    lead = n * (math.e - 1.0) * math.log(n) / (1.0 + n * math.e * math.log(n))
    return lead * math.exp(n * math.log1p(-1.0 / (1.0 + t)))


def tau(n: int) -> float:
    """Dimensional constant tau_n; increasing in n with limit 1 - 1/e."""
    if not isinstance(n, int) or n < 3:
        raise DomainError(f"tau requires integer n >= 3, got {n}")
    return _tau_kernel(float(n))


def closed_form_lower(e: Ellipticity) -> float:
    """Closed-form interior lower bound (tau_n / ln n) * c_star.

    Expands to n(e-1)/(1+n e ln n) * (n ln n/(1+n ln n))^n * c_star. Defined
    for n >= 2; n = 2 is outside the asymptotic regime and emits a warning.
    """
    if e.n == 2:
        warnings.warn("closed_form_lower at n = 2 is outside the asymptotic regime",
                      stacklevel=2)
    return _tau_kernel(float(e.n)) / math.log(e.n) * c_star(e)


def refined_lower(e: Ellipticity) -> float:
    """Refined interior lower bound for k < n/2: c_lower_bound / (4 ln n)."""
    if e.n < 3:
        raise DomainError(f"refined_lower requires n >= 3, got {e.n}")
    return c_lower_bound(e) / (4.0 * math.log(e.n))


def _refined_lower_normalized(e: Ellipticity, refined: float) -> float:
    # the sweep column refined_lower(e) rho^(n-k) = b^(n-k) / (4 ln n), b =
    # _c_lower_base(e) < 2: the product while rho^(n-k) is finite, from b past
    # that; DomainError once b^(n-k) leaves the float range (n - k > 1023)
    try:
        return refined * e.ratio ** (e.n - e.k)
    except OverflowError:
        pass
    try:
        return _c_lower_base(e) ** (e.n - e.k) / (4.0 * math.log(e.n))
    except OverflowError:
        raise DomainError(
            f"refined_lower_normalized exceeds the float range at n={e.n}, k={e.k}, "
            f"ratio={e.ratio}") from None


def abstract_lower(n: int, ratio: float) -> float:
    """Headline lower bound (1 + (2/3)(1 - 1/rho))^(n-1) (1/rho)^(n-1) / (4 ln n)."""
    if not isinstance(n, int) or n < 3:
        raise DomainError(f"abstract_lower requires integer n >= 3, got {n}")
    if ratio < 1.0:
        raise DomainError(f"abstract_lower requires ratio >= 1, got {ratio}")
    return ((1.0 + (2.0 / 3.0) * (1.0 - 1.0 / ratio)) / ratio) ** (n - 1) / (4.0 * math.log(n))


def epsilon_upper(n: int, ratio: float) -> float:
    """Upper bound n/((n-1)rho + 1) from the explicit radial family."""
    if not isinstance(n, int) or n < 2:
        raise DomainError(f"epsilon_upper requires integer n >= 2, got {n}")
    if ratio < 1.0:
        raise DomainError(f"epsilon_upper requires ratio >= 1, got {ratio}")
    return n / ((n - 1) * ratio + 1.0)


def ass_conjecture(ratio: float) -> float:
    """Dimension-free conjectured exponent 2/(rho + 1)."""
    if ratio < 1.0:
        raise DomainError(f"ass_conjecture requires ratio >= 1, got {ratio}")
    return 2.0 / (ratio + 1.0)


def epsilon_global(e: Ellipticity) -> float:
    """Up-to-the-boundary exponent from the golden-ratio dilation chain.

    ln(1 - 2 c* (1+sqrt5)^n / (3+sqrt5)^(n+1)) / ln(2/(3+sqrt5)) with c* = c_star(e).
    From n = 428 on, where (3+sqrt5)^(n+1) overflows, the quotient is taken as
    c* exp(-(n+2) ln((1+sqrt5)/2)), within about n/3 ulps.
    """
    c = c_star(e)
    try:
        ring = 2.0 * c * (1.0 + _SQRT5) ** e.n / (3.0 + _SQRT5) ** (e.n + 1)
    except OverflowError:
        ring = c * math.exp(-(e.n + 2) * _LN_GOLDEN)
    num = math.log1p(-ring)
    den = math.log(2.0 / (3.0 + _SQRT5))
    return num / den


def global_rho_j(j: int, e: Ellipticity) -> float:
    """Dilation radius rho_j of the j-th golden-ratio ring.

    Solves ((1+d)/d) n (1+d)^2 rho_j = (1 - c d^n/(1+d)^(n+1))^(j+1) with
    d = (1+sqrt5)/2 and c = pucci_c(e). From n = 737 on, where (1+d)^(n+1)
    overflows, d^n/(1+d)^(n+1) is taken as exp(-(n+2) ln d). Raises
    DomainError when rho_j underflows to 0 (j of order 10^4 and up). Asserts
    rho_j < (1+d)^-2 and d^4/(n^2 (1+d)^8) <= (1+d)^j rho_j^2, the latter in
    logarithms; failure would be an implementation error, not a bad
    parameter.
    """
    if not isinstance(j, int) or j < 0:
        raise DomainError(f"global_rho_j requires integer j >= 0, got {j}")
    d = (1.0 + _SQRT5) / 2.0
    c = pucci_c(e)
    n = e.n
    try:
        shrink = 1.0 - c * d ** n / (1.0 + d) ** (n + 1)
    except OverflowError:
        shrink = 1.0 - c * math.exp(-(n + 2) * _LN_GOLDEN)
    rho_j = shrink ** (j + 1) * d / (n * (1.0 + d) ** 3)
    if rho_j == 0.0:
        raise DomainError(f"rho_j underflows the float range at j={j}")
    assert rho_j < (1.0 + d) ** -2, f"rho_j={rho_j} outside (0, (1+d)^-2)"
    assert (math.log(d ** 4 / (n ** 2 * (1.0 + d) ** 8))
            <= j * math.log1p(d) + 2.0 * math.log(rho_j)), (
        f"ring inequality fails at j={j}: rho_j={rho_j}"
    )
    return rho_j


def thresholds(alpha: float, e: Ellipticity) -> ThresholdData:
    """Opening thresholds that make t^alpha integrable against the decay.

    j = min natural number with alpha/(eps - alpha) <= j; the interior and
    global t-thresholds and the dimensional scale factors follow. Requires
    0 < alpha < epsilon_interior(e); DomainError when alpha lies so close
    to it that a threshold leaves the float range.
    """
    gamma0, eps, _ = epsilon_interior(e)
    if not 0.0 < alpha < eps:
        raise DomainError(
            f"thresholds requires 0 < alpha < epsilon_interior = {eps:.6g}, got {alpha}"
        )
    r = alpha / (eps - alpha)
    if abs(r - round(r)) < 1e-9:
        r = round(r)
    j = max(1, math.ceil(r))

    try:
        if gamma0 >= 1.0:
            t_min_interior = math.inf
            interior_scale = 0.0
        else:
            t_min_interior = (1.0 - float(gamma0)) ** (-(j + 1))
            interior_scale = ((1.0 - gamma0) / gamma0) * 2.0 ** 6
        t_min_global = (0.5 * (3.0 + _SQRT5)) ** (1 + j)
    except OverflowError:
        raise DomainError(
            f"alpha = {alpha} is so close to epsilon_interior = {eps} that the "
            f"thresholds for j = {j} exceed the float range") from None
    global_scale = e.n ** 2 * (3.0 + _SQRT5) ** 9 / (2.0 ** 5 * (1.0 + _SQRT5) ** 4)
    return ThresholdData(j, t_min_interior, t_min_global, interior_scale, global_scale)


class T0Result(NamedTuple):
    x0: float
    t0: float


def t0_maximizer(n: int, ratio: float) -> T0Result:
    """Optimal power x0 and decay threshold t0 for the radial barrier family.

    x0 = (rho-2)/W0((rho-2)/e) solves ln x0 = (rho-2+x0)/x0; t0 = n(x0-1)/(x0 ln x0).
    At rho = 2 the quotient degenerates and the limit x0 = e is used. t0
    decreases from n (rho -> 1+) toward 0 as rho grows.
    """
    if not isinstance(n, int) or n < 2:
        raise DomainError(f"t0_maximizer requires integer n >= 2, got {n}")
    if not ratio > 1.0:
        raise DomainError(f"t0_maximizer requires ratio > 1, got {ratio}")
    if abs(ratio - 2.0) < 1e-8:
        x0 = math.e
    else:
        x0 = (ratio - 2.0) / lambert_w0((ratio - 2.0) * math.exp(-1.0)).value
    t0 = n * (x0 - 1.0) / (x0 * math.log(x0))
    return T0Result(x0, t0)


def rho_for_beta(n: int, beta: float) -> float:
    """The ratio rho at which t0_maximizer(n, rho) returns t0 = n/beta.

    rho = 2 - beta + (beta-1) * x0 with x0 = -beta/W0(-beta e^-beta), for
    beta in (1, n].
    """
    if not isinstance(n, int) or n < 2:
        raise DomainError(f"rho_for_beta requires integer n >= 2, got {n}")
    if not 1.0 < beta <= n:
        raise DomainError(f"rho_for_beta requires beta in (1, n], got {beta}")
    w = lambert_w0(-beta * math.exp(-beta)).value
    x0 = -beta / w
    return 2.0 - beta + (beta - 1.0) * x0


def compute_report(e: Ellipticity) -> ExponentReport:
    """Assemble every bound for one configuration; undefined fields are NaN."""
    c = pucci_c(e)
    cs = c_star(e)
    gamma0, eps, resid = epsilon_interior(e)
    gs = gamma_star(e.n)
    f_at_gs = cs * gs ** e.n / (-math.log1p(-gs))
    cfl = closed_form_lower(e)
    tau_n = tau(e.n) if e.n >= 3 else math.nan
    refined = refined_lower(e) if (e.n >= 3 and 2 * e.k < e.n) else math.nan
    abstract = abstract_lower(e.n, e.ratio) if e.n >= 3 else math.nan
    return ExponentReport(
        n=e.n,
        ratio=e.ratio,
        k=e.k,
        c=c,
        c_star=cs,
        gamma0=gamma0,
        epsilon_interior=eps,
        stationarity_residual=resid,
        gamma_star=gs,
        f_at_gamma_star=f_at_gs,
        closed_form_lower=cfl,
        tau_n=tau_n,
        refined_lower=refined,
        abstract_lower=abstract,
        epsilon_upper=epsilon_upper(e.n, e.ratio),
        ass_conjecture=ass_conjecture(e.ratio),
        epsilon_global=epsilon_global(e),
    )
