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

import functools
import math
import sys
import warnings
from dataclasses import dataclass
from typing import NamedTuple

from .errors import DomainError, OptimizationError, is_int, is_number, require_finite, require_int
from .special_functions import lambert_w0, lambert_wm1

# every constant of the global exponent's dilation chain is a power of the
# golden ratio phi = (1+sqrt5)/2, taken by _golden: d^n/(1+d)^(n+1) =
# phi^-(n+2) for d = phi, 1+d = phi^2, and ln(2/(3+sqrt5)) = -2 ln phi
_GOLDEN = (1.0 + math.sqrt(5.0)) / 2.0
_GOLDEN_LO = -5.432115203682506e-17  # phi - _GOLDEN, the part the float drops
_LN_GOLDEN = math.asinh(0.5)  # ln phi
_SPLIT = 2.0 ** 27 + 1.0  # Veltkamp's constant: splits a double into two 26-bit halves


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
        require_int("n", self.n, 2)
        require_finite("ratio", self.ratio, 1.0)
        if not (is_int(self.k) and 1 <= self.k <= self.n - 1):
            raise DomainError(f"k must be an integer in [1, n-1] = [1, {self.n - 1}], got {self.k}")


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


def _golden(m: int) -> float:
    # phi^m = _GOLDEN^m (1 + _GOLDEN_LO/_GOLDEN)^m to first order in _GOLDEN_LO;
    # within 2 ulps of phi^m for -1475 <= m <= 1474; OverflowError from 1475
    return _GOLDEN ** m * (1.0 + m * _GOLDEN_LO / _GOLDEN)


def pucci_c(e: Ellipticity) -> float:
    """Measure-decay constant c(n, rho, k) = (1 + (rho-1)k/(n-k))^(k-n)."""
    return _pucci_c(e.n, e.ratio, e.k)


def _pucci_c(n: int, ratio: float, k: int) -> float:
    return (1.0 + (ratio - 1.0) * k / (n - k)) ** (k - n)


def c_star(e: Ellipticity) -> float:
    """Best (largest) decay constant over direction counts i = 1..k."""
    return max(_pucci_c(e.n, e.ratio, i) for i in range(1, e.k + 1))


def c_lower_bound(e: Ellipticity) -> float:
    """Closed-form lower bound for c when k < n/2.

    rho^(k-n) b^(n-k) with b = 1 + ((n-2k)/(n-k))(1 - 1/rho); sharpens the
    trivial rho^(k-n) by the explicit bracket b on the base. Taken as
    (b/rho)^(n-k): b <= rho, so no factor overflows or underflows before the
    product does. The rounding of q = fl(b/rho) would be raised to the power
    n - k with it, so the exact remainder r = b - q rho corrects it to first
    order: (b/rho)^m = q^m (1 + r/b)^m ~ q^m (1 + m r/b).
    """
    n, k = e.n, e.k
    if not 2 * k < n:
        raise DomainError(f"c_lower_bound requires k < n/2, got k={k}, n={n}")
    b = _c_lower_base(e)
    q = b / e.ratio
    power = q ** (n - k)
    if power == 0.0:  # also wherever rho is too large to split (above 1e300)
        return power
    p, err = _two_product(q, e.ratio)
    return power * (1.0 + (n - k) * ((b - p) - err) / b)


def _two_product(x: float, y: float) -> tuple[float, float]:
    # Dekker's product: x*y = p + err exactly, with Veltkamp's 27-bit split
    # (math.fma would do it in one step, but needs Python 3.13)
    p = x * y
    cx, cy = _SPLIT * x, _SPLIT * y
    x_hi, y_hi = cx - (cx - x), cy - (cy - y)
    x_lo, y_lo = x - x_hi, y - y_hi
    return p, ((x_hi * y_hi - p) + x_hi * y_lo + x_lo * y_hi) + x_lo * y_lo


def _c_lower_base(e: Ellipticity) -> float:
    return 1.0 + ((e.n - 2 * e.k) / (e.n - e.k)) * (1.0 - 1.0 / e.ratio)


def _check_phi_args(gamma, c, n) -> None:
    if not (is_number(gamma) and 0.0 < gamma < 1.0):
        raise DomainError(f"gamma must lie in (0, 1), got {gamma!r}")
    if not (is_number(c) and 0.0 < c <= 1.0):
        raise DomainError(f"c must lie in (0, 1], got {c!r}")
    require_int("n", n, 2)


def phi(gamma: float, c: float, n: int) -> float:
    """Decay-rate exponent phi(gamma) = ln(1 - c*gamma^n) / ln(1 - gamma)."""
    _check_phi_args(gamma, c, n)
    return _phi(gamma, c, n)


def _phi(gamma: float, c: float, n: int) -> float:
    return math.log1p(-c * gamma ** n) / math.log1p(-gamma)


def phi_lower(gamma: float, c: float, n: int) -> float:
    """Pointwise minorant f(gamma) = c*gamma^n / (-ln(1-gamma)) <= phi(gamma)."""
    _check_phi_args(gamma, c, n)
    return c * gamma ** n / (-math.log1p(-gamma))


def _stationarity_gap(gamma: float, c: float, n: int) -> float:
    # n*c*g^(n-1)(1-g)/(1-c*g^n) - phi(g); vanishes exactly at critical points,
    # positive left of the interior max, negative right of it. c*g^n is shared
    # by both terms, each rounded as _phi rounds it
    cgn = c * gamma ** n
    expr = n * c * gamma ** (n - 1) * (1.0 - gamma) / (1.0 - cgn)
    return expr - math.log1p(-cgn) / math.log1p(-gamma)


def epsilon_interior(e: Ellipticity) -> tuple[float, float, float]:
    """Maximize phi over gamma in (0,1) with c = c_star(e).

    Returns (gamma0, eps, residual) where residual is the absolute gap in the
    stationarity identity n*c*g0^(n-1)(1-g0)/(1-c*g0^n) = eps.

    At rho = 1 the constant is c = 1 and phi increases to its supremum 1 as
    gamma -> 1-; the limiting triple (1.0, 1.0, 0.0) is returned since the
    stationarity identity holds in that limit.

    The stationarity gap is bisected down to adjacent floats from just left
    of gamma_star(n), where phi still rises, to the last float below 1.
    Raises DomainError when c_star is below the normal float range (n >= 76
    at rho = 1e6, for k = 1), where phi has no resolvable maximum, and
    OptimizationError when the gap does not change sign from + to - on that
    bracket; no configuration with n <= 200 (or n up to 5000 at sampled
    ratios), rho - 1 from 2^-52 to 1e6 and k = 1 or n/2 - 1 raises it. Near
    rho = 1, 1 - c*gamma^n at the maximizer is of size rho - 1 and its
    rounding error decides the gap's sign, so the bisection stops inside
    that noise, which the residual shows: for n <= 200 it reaches 1e-6 at
    rho - 1 = 1e-9, 6e-4 at 1e-12, 6.5e-3 at 1e-13 and 1.3e-2 at 2e-14. eps
    itself stays within phi's rounding of the maximum there.

    The bisection runs on Python floats, whose ** and log1p are the C
    library's; numpy scalars give the same bits at about 3x the cost. It must
    not be vectorized across reports: where numpy's array ** and log1p use
    SIMD loops they round differently from the C library (in 5-8% of inputs
    on an AVX-512 machine), which would move gamma0 and eps.
    """
    return _epsilon_interior(e, c_star(e))


def _epsilon_interior(e: Ellipticity, c: float) -> tuple[float, float, float]:
    n = e.n
    if c == 1.0:
        return 1.0, 1.0, 0.0
    if c < sys.float_info.min:
        raise DomainError(
            f"c_star = {c:.3g} is below the normal float range at n={n}, "
            f"ratio={e.ratio}, k={e.k}; phi cannot be maximized")

    # phi = f*h with f(g) = c g^n / (-ln(1-g)), which peaks at gamma*, and
    # h(g) = -ln(1 - c g^n)/(c g^n), which increases: so phi' > 0 at gamma*,
    # and the gap, positive left of the maximizer and negative right of it,
    # is bisected from just left of gamma* (1e-6 relative, clear of gamma*'s
    # rounding) to the last float below 1
    lo, hi = _gamma_star(n) * (1.0 - 1e-6), 1.0 - 2.0 ** -53
    if not (_stationarity_gap(lo, c, n) > 0.0 > _stationarity_gap(hi, c, n)):
        raise OptimizationError(
            f"stationarity gap does not change sign from + to - on the bracket "
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
    require_int("n", n, 2)
    return _gamma_star(n)


# cached for the last n only, as _tau_kernel is
@functools.lru_cache(maxsize=1)
def _gamma_star(n: int) -> float:
    w = lambert_wm1(-(1.0 / n) * math.exp(-1.0 / n)).value
    return 1.0 + 1.0 / (n * w)


@functools.lru_cache(maxsize=1)
def _tau_kernel(n: float) -> float:
    # n(e-1)ln(n)/(1+n e ln n) * (n ln n / (1 + n ln n))^n, log1p-stable
    t = n * math.log(n)
    lead = n * (math.e - 1.0) * math.log(n) / (1.0 + n * math.e * math.log(n))
    return lead * math.exp(n * math.log1p(-1.0 / (1.0 + t)))


def tau(n: int) -> float:
    """Dimensional constant tau_n; increasing in n with limit 1 - 1/e."""
    require_int("n", n, 3)
    return _tau_kernel(float(n))


def closed_form_lower(e: Ellipticity) -> float:
    """Closed-form interior lower bound (tau_n / ln n) * c_star.

    Expands to n(e-1)/(1+n e ln n) * (n ln n/(1+n ln n))^n * c_star. Defined
    for n >= 2; n = 2 is outside the asymptotic regime and emits a warning.
    """
    return _closed_form_lower(e.n, c_star(e))


def _closed_form_lower(n: int, cs: float) -> float:
    if n == 2:
        warnings.warn("closed_form_lower at n = 2 is outside the asymptotic regime",
                      stacklevel=3)
    return _tau_kernel(float(n)) / math.log(n) * cs


def refined_lower(e: Ellipticity) -> float:
    """Refined interior lower bound for k < n/2: c_lower_bound / (4 ln n)."""
    if e.n < 3:
        raise DomainError(f"refined_lower requires n >= 3, got {e.n}")
    return c_lower_bound(e) / (4.0 * math.log(e.n))


def _refined_lower_normalized(e: Ellipticity) -> float:
    # the sweep column refined_lower(e) rho^(n-k) = b^(n-k) / (4 ln n) with
    # b = _c_lower_base(e) < 2; DomainError once b^(n-k) leaves the float
    # range (n - k > 1023)
    try:
        return _c_lower_base(e) ** (e.n - e.k) / (4.0 * math.log(e.n))
    except OverflowError:
        raise DomainError(
            f"refined_lower_normalized exceeds the float range at n={e.n}, k={e.k}, "
            f"ratio={e.ratio}") from None


def abstract_lower(n: int, ratio: float) -> float:
    """Headline lower bound (1 + (2/3)(1 - 1/rho))^(n-1) (1/rho)^(n-1) / (4 ln n)."""
    require_int("n", n, 3)
    require_finite("ratio", ratio, 1.0)
    return ((1.0 + (2.0 / 3.0) * (1.0 - 1.0 / ratio)) / ratio) ** (n - 1) / (4.0 * math.log(n))


def epsilon_upper(n: int, ratio: float) -> float:
    """Upper bound n/((n-1)rho + 1) from the explicit radial family."""
    require_int("n", n, 2)
    require_finite("ratio", ratio, 1.0)
    return n / ((n - 1) * ratio + 1.0)


def ass_conjecture(ratio: float) -> float:
    """Dimension-free conjectured exponent 2/(rho + 1)."""
    require_finite("ratio", ratio, 1.0)
    return 2.0 / (ratio + 1.0)


def epsilon_global(e: Ellipticity) -> float:
    """Up-to-the-boundary exponent from the golden-ratio dilation chain.

    ln(1 - 2 c* (1+sqrt5)^n / (3+sqrt5)^(n+1)) / ln(2/(3+sqrt5)) with
    c* = c_star(e), which is ln(1 - c* phi^-(n+2)) / (-2 ln phi) for the
    golden ratio phi; within 4 ulps of a 60-digit reference for n <= 1000.
    """
    return _epsilon_global(e.n, c_star(e))


def _epsilon_global(n: int, cs: float) -> float:
    return math.log1p(-cs * _golden(-(n + 2))) / (-2.0 * _LN_GOLDEN)


def global_rho_j(j: int, e: Ellipticity) -> float:
    """Dilation radius rho_j of the j-th golden-ratio ring.

    Solves ((1+d)/d) n (1+d)^2 rho_j = (1 - c d^n/(1+d)^(n+1))^(j+1) with
    d = phi = (1+sqrt5)/2 and c = pucci_c(e); as powers of phi that is
    rho_j = (1 - c phi^-(n+2))^(j+1) / (n phi^5). Raises DomainError when
    rho_j underflows to 0 (j of order 10^4 and up). Asserts
    rho_j < (1+d)^-2 = phi^-4 and d^4/(n^2 (1+d)^8) <= (1+d)^j rho_j^2, the
    latter in logarithms; failure would be an implementation error, not a
    bad parameter.
    """
    require_int("j", j, 0)
    n = e.n
    shrink = 1.0 - pucci_c(e) * _golden(-(n + 2))
    rho_j = shrink ** (j + 1) / (n * _golden(5))
    if rho_j == 0.0:
        raise DomainError(f"rho_j underflows the float range at j={j}")
    assert rho_j < _golden(-4), f"rho_j={rho_j} outside (0, (1+d)^-2)"
    assert (-12.0 * _LN_GOLDEN - 2.0 * math.log(n)
            <= 2.0 * j * _LN_GOLDEN + 2.0 * math.log(rho_j)), (
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
    if not (is_number(alpha) and 0.0 < alpha < eps):
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
            t_min_interior = (1.0 - gamma0) ** (-(j + 1))
            interior_scale = ((1.0 - gamma0) / gamma0) * 2.0 ** 6
        t_min_global = _golden(2 * (j + 1))
    except OverflowError:
        raise DomainError(
            f"alpha = {alpha} is so close to epsilon_interior = {eps} that the "
            f"thresholds for j = {j} exceed the float range") from None
    global_scale = e.n ** 2 * _golden(14)
    return ThresholdData(j, t_min_interior, t_min_global, interior_scale, global_scale)


class T0Result(NamedTuple):
    x0: float
    t0: float


def t0_maximizer(n: int, ratio: float) -> T0Result:
    """Optimal power x0 and decay threshold t0 for the radial barrier family.

    x0 = (rho-2)/W0((rho-2)/e) solves ln x0 = (rho-2+x0)/x0; t0 = n(x0-1)/(x0 ln x0).
    At rho = 2 exactly the quotient is 0/0 and its limit x0 = e is used. t0
    decreases from n (rho -> 1+) toward 0 as rho grows.
    """
    require_int("n", n, 2)
    if not (is_number(ratio) and 1.0 < ratio < math.inf):
        raise DomainError(f"t0_maximizer requires a finite ratio > 1, got {ratio!r}")
    if ratio == 2.0:
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
    require_int("n", n, 2)
    if not (is_number(beta) and 1.0 < beta <= n):
        raise DomainError(f"rho_for_beta requires beta in (1, n], got {beta}")
    w = lambert_w0(-beta * math.exp(-beta)).value
    x0 = -beta / w
    return 2.0 - beta + (beta - 1.0) * x0


def compute_report(e: Ellipticity) -> ExponentReport:
    """Assemble every bound for one configuration; undefined fields are NaN."""
    c = pucci_c(e)
    cs = c_star(e)  # once, for the four bounds built on it
    gamma0, eps, resid = _epsilon_interior(e, cs)
    gs = gamma_star(e.n)
    f_at_gs = phi_lower(gs, cs, e.n)
    cfl = _closed_form_lower(e.n, cs)
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
        epsilon_global=_epsilon_global(e.n, cs),
    )
