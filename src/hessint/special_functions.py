"""Real branches of the Lambert W function and the tight branch bracket.

W solves W(z) e^{W(z)} = z. Two real branches exist: the principal branch W0
(W >= -1, defined for z >= -1/e) and the lower branch W-1 (W <= -1, defined
for -1/e <= z < 0). Both meet at the branch point z = -1/e where W = -1.

Both branches use one solver. Within p^2 <= 1e-3 of the branch point, where
p = sqrt(2(ez+1)), W is the Puiseux series of Corless et al. (1996), "On the
Lambert W function", through p^9, with p > 0 on W0 and p < 0 on W-1; z + 1/e
is taken against a two-double 1/e. Everywhere else the iteration of Fritsch,
Shafer and Crowley (CACM 16(2), 1973) refines a seed. It works on
log(z/w) - w, never evaluates e^w, and converges at fourth order. On W-1 it
takes log(z/w) as log|z| - log|w|, so no quotient underflows at subnormal z.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Callable

from .errors import DomainError, require_finite

_INV_E = math.exp(-1.0)
_INV_E_LO = -1.2428753672788363e-17  # 1/e - _INV_E
_BRANCH_POINT = -_INV_E
# bounds on p^2 = 2(ez+1): the series alone up to the first, the series as
# the iteration's seed below the second (z below about -0.25)
_SERIES_WINDOW = 1e-3
_SERIES_SEED = 0.64
# Puiseux coefficients of W in p, from p^0 to p^9 (Corless et al. 1996)
_SERIES = (-1.0, 1.0, -1 / 3, 11 / 72, -43 / 540, 769 / 17280, -221 / 8505,
           680863 / 43545600, -1963 / 204120, 226287557 / 37623398400)
# after a relative step below _STEP_TOL the fourth-order error left is far
# below rounding, whatever the 1/(1+w) conditioning adds to the step's noise
_STEP_TOL = 1e-7
_MAX_STEPS = 8

# max of the bracket ratio -W_{-1}(-e^{-(u+1)})/(u+1), attained at u = e-2
BRACKET_RATIO_MAX = math.e / (math.e - 1.0)


class Branch(Enum):
    PRINCIPAL = 0
    LOWER = -1


@dataclass(frozen=True)
class BranchValue:
    """A solved W value with its branch tag and residual |w e^w - z|."""

    value: float
    branch: Branch
    residual: float


def _residual(w: float, z: float) -> float:
    return abs(w * math.exp(w) - z)


def _p2(z: float) -> float:
    # 2(ez+1) = 2e(z + 1/e), zero at or below the branch point
    return max(2.0 * math.e * ((z + _INV_E) + _INV_E_LO), 0.0)


def _series(p: float) -> float:
    w = 0.0
    for c in reversed(_SERIES):
        w = w * p + c
    return w


def _fritsch(w: float, log_ratio: Callable[[float], float]) -> float:
    # w <- w(1 + e) with t = log(z/w) - w, log_ratio(w) giving log(z/w); the
    # step is added as w e so that its low bits survive
    for _ in range(_MAX_STEPS):
        t = log_ratio(w) - w
        q = 2.0 * (1.0 + w) * (1.0 + w + 2.0 / 3.0 * t) - t
        e = t / (1.0 + w) * (q - t) / (q - 2.0 * t)
        w += w * e
        if abs(e) <= _STEP_TOL:
            break
    return w


def lambert_w0(z: float) -> BranchValue:
    """Principal branch W0(z) for z >= -1/e. W0 >= -1, W0(0) = 0, W0(e) = 1."""
    require_finite("z", z)
    z = float(z)
    if z < _BRANCH_POINT:
        if z < _BRANCH_POINT - 1e-15:
            raise DomainError(f"lambert_w0 undefined for z={z} < -1/e")
        z = _BRANCH_POINT
    if z == 0.0:
        return BranchValue(0.0, Branch.PRINCIPAL, 0.0)

    p2 = _p2(z)
    if p2 < _SERIES_SEED:
        w = _series(math.sqrt(p2))
    else:
        # Winitzki (2003): within 4% of W0 for every z >= -0.25
        l1 = math.log1p(z)
        w = l1 * (1.0 - math.log1p(l1) / (2.0 + l1))
    if p2 > _SERIES_WINDOW:
        # z/w = e^w lies in [1/e, e^704): the quotient never under- or overflows
        w = _fritsch(w, lambda w: math.log(z / w))
    w = max(w, -1.0)
    return BranchValue(w, Branch.PRINCIPAL, _residual(w, z))


def _wm1(lz: float, p2: float) -> float:
    # W-1 from lz = log|z| and p2 = 2(ez+1); ratio_a supplies both without z
    w = _series(-math.sqrt(p2)) if p2 < _SERIES_SEED else lz - math.log(-lz)
    if p2 > _SERIES_WINDOW:
        w = _fritsch(w, lambda w: lz - math.log(-w))
    return w


def lambert_wm1(z: float) -> BranchValue:
    """Lower branch W-1(z) for -1/e <= z < 0. W-1 <= -1, W-1(-1/e) = -1."""
    require_finite("z", z)
    z = float(z)
    if z >= 0.0:
        raise DomainError(f"lambert_wm1 undefined for z={z} >= 0")
    if z < _BRANCH_POINT:
        if z < _BRANCH_POINT - 1e-15:
            raise DomainError(f"lambert_wm1 undefined for z={z} < -1/e")
        z = _BRANCH_POINT
    w = min(_wm1(math.log(-z), _p2(z)), -1.0)
    return BranchValue(w, Branch.LOWER, _residual(w, z))


def wm1_envelope_bounds(u: float) -> tuple[float, float]:
    """Two-sided bracket for W-1(-e^{-(u+1)}), u >= 0.

    Returns (lo, hi) = (-(e/(e-1))(u+1), -(u+1)); the true value lies between,
    with equality of the two ends only in the limits u -> 0+ and u -> inf.
    """
    require_finite("u", u, 0.0)
    u = float(u)
    return (-BRACKET_RATIO_MAX * (u + 1.0), -(u + 1.0))


def ratio_a(u: float) -> float:
    """Bracket sharpness ratio a(u) = -W-1(-e^{-(u+1)})/(u+1) for u >= 0.

    Equals 1 at u = 0 and as u -> inf; peaks at u = e-2 with value e/(e-1).
    """
    require_finite("u", u, 0.0)
    u = float(u)
    # log|z| = -(u+1) and ez+1 = -expm1(-u), so z itself is never formed
    return -_wm1(-(u + 1.0), -2.0 * math.expm1(-u)) / (u + 1.0)
