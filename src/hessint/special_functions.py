"""Real branches of the Lambert W function and the tight branch bracket.

W solves W(z) e^{W(z)} = z. Two real branches exist: the principal branch W0
(W >= -1, defined for z >= -1/e) and the lower branch W-1 (W <= -1, defined
for -1/e <= z < 0). Both meet at the branch point z = -1/e where W = -1.

The solver uses a branch-appropriate seed, Halley iteration, a square-root
(Puiseux) expansion inside a 1e-12 window around the branch point, Newton on
w + log|w| = log|z| where w e^w would underflow (W-1 near 0) or overflow (W0
near the top of the float range), and a bisection fallback on a guaranteed
bracket if Halley ever fails to converge.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

from .errors import DomainError

_INV_E = math.exp(-1.0)
_BRANCH_POINT = -_INV_E
_BRANCH_WINDOW = 1e-12
_MAX_HALLEY = 50
_MAX_BISECT = 200
# above this log z, Halley's w e^w can overflow; W0 is solved in log space
_LOG_Z_MAX_HALLEY = 690.0

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


def _puiseux(z: float, sign: float) -> float:
    # expansion in p = sqrt(2(ez+1)); sign +1 for W0, -1 for W-1
    s = 2.0 * (math.e * z + 1.0)
    p = math.sqrt(s) if s > 0.0 else 0.0
    return -1.0 + sign * p - p * p / 3.0 + sign * (11.0 / 72.0) * p ** 3


def _halley(w: float, z: float) -> tuple[float, bool]:
    for _ in range(_MAX_HALLEY):
        ew = math.exp(w)
        f = w * ew - z
        if abs(f) <= 1e-14 * abs(z):
            return w, True
        wp1 = w + 1.0
        if abs(wp1) < 1e-12:
            # derivative vanishes at the branch point; let the caller fall back
            return w, False
        denom = ew * wp1 - (w + 2.0) * f / (2.0 * wp1)
        if denom == 0.0 or not math.isfinite(denom):
            return w, False
        dw = f / denom
        w -= dw
        if abs(dw) <= 4e-16 * (1.0 + abs(w)):
            return w, True
    return w, _residual(w, z) <= 1e-12 * max(1.0, abs(z))


def _bisect(z: float, lo: float, hi: float) -> float:
    # f(y) = y e^y - z; requires a sign change on [lo, hi]
    flo = lo * math.exp(lo) - z
    fhi = hi * math.exp(hi) - z
    if flo == 0.0:
        return lo
    if fhi == 0.0:
        return hi
    if flo * fhi > 0.0:
        raise DomainError(f"bisection bracket [{lo}, {hi}] does not straddle a root for z={z}")
    for _ in range(_MAX_BISECT):
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break
        fm = mid * math.exp(mid) - z
        if fm == 0.0:
            return mid
        if (fm > 0.0) == (flo > 0.0):
            lo, flo = mid, fm
        else:
            hi, fhi = mid, fm
    return 0.5 * (lo + hi)


def lambert_w0(z: float) -> BranchValue:
    """Principal branch W0(z) for z >= -1/e. W0 >= -1, W0(0) = 0, W0(e) = 1."""
    z = float(z)
    if not math.isfinite(z):
        raise DomainError(f"lambert_w0 requires a finite argument, got {z}")
    if z < _BRANCH_POINT:
        if z < _BRANCH_POINT - 1e-15:
            raise DomainError(f"lambert_w0 undefined for z={z} < -1/e")
        z = _BRANCH_POINT
    if z == 0.0:
        return BranchValue(0.0, Branch.PRINCIPAL, 0.0)
    if z == _BRANCH_POINT:
        return BranchValue(-1.0, Branch.PRINCIPAL, _residual(-1.0, z))
    if abs(z - _BRANCH_POINT) <= _BRANCH_WINDOW:
        w = _puiseux(z, +1.0)
        return BranchValue(w, Branch.PRINCIPAL, _residual(w, z))

    if z < -0.25:
        w = _puiseux(z, +1.0)
    elif z < 1.5:
        w = math.log1p(z) if z > -0.9 else z
    else:
        lz = math.log(z)
        if lz > _LOG_Z_MAX_HALLEY:
            # w e^w overflows inside Halley near the top of the float range;
            # iterate on w + log(w) = log(z) instead
            w = _log_newton(lz)
            return BranchValue(w, Branch.PRINCIPAL, _residual(w, z))
        w = lz - math.log(lz) if lz > 1.0 else lz
    w, ok = _halley(w, z)
    if not ok:
        if z >= 0.0:
            hi = 1.0 + math.log1p(z)
        else:
            hi = 0.0
        lo = -1.0 if z < 0.0 else 0.0
        w = _bisect(z, lo, max(hi, lo + 1e-12))
    w = max(w, -1.0)
    return BranchValue(w, Branch.PRINCIPAL, _residual(w, z))


def lambert_wm1(z: float) -> BranchValue:
    """Lower branch W-1(z) for -1/e <= z < 0. W-1 <= -1, W-1(-1/e) = -1."""
    z = float(z)
    if not math.isfinite(z):
        raise DomainError(f"lambert_wm1 requires a finite argument, got {z}")
    if z >= 0.0:
        raise DomainError(f"lambert_wm1 undefined for z={z} >= 0")
    if z < _BRANCH_POINT:
        if z < _BRANCH_POINT - 1e-15:
            raise DomainError(f"lambert_wm1 undefined for z={z} < -1/e")
        z = _BRANCH_POINT
    if z == _BRANCH_POINT:
        return BranchValue(-1.0, Branch.LOWER, _residual(-1.0, z))
    if abs(z - _BRANCH_POINT) <= _BRANCH_WINDOW:
        w = _puiseux(z, -1.0)
        return BranchValue(w, Branch.LOWER, _residual(w, z))

    lz = math.log(-z)
    if lz <= -4.0:
        # tiny |z|: iterate on w + log(-w) = log(-z), well conditioned where
        # the linear residual tolerance would accept the raw asymptotic seed
        w = _log_newton(lz)
        return BranchValue(w, Branch.LOWER, _residual(w, z))
    # log-log seed, exact asymptotically as z -> 0-
    w = lz - math.log(-lz) if lz < -1.0 else -1.0 - math.sqrt(2.0 * (math.e * z + 1.0))
    w, ok = _halley(w, z)
    if not ok or w > -1.0:
        lo, hi = wm1_envelope_bounds(-lz - 1.0)
        w = _bisect(z, lo - 1e-9, hi + 1e-9)
    w = min(w, -1.0)
    return BranchValue(w, Branch.LOWER, _residual(w, z))


def wm1_envelope_bounds(u: float) -> tuple[float, float]:
    """Two-sided bracket for W-1(-e^{-(u+1)}), u >= 0.

    Returns (lo, hi) = (-(e/(e-1))(u+1), -(u+1)); the true value lies between,
    with equality of the two ends only in the limits u -> 0+ and u -> inf.
    """
    u = float(u)
    if not u >= 0.0:
        raise DomainError(f"wm1_envelope_bounds requires u >= 0, got {u}")
    return (-BRACKET_RATIO_MAX * (u + 1.0), -(u + 1.0))


def _log_newton(L: float) -> float:
    # solve w + log|w| = L: for L <= -4 the w <= -1 root (W-1), for L > 690 the
    # w > 0 root (W0). The seed L - log|L| sits right of the W-1 root and left
    # of the W0 root; g is monotone and concave there, so Newton moves
    # monotonically to it
    w = L - math.log(abs(L))
    for _ in range(60):
        g = w + math.log(abs(w)) - L
        dw = g / (1.0 + 1.0 / w)
        w -= dw
        if abs(dw) <= 1e-16 * abs(w):
            break
    return w


def ratio_a(u: float) -> float:
    """Bracket sharpness ratio a(u) = -W-1(-e^{-(u+1)})/(u+1) for u >= 0.

    Equals 1 at u = 0 and as u -> inf; peaks at u = e-2 with value e/(e-1).
    """
    u = float(u)
    if not u >= 0.0:
        raise DomainError(f"ratio_a requires u >= 0, got {u}")
    z = -math.exp(-(u + 1.0))
    if z == 0.0:
        # the argument underflowed; solve for W-1 in log space instead
        return -_log_newton(-(u + 1.0)) / (u + 1.0)
    return -lambert_wm1(z).value / (u + 1.0)
