import math
import sys

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import hessint as h
from _oracles import lambert_bisect, lambert_mp


def test_w0_known_points():
    assert h.lambert_w0(0.0).value == 0.0
    assert abs(h.lambert_w0(math.e).value - 1.0) <= 1e-14
    assert abs(h.lambert_w0(1.0).value - 0.5671432904097838) <= 1e-14
    assert h.lambert_w0(-1.0 / math.e).value == -1.0
    # within 1e-15 below the branch point, rounding error is clamped to W = -1
    assert h.lambert_w0(-1.0 / math.e - 5e-16).value == -1.0


def test_wm1_known_points():
    assert h.lambert_wm1(-1.0 / math.e).value == -1.0
    assert h.lambert_wm1(-1.0 / math.e - 5e-16).value == -1.0
    assert abs(h.lambert_wm1(-2.0 * math.exp(-2.0)).value + 2.0) <= 1e-12
    assert abs(h.lambert_wm1(-5.0 * math.exp(-5.0)).value + 5.0) <= 1e-12


def test_branch_tags():
    assert h.lambert_w0(2.0).branch is h.Branch.PRINCIPAL
    assert h.lambert_wm1(-0.1).branch is h.Branch.LOWER


def test_domain_errors():
    with pytest.raises(h.DomainError):
        h.lambert_w0(-0.4)
    with pytest.raises(h.DomainError):
        h.lambert_wm1(-0.4)
    with pytest.raises(h.DomainError):
        h.lambert_wm1(0.0)
    with pytest.raises(h.DomainError):
        h.lambert_wm1(0.5)
    with pytest.raises(h.DomainError):
        h.lambert_w0(math.nan)
    with pytest.raises(h.DomainError):
        h.wm1_envelope_bounds(-0.1)
    with pytest.raises(h.DomainError):
        h.ratio_a(-1.0)


def test_w0_against_bisection():
    zs = np.concatenate([
        np.linspace(-1.0 / math.e + 1e-9, 2.0, 60),
        np.geomspace(2.0, 1e6, 40),
    ])
    for z in zs:
        w = h.lambert_w0(float(z)).value
        assert abs(w - lambert_bisect(float(z), 0)) <= 1e-12 * max(1.0, abs(w))


def test_w0_relative_accuracy_for_small_arguments():
    # W0(z) ~ z here, so an absolute residual test alone would allow ~1e-12
    # relative error
    zs = np.geomspace(1e-3, 1e-2, 100)
    for z in np.concatenate([zs, -zs]):
        w = h.lambert_w0(float(z)).value
        assert abs(w - lambert_bisect(float(z), 0)) <= 1e-13 * abs(w), z


def test_wm1_against_bisection():
    for z in -np.geomspace(1e-30, 1.0 / math.e - 1e-9, 80):
        w = h.lambert_wm1(float(z)).value
        assert abs(w - lambert_bisect(float(z), -1)) <= 1e-12 * max(1.0, abs(w))


@given(st.floats(-0.99, 5.0))
def test_w0_round_trip(x):
    w = h.lambert_w0(x * math.exp(x)).value
    assert abs(w - x) <= 1e-11 * max(1.0, abs(x))


@given(st.floats(-20.0, -1.01))
def test_wm1_round_trip(x):
    w = h.lambert_wm1(x * math.exp(x)).value
    assert abs(w - x) <= 1e-11 * abs(x)


@given(st.floats(-1.0 / math.e + 1e-12, 1e6))
def test_w0_residual_contract(z):
    bv = h.lambert_w0(z)
    assert bv.residual <= 1e-12 * max(1.0, abs(z))
    assert bv.value >= -1.0


@given(st.floats(1e-300, 1.0 / math.e - 1e-12))
def test_wm1_residual_contract(mag):
    bv = h.lambert_wm1(-mag)
    assert bv.residual <= 1e-12
    assert bv.value <= -1.0


def test_bracket_endpoints():
    lo, hi = h.wm1_envelope_bounds(0.0)
    assert hi == -1.0
    assert abs(lo + h.BRACKET_RATIO_MAX) <= 1e-15
    assert h.lambert_wm1(-1.0 / math.e).value == -1.0


@given(st.floats(0.0, 50.0))
def test_bracket_contains_wm1(u):
    lo, hi = h.wm1_envelope_bounds(u)
    w = h.lambert_wm1(-math.exp(-(u + 1.0))).value
    assert lo - 1e-12 * abs(lo) <= w <= hi + 1e-12


def test_ratio_a_values():
    assert h.ratio_a(0.0) == 1.0
    assert abs(h.ratio_a(math.e - 2.0) - math.e / (math.e - 1.0)) <= 1e-12
    assert h.BRACKET_RATIO_MAX == math.e / (math.e - 1.0)


@given(st.floats(0.0, 1e3))
def test_ratio_a_range(u):
    a = h.ratio_a(u)
    assert 1.0 - 1e-12 <= a <= h.BRACKET_RATIO_MAX + 1e-12


def test_ratio_a_peak_is_global_max():
    peak = h.ratio_a(math.e - 2.0)
    for u in np.linspace(0.0, 20.0, 400):
        assert h.ratio_a(float(u)) <= peak + 1e-12


def test_ratio_a_matches_wm1():
    for u in [0.3, 1.0, math.e - 2.0, 5.0, 30.0]:
        w = h.lambert_wm1(-math.exp(-(u + 1.0))).value
        assert abs(h.ratio_a(u) + w / (u + 1.0)) <= 1e-13


def test_wm1_deep_tail_log_identity():
    # w + log(-w) = log(-z), checkable without underflow in w e^w
    for u in [60.0, 200.0, 700.0]:
        z = -math.exp(-(1.0 + u))
        w = h.lambert_wm1(z).value
        assert abs(w + math.log(-w) - math.log(-z)) <= 1e-13 * (1.0 + u)


def test_ratio_a_past_underflow():
    # -e^{-(u+1)} underflows to zero here; ratio_a works from its logarithm
    a = h.ratio_a(800.0)
    assert 1.0 < a < 1.02


@pytest.mark.parametrize("z, expected", [
    (1e308, 702.6413620341068),
    (sys.float_info.max, 703.2270331047702),  # mpmath, rounded to double
])
def test_w0_near_the_top_of_the_float_range(z, expected):
    # w e^w would overflow here; the iteration never forms e^w
    bv = h.lambert_w0(z)
    assert abs(bv.value - expected) <= 1e-15 * expected
    assert math.isfinite(bv.residual)


@pytest.mark.parametrize("z, branch", [
    *[pytest.param(-1.0 / math.e + d, b, id=f"{'w0' if b == 0 else 'wm1'}-offset-{d:.1e}")
      for d in np.geomspace(1e-12, 1e-3, 19) for b in (0, -1)],
    pytest.param(-5e-324, -1, id="wm1-subnormal-5e-324"),
    pytest.param(-1e-310, -1, id="wm1-subnormal-1e-310"),
    pytest.param(-sys.float_info.min, -1, id="wm1-dbl-min"),
    pytest.param(1e-300, 0, id="w0-1e-300"),
    pytest.param(sys.float_info.max, 0, id="w0-dbl-max"),
])
def test_lambert_against_mpmath(z, branch):
    # near -1/e this needs the series window and the two-double z + 1/e
    solver = h.lambert_w0 if branch == 0 else h.lambert_wm1
    expected = lambert_mp(z, branch)
    assert abs(solver(z).value - expected) <= 1e-13 * abs(expected)
