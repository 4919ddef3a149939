import dataclasses
import decimal
import math
import sys
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hessint as h
from _oracles import phi_max_mp
from hessint import exponent_bounds as xb

E321 = h.Ellipticity(3, 2.0, 1)


def test_ellipticity_validation():
    with pytest.raises(h.DomainError):
        h.Ellipticity(3, 2.0, 3)
    with pytest.raises(h.DomainError):
        h.Ellipticity(3, 2.0, 0)
    with pytest.raises(h.DomainError):
        h.Ellipticity(3, 0.5, 1)
    with pytest.raises(h.DomainError):
        h.Ellipticity(1, 2.0, 1)


def test_pucci_c_value():
    assert abs(h.pucci_c(E321) - 4.0 / 9.0) <= 1e-15


def test_c_star_is_max_over_lower_ranks():
    for n, ratio, k in [(3, 2.0, 2), (6, 1.5, 4), (9, 7.0, 5), (12, 10.0, 11)]:
        brute = max(h.pucci_c(h.Ellipticity(n, ratio, i)) for i in range(1, k + 1))
        assert h.c_star(h.Ellipticity(n, ratio, k)) == brute


def test_c_lower_bound_exact_rational_case():
    assert h.c_lower_bound(E321) == 0.390625  # 2^-2 * (1 + 1/4)^2
    with pytest.raises(h.DomainError):
        h.c_lower_bound(h.Ellipticity(4, 2.0, 2))  # needs 2k < n


def test_phi_closed_form_point():
    assert abs(h.phi(0.5, 1.0, 2) - math.log(0.75) / math.log(0.5)) <= 1e-15


def test_phi_domain_errors():
    for gamma, c, n in [(-0.1, 1.0, 3), (0.0, 1.0, 3), (1.0, 1.0, 3),
                        (0.5, -1.0, 3), (0.5, 0.0, 3), (0.5, 1.0, 1)]:
        with pytest.raises(h.DomainError):
            h.phi(gamma, c, n)


@given(st.floats(0.01, 0.99), st.floats(0.05, 1.0), st.integers(2, 12))
def test_phi_lower_never_exceeds_phi(gamma, c, n):
    assert h.phi_lower(gamma, c, n) <= h.phi(gamma, c, n) + 1e-14


def test_phi_lower_reference_point():
    # doubling the n = 2 value at c = 1/2, gamma = 0.715 gives the known constant
    assert abs(2.0 * h.phi_lower(0.715, 0.5, 2) - 0.40726424502657316) <= 1e-15


def test_epsilon_interior_matches_dense_scan():
    for e in [E321, h.Ellipticity(5, 1.5, 2), h.Ellipticity(8, 4.0, 3)]:
        gamma0, eps, resid = h.epsilon_interior(e)
        c = h.c_star(e)
        gammas = np.linspace(1e-6, 1.0 - 1e-6, 1_000_001)
        vals = np.log1p(-c * gammas ** e.n) / np.log1p(-gammas)
        scan = vals.max()
        assert eps >= scan - 1e-12
        assert abs(eps - scan) <= 1e-9
        assert abs(gammas[vals.argmax()] - gamma0) <= 2e-6
        assert resid <= 1e-9


def test_epsilon_interior_unit_ratio_degenerates():
    gamma0, eps, resid = h.epsilon_interior(h.Ellipticity(4, 1.0, 2))
    assert (gamma0, eps, resid) == (1.0, 1.0, 0.0)


def test_epsilon_interior_refuses_unbracketed_gap(monkeypatch):
    # a gap without the + to - sign change on the scan bracket is an error,
    # never an unchecked maximizer
    monkeypatch.setattr(h.exponent_bounds, "_stationarity_gap", lambda g, c, n: 1.0)
    with pytest.raises(h.OptimizationError, match="does not change sign"):
        h.epsilon_interior(E321)


def _assert_near_one_max(e, gamma0, eps):
    # as rho -> 1 the maximizer tends to gamma = 1; it must still be found,
    # and beat phi on a dense geometric grid of 1 - gamma
    n, c = e.n, h.c_star(e)
    if c == 1.0:  # 1 + (rho - 1)/(n - 1) rounded to 1: the limit (1, 1)
        assert (gamma0, eps) == (1.0, 1.0)
        return
    assert 0.0 < gamma0 < 1.0
    gammas = 1.0 - np.geomspace(0.5, 2.0 ** -53, 200_001)
    vals = np.log1p(-c * gammas ** n) / np.log1p(-gammas)
    g = gammas[vals.argmax()]
    # phi's own rounding error at the grid's best point: a few ulps of 1 in
    # 1 - c*g^n, relative to 1 - c*g^n and divided by -log(1 - g)
    noise = (n + 2) * 2.0 ** -53 / ((1.0 - c * g ** n) * -math.log1p(-g))
    assert eps == h.phi(gamma0, c, n)
    assert eps >= vals.max() - noise


# at 1e-14 and 2e-14 the old 1000-point scan of gamma could not bracket the
# maximizer (OptimizationError), except at (2e-14, 36), and at (1e-14, 130)
# where c_star rounds to 1
@pytest.mark.parametrize("excess, n", [
    *((excess, n) for excess in (1e-5, 1e-8, 1e-12) for n in (3, 10, 40)),
    *((excess, n) for excess in (1e-14, 2e-14) for n in (36, 62, 90, 130))])
def test_epsilon_interior_ratio_near_one(n, excess):
    e = h.Ellipticity(n, 1.0 + excess, 1)
    gamma0, eps, _ = h.epsilon_interior(e)
    _assert_near_one_max(e, gamma0, eps)


def test_epsilon_interior_against_50_digit_max_of_phi():
    # 20 seeded (n, rho, k), n and rho log-uniform on 3..1000 and 1.001..1e6,
    # skipping the draws whose c_star is below the normal range (DomainError).
    # eps is within 2 (n + 2) 2^-53 / (1 - c g0^n) relative of max phi at 50
    # digits: c_star's rounding, a few ulps raised to the power n - i, enters
    # ln(1 - c g^n) with the factor 1/(1 - c g^n). On 1200 such draws the
    # worst error was 1.30 of (n + 2) 2^-53 / (1 - c g0^n)
    rng = np.random.default_rng(21)
    checked = 0
    while checked < 20:
        n = round(math.exp(rng.uniform(math.log(3.0), math.log(1000.0))))
        ratio = math.exp(rng.uniform(math.log(1.001), math.log(1e6)))
        e = h.Ellipticity(n, ratio, int(rng.integers(1, n)))
        try:
            _, eps, _ = h.epsilon_interior(e)
        except h.DomainError:
            continue
        g0, want = phi_max_mp(n, ratio, e.k)
        tol = 2.0 * (n + 2) * 2.0 ** -53 / (1.0 - h.c_star(e) * float(g0) ** n)
        assert abs(eps - want) <= tol * want, e
        checked += 1


def test_gamma_star_satisfies_stationarity():
    # argmax of gamma^n / (-log(1-gamma)) solves n (1-g) log(1-g) + g = 0
    for n in [2, 3, 5, 12, 50]:
        g = h.gamma_star(n)
        assert 0.0 < g < 1.0
        assert abs(n * (1.0 - g) * math.log(1.0 - g) + g) <= 1e-12


def test_gamma_star_frozen_value():
    assert abs(h.gamma_star(3) - 0.8510007034874914) <= 1e-15


def test_gamma_star_checks_n_before_its_cache():
    # 3.0 and True compare equal to the integers 3 and 1, so whatever the
    # cache's keying, the argument check must run before the cache lookup
    g = h.gamma_star(3)
    for bad in (3.0, True):
        with pytest.raises(h.DomainError):
            h.gamma_star(bad)
    assert h.gamma_star(3) == g


def test_tau_frozen_value_and_bounds():
    assert abs(h.tau(3) - 0.25680150513911726) <= 1e-15
    for n in [3, 7, 33, 1000, 100000]:
        assert 0.25 < h.tau(n) < 1.0 - 1.0 / math.e


def test_tau_strictly_increasing_sample():
    ns = np.unique(np.geomspace(3, 100000, 60).astype(int))
    vals = [h.tau(int(n)) for n in ns]
    assert all(b > a for a, b in zip(vals, vals[1:]))


def test_closed_form_lower_frozen():
    assert abs(h.closed_form_lower(E321) - 0.10388924597086127) <= 1e-15


def test_closed_form_lower_warns_at_n2():
    with pytest.warns(UserWarning):
        h.closed_form_lower(h.Ellipticity(2, 2.0, 1))


def test_refined_and_abstract_frozen():
    assert abs(h.refined_lower(E321) - 0.08889054947527708) <= 1e-15
    assert abs(h.abstract_lower(3, 2.0) - 0.10113769184742637) <= 1e-15


def test_epsilon_upper_formula():
    assert h.epsilon_upper(3, 2.0) == 0.6
    for n in [3, 5, 9]:
        for ratio in [1.5, 2.0, 7.0]:
            assert abs(h.epsilon_upper(n, ratio) - n / ((n - 1) * ratio + 1)) <= 1e-15


@given(st.integers(3, 60), st.floats(1.0 + 1e-9, 1e3))
def test_upper_bound_below_conjecture_for_n_at_least_3(n, ratio):
    assert h.epsilon_upper(n, ratio) < h.ass_conjecture(ratio)


def test_upper_meets_conjecture_at_n2_and_unit_ratio():
    assert abs(h.epsilon_upper(2, 3.7) - h.ass_conjecture(3.7)) <= 1e-15
    assert abs(h.epsilon_upper(7, 1.0) - h.ass_conjecture(1.0)) <= 1e-15


def test_epsilon_global_frozen_and_dominated():
    val = h.epsilon_global(E321)
    assert abs(val - 0.042497579181717246) <= 1e-15
    assert 0.0 < val <= h.epsilon_interior(E321)[1]


def test_global_rho_j_values_and_invariants():
    delta = 0.5 * (1.0 + math.sqrt(5.0))
    assert abs(h.global_rho_j(0, E321) - 0.02885211180452351) <= 1e-15
    assert abs(h.global_rho_j(2, E321) - 0.0265859223088748) <= 1e-15
    prev = math.inf
    for j in range(7):
        rho_j = h.global_rho_j(j, E321)
        assert 0.0 < rho_j < (1.0 + delta) ** -2
        assert (1.0 + delta) ** j * rho_j ** 2 >= delta ** 4 / (9.0 * (1.0 + delta) ** 8) - 1e-15
        assert rho_j <= prev
        prev = rho_j


def test_epsilon_global_within_4_ulps_of_decimal_arithmetic():
    # ln(1 - c* phi^-(n+2)) / (-2 ln phi) to 60 digits; -q - q^2/2 stands in
    # for ln(1 - q) once q is below 1e-20, where 1 - q would round to 1
    with decimal.localcontext(prec=60):
        D = decimal.Decimal
        golden = (1 + D(5).sqrt()) / 2
        for ratio in (1.5, 2.0, 10.0, 100.0):
            for n in (*range(3, 1001, 7), 12, 140, 444, 1000):
                e = h.Ellipticity(n, ratio, 1)
                q = D(h.c_star(e)) / golden ** (n + 2)
                log1p = -q - q * q / 2 if q < D("1e-20") else (1 - q).ln()
                want = float(log1p / (-2 * golden.ln()))
                assert abs(h.epsilon_global(e) - want) <= 4 * math.ulp(want), (n, ratio)


def test_bounds_past_the_power_overflow_match_decimal_arithmetic():
    # (3+sqrt5)^(n+1) overflows from n = 428, (1+d)^(n+1) from n = 737
    with decimal.localcontext(prec=60):
        D = decimal.Decimal
        s5 = D(5).sqrt()
        d = (1 + s5) / 2
        for n in (427, 428, 700, 737, 1000):
            e = h.Ellipticity(n, 2.0, 1)
            q = 2 * D(h.c_star(e)) * (1 + s5) ** n / (3 + s5) ** (n + 1)
            want = float(-q / (2 / (3 + s5)).ln())     # log1p(-q) = -q to 1e-90
            assert math.isclose(h.epsilon_global(e), want, rel_tol=1e-12), n
            shrink = 1 - D(h.pucci_c(e)) * d ** n / (1 + d) ** (n + 1)
            for j in (0, 800):
                want = float(shrink ** (j + 1) * d / (n * (1 + d) ** 3))
                assert math.isclose(h.global_rho_j(j, e), want, rel_tol=1e-12), (n, j)
        # b^(n-k) overflows on its own at n = 100000, rho^(k-n) underflows at
        # n = 427, rho = 10; rho^(k-n) b^(n-k) = (b/rho)^(n-k) does neither
        for n, ratio in ((100_000, 1.01), (427, 10.0)):
            e = h.Ellipticity(n, ratio, 1)
            b = 1 + D(n - 2) / D(n - 1) * (1 - 1 / D(ratio))
            want = float((b / D(ratio)) ** (n - 1))
            assert math.isclose(h.c_lower_bound(e), want, rel_tol=1e-9), n
        e = h.Ellipticity(1000, 100.0, 1)
        b = 1 + D(998) / D(999) * (1 - 1 / D(100))
        want = float(b ** 999 / (4 * D(1000).ln()))
        assert math.isclose(xb._refined_lower_normalized(e), want, rel_tol=1e-12)
    e = h.Ellipticity(1100, 100.0, 1)
    with pytest.raises(h.DomainError):
        xb._refined_lower_normalized(e)                             # b^1099 > 1e308
    with pytest.raises(h.DomainError):
        h.global_rho_j(100_000, E321)                               # rho_j underflows
    _, eps, _ = h.epsilon_interior(E321)
    for alpha in (eps * 0.997, eps * (1.0 - 1e-6)):  # j = 333: interior only; j near 1e6
        with pytest.raises(h.DomainError):
            h.thresholds(alpha, E321)


def test_c_lower_bound_within_37_ulps_of_decimal_arithmetic():
    # the 2,920 distinct (n, rho, k) of the benchmark sweep for seeds 1 and 7
    # (20 log-uniform ratios in (1, 100] per seed, n = 3..40, both k rules).
    # fl(b/rho)^(n-k) alone was up to 66 ulps off; with the remainder
    # correction what is left is b's own rounding, 37.07 ulps at worst, as
    # for the product rho^(k-n) b^(n-k)
    configs = set()
    for seed in (1, 7):
        for ratio in 100.0 ** (1.0 - np.random.default_rng([seed, 1]).uniform(size=20)):
            for n in range(3, 41):
                configs |= {(n, float(ratio), 1), (n, float(ratio), max(1, n // 2 - 1))}
    assert len(configs) == 2920
    worst = 0.0
    with decimal.localcontext(prec=60):
        D = decimal.Decimal
        for n, ratio, k in configs:
            b = 1 + D(n - 2 * k) / D(n - k) * (1 - 1 / D(ratio))
            want = (b / D(ratio)) ** (n - k)
            got = h.c_lower_bound(h.Ellipticity(n, ratio, k))
            worst = max(worst, float(abs(D(got) - want)) / math.ulp(float(want)))
    assert worst <= 37.5
    # rho too large to split: the power underflows to 0 first
    assert h.c_lower_bound(h.Ellipticity(3, 1e301, 1)) == 0.0


def test_thresholds_rank_selection():
    _, eps, _ = h.epsilon_interior(E321)
    assert h.thresholds(0.1, E321).j == 2          # ceil(1.4225...)
    assert h.thresholds(eps / 2.0, E321).j == 1    # ratio exactly 1
    assert h.thresholds(0.01, E321).j == 1
    td = h.thresholds(0.1, E321)
    assert td.t_min_interior > 0 and td.t_min_global > 0
    assert td.interior_scale > 0 and td.global_scale > 0
    with pytest.raises(h.DomainError):
        h.thresholds(eps, E321)
    with pytest.raises(h.DomainError):
        h.thresholds(0.0, E321)
    # rho = 1: gamma0 = 1, so no interior threshold exists
    td = h.thresholds(0.5, h.Ellipticity(3, 1.0))
    assert (td.t_min_interior, td.interior_scale) == (math.inf, 0.0)


def test_t0_maximizer_closed_form_at_ratio_2():
    for n in [3, 5, 10]:
        res = h.t0_maximizer(n, 2.0)
        assert abs(res.x0 - math.e) <= 1e-12
        assert abs(res.t0 - n * (math.e - 1.0) / math.e) <= 1e-12
    with pytest.raises(h.DomainError):
        h.t0_maximizer(3, 1.0)


@pytest.mark.parametrize("offset", [1e-12, 1e-9, 5e-9, -1e-12, -1e-9, -5e-9])
def test_t0_maximizer_next_to_ratio_2(offset):
    # x0 = (rho-2)/W0((rho-2)/e) in 40 digits for the double rho
    ratio = 2.0 + offset
    d = mpmath.mpf(ratio) - 2
    with mpmath.workdps(40):
        x0 = d / mpmath.lambertw(d / mpmath.e, 0).real
        t0 = 5 * (x0 - 1) / (x0 * mpmath.log(x0))
    res = h.t0_maximizer(5, ratio)
    assert abs(res.x0 - float(x0)) <= 1e-14 * float(x0)
    assert abs(res.t0 - float(t0)) <= 1e-14 * float(t0)


def test_rho_for_beta_round_trip():
    for n in [3, 5, 10]:
        for beta in [1.5, 2.0, float(n)]:
            ratio = h.rho_for_beta(n, beta)
            t0 = h.t0_maximizer(n, ratio).t0
            assert abs(t0 - n / beta) <= 1e-8 * (n / beta)
    assert abs(h.rho_for_beta(3, 3.0) - 32.60203238141669) <= 1e-12
    for beta in [1.0, 0.5, 3.5]:
        with pytest.raises(h.DomainError):
            h.rho_for_beta(3, beta)


def test_report_consistency():
    rep = h.compute_report(E321)
    assert rep.c == h.pucci_c(E321)
    assert rep.c_star == h.c_star(E321)
    assert rep.epsilon_interior == h.epsilon_interior(E321)[1]
    assert rep.epsilon_upper == h.epsilon_upper(3, 2.0)
    assert rep.epsilon_global == h.epsilon_global(E321)
    assert rep.closed_form_lower <= rep.f_at_gamma_star <= rep.epsilon_interior


def test_report_n2_leaves_asymptotic_fields_nan():
    with pytest.warns(UserWarning):
        rep = h.compute_report(h.Ellipticity(2, 2.0, 1))
    assert math.isnan(rep.tau_n)
    assert math.isnan(rep.refined_lower)
    assert math.isfinite(rep.epsilon_interior)


@settings(max_examples=40, deadline=None)
@given(st.integers(3, 8), st.floats(1.05, 8.0), st.data())
def test_lower_chain_property(n, ratio, data):
    k = data.draw(st.integers(1, n - 1))
    rep = h.compute_report(h.Ellipticity(n, ratio, k))
    assert rep.closed_form_lower <= rep.f_at_gamma_star + 1e-12
    assert rep.f_at_gamma_star <= rep.epsilon_interior + 1e-12
    assert rep.stationarity_residual <= 1e-9


@pytest.mark.parametrize("call", [
    lambda: h.abstract_lower(3, math.nan),
    lambda: h.abstract_lower(3, math.inf),
    lambda: h.epsilon_upper(3, math.nan),
    lambda: h.ass_conjecture(math.nan),
    lambda: h.ass_conjecture(math.inf),
    lambda: h.phi_lower(0.5, math.nan, 3),
    lambda: h.RadialProfile(3, 1.0, 0.3, 1, math.inf),
    lambda: h.Ellipticity(3, 2.0, True),
    lambda: h.lattice_admissible_radius(2, True),
    lambda: h.global_rho_j(True, E321),
    lambda: h.wm1_envelope_bounds(math.inf),
    lambda: h.ratio_a(math.inf),
    lambda: h.lp_lower_bound(h.RadialProfile(3, 1.0, 0.1, 1.0, 2.0), math.inf),
], ids=["abstract_lower-nan", "abstract_lower-inf", "epsilon_upper-nan", "ass_conjecture-nan",
        "ass_conjecture-inf", "phi_lower-nan", "profile-inf-Lambda", "ellipticity-bool-k",
        "lattice_radius-bool-m", "global_rho_j-bool-j", "wm1_bounds-inf", "ratio_a-inf",
        "lp_lower_bound-inf"])
def test_scalar_api_rejects_non_finite_and_bool(call):
    # each of these returned nan, 0.0 or -inf, or read True as 1, without an error
    with pytest.raises(h.DomainError):
        call()


def _scalar_bisection_oracle(e, c):
    # epsilon_interior as it was written before its caches: the scan rebuilt
    # per call, a numpy-scalar bracket, phi's power taken twice per gap
    n = e.n
    if c == 1.0:
        return 1.0, 1.0, 0.0
    if c < sys.float_info.min:
        raise h.DomainError(
            f"c_star = {c:.3g} is below the normal float range at n={n}, "
            f"ratio={e.ratio}, k={e.k}; phi cannot be maximized")
    scan = 1.0 - np.geomspace(1.0 - 1e-9, 2.0 ** -53, 1000)

    def gap(g):
        expr = n * c * g ** (n - 1) * (1.0 - g) / (1.0 - c * g ** n)
        return expr - math.log1p(-c * g ** n) / math.log1p(-g)

    i = int(np.argmax(np.log1p(-c * scan ** n) / np.log1p(-scan)))
    if i == 0 or i == len(scan) - 1:
        raise h.OptimizationError(
            f"coarse scan put the maximum at the boundary (gamma={scan[i]:.3g}); "
            "cannot bracket an interior maximizer"
        )
    lo, hi = scan[i - 1], scan[i + 1]
    assert isinstance(lo, np.float64)
    if not (gap(lo) > 0.0 > gap(hi)):
        raise h.OptimizationError(
            f"stationarity gap does not change sign from + to - on the scan bracket "
            f"[{lo:.17g}, {hi:.17g}]"
        )
    while True:
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break
        if gap(mid) > 0.0:
            lo = mid
        else:
            hi = mid
    gamma0 = 0.5 * (lo + hi)
    return gamma0, h.phi(gamma0, c, n), abs(gap(gamma0))


def _report_oracle(e, interior=_scalar_bisection_oracle):
    # every field from its own public function, c_star and gamma_star recomputed
    n, cs = e.n, h.c_star(e)
    gamma0, eps, resid = interior(e, cs)
    gs = 1.0 + 1.0 / (n * h.lambert_wm1(-(1.0 / n) * math.exp(-1.0 / n)).value)
    return dict(
        n=n, ratio=e.ratio, k=e.k, c=h.pucci_c(e), c_star=cs, gamma0=gamma0,
        epsilon_interior=eps, stationarity_residual=resid, gamma_star=gs,
        f_at_gamma_star=h.phi_lower(gs, cs, n), closed_form_lower=h.closed_form_lower(e),
        tau_n=h.tau(n) if n >= 3 else math.nan,
        refined_lower=h.refined_lower(e) if (n >= 3 and 2 * e.k < n) else math.nan,
        abstract_lower=h.abstract_lower(n, e.ratio) if n >= 3 else math.nan,
        epsilon_upper=h.epsilon_upper(n, e.ratio), ass_conjecture=h.ass_conjecture(e.ratio),
        epsilon_global=h.epsilon_global(e),
    )


def _outcome(fn, *args):
    # the value, NaN as a string so == compares it, or the error's type and text
    try:
        out = fn(*args)
    except (h.DomainError, h.OptimizationError) as exc:
        return type(exc), str(exc)
    items = out.items() if isinstance(out, dict) else enumerate(out)
    return {k: "nan" if isinstance(v, float) and math.isnan(v) else v for k, v in items}


@pytest.mark.filterwarnings("ignore:closed_form_lower at n = 2")
def test_reports_bitwise_equal_the_numpy_scalar_bisection():
    # the per-n caches, the shared c_star, the Python-float bisection and the
    # bracket from gamma* change no bit of any report, nor any DomainError,
    # against the uncached scan-and-bisect path wherever that path succeeds
    rng = np.random.default_rng(20)
    # 1 + 1e-14 fails the scan bracket for 19 of these (n, k) (OptimizationError),
    # where the bracket from gamma* must give the near-one maximum instead;
    # c_star leaves the normal range at large n and ratio (DomainError)
    ratios = [1.0 + 1e-14, 1.0 + 1e-12, 1.0 + 1e-9, 2.0,
              *(1e6 ** (1.0 - rng.uniform(size=6)))]
    seen = set()
    for rule in ("one", "half"):
        for n in range(2, 201, 3):
            k = 1 if rule == "one" else max(1, n // 2 - 1)
            for ratio in ratios:
                e = h.Ellipticity(n, float(ratio), k)
                want = _outcome(_report_oracle, e)
                got = _outcome(h.epsilon_interior, e)
                if isinstance(want, tuple) and want[0] is h.OptimizationError:
                    _assert_near_one_max(e, got[0], got[1])
                    want = _outcome(_report_oracle, e, lambda e, c: h.epsilon_interior(e))
                    seen.add("scan raised")
                elif isinstance(want, tuple):  # the same error, word for word
                    assert got == want, e
                    seen.add(want[0])
                else:
                    assert got == {i: want[f] for i, f in enumerate(
                        ("gamma0", "epsilon_interior", "stationarity_residual"))}, e
                    seen.add("ok")
                assert _outcome(lambda: vars(h.compute_report(e))) == want, e
    assert seen == {"ok", h.DomainError, "scan raised"}


@pytest.mark.parametrize("e", [E321, h.Ellipticity(2, 2.0, 1), h.Ellipticity(4, 1.0, 2),
                               h.Ellipticity(9, 7.3, 3)], ids=["3-2-1", "n2", "ratio1", "9-7.3-3"])
def test_report_and_threshold_floats_are_python_floats(e):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        rep = h.compute_report(e)
    td = h.thresholds(rep.epsilon_interior / 3.0, e)
    for obj in (rep, td):
        floats = [f.name for f in dataclasses.fields(obj) if f.type in ("float", float)]
        assert len(floats) >= 4
        assert [(f, type(getattr(obj, f))) for f in floats
                if type(getattr(obj, f)) is not float] == []
