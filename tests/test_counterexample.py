import itertools
import math
import tracemalloc
import warnings
from fractions import Fraction

import mpmath
import numpy as np
import pytest

import hessint as h
import hessint.counterexample as cx
from hessint.counterexample import _per_ball_integral, _sphere_area
from _oracles import lattice_count_slices

P1 = h.RadialProfile(3, 1.0, 0.1, 1.0, 2.0)


def u_first_derivative(p, r):
    return -p.alpha * p.R ** (p.alpha + 2) * r ** (-p.alpha - 1) + p.alpha * r


def u_second_derivative(p, r):
    return p.alpha * (p.alpha + 1) * p.R ** (p.alpha + 2) * r ** (-p.alpha - 2) + p.alpha


def test_profile_validation_and_admissibility():
    assert h.RadialProfile(3, 3.0, 0.1, 1.0, 2.0).admissible       # alpha = (n-1)ratio - 1
    assert not h.RadialProfile(3, 3.5, 0.1, 1.0, 2.0).admissible
    for args in [(2, 1.0, 0.1, 1.0, 2.0), (3, -1.0, 0.1, 1.0, 2.0), (3, 0.0, 0.1, 1.0, 2.0),
                 (3, 1.0, 1.5, 1.0, 2.0), (3, 1.0, 0.0, 1.0, 2.0), (3, 1.0, 0.1, 2.0, 1.0),
                 (3, 1.0, 0.1, 0.0, 2.0)]:
        with pytest.raises(h.DomainError):
            h.RadialProfile(*args)


def test_u_boundary_and_substitution():
    R = P1.R
    assert abs(h.u_value(P1, R)) <= 1e-15
    assert h.u_value(P1, 2.0 * R) == 0.0
    assert h.u_value(P1, 5.0) == 0.0
    # alpha=1: R^3 (R/2)^{-1} + (1/2)(R/2)^2 - (3/2) R^2 = 0.625 R^2
    assert abs(h.u_value(P1, R / 2.0) - 0.625 * R ** 2) <= 1e-15
    for r in np.linspace(0.01 * R, 3.0 * R, 100):
        assert h.u_value(P1, float(r)) >= -1e-15
    with pytest.raises(h.DomainError):
        h.u_value(P1, 0.0)
    with pytest.raises(h.DomainError):
        h.u_value(P1, -0.5)


def test_u_c1_matching_at_R():
    R = P1.R
    for step in [1e-3, 1e-4, 1e-5]:
        hh = step * R
        jump = abs(h.u_value(P1, R + hh) - h.u_value(P1, R - hh))
        assert jump <= 10.0 * P1.alpha * (P1.alpha + 2) * hh ** 2
        one_sided = (h.u_value(P1, R) - h.u_value(P1, R - hh)) / hh
        assert abs(one_sided) <= 10.0 * P1.alpha * (P1.alpha + 2) * hh


def test_hessian_limits_at_R():
    r = P1.R * (1.0 - 1e-12)
    tang, rad = h.hessian_eigenvalues(P1, r)
    assert abs(tang) <= 1e-9
    assert abs(rad - P1.alpha * (P1.alpha + 2)) <= 1e-9
    with pytest.raises(h.DomainError):
        h.hessian_eigenvalues(P1, P1.R)
    with pytest.raises(h.DomainError):
        h.hessian_eigenvalues(P1, 0.0)


def test_hessian_vs_finite_differences():
    for p in [P1, h.RadialProfile(5, 2.0, 0.3, 1.0, 3.0)]:
        hh = 1e-5 * p.R
        for r in np.linspace(0.1 * p.R, 0.9 * p.R, 25):
            r = float(r)
            tang, rad = h.hessian_eigenvalues(p, r)
            fd_rad = (h.u_value(p, r + hh) - 2.0 * h.u_value(p, r)
                      + h.u_value(p, r - hh)) / hh ** 2
            fd_tang = (h.u_value(p, r + hh) - h.u_value(p, r - hh)) / (2.0 * hh * r)
            assert abs(rad - fd_rad) <= 1e-4 * abs(rad)
            assert abs(tang - fd_tang) <= 1e-4 * abs(tang)


def test_hessian_sign_pattern():
    for r in np.linspace(0.05 * P1.R, 0.95 * P1.R, 50):
        tang, rad = h.hessian_eigenvalues(P1, float(r))
        assert tang < 0.0 < rad  # n-1 nonpositive directions, one positive


def test_trace_identity():
    for p in [P1, h.RadialProfile(4, 1.7, 0.25, 1.0, 2.5)]:
        for r in np.linspace(0.1 * p.R, 0.9 * p.R, 20):
            r = float(r)
            tang, rad = h.hessian_eigenvalues(p, r)
            trace = (p.n - 1) * tang + rad
            laplace = u_second_derivative(p, r) + (p.n - 1) / r * u_first_derivative(p, r)
            assert abs(trace - laplace) <= 1e-8 * abs(laplace)


def test_pucci_constant_at_boundary_alpha():
    p = h.RadialProfile(3, 3.0, 0.1, 1.0, 2.0)  # alpha = (n-1)ratio - 1
    expected = p.alpha * (p.Lam * (p.n - 1) + p.lam)
    for r in np.linspace(0.01 * p.R, 0.99 * p.R, 200):
        # the r-dependent coefficient cancels exactly; only rounding noise of
        # the cancelled r^-(alpha+2) terms remains
        cancelled = p.alpha * p.Lam * (p.n - 1) * (p.R / r) ** (p.alpha + 2)
        assert abs(h.pucci_minus(p, float(r)) - expected) <= 1e-12 * (cancelled + expected)
    assert expected <= p.Lam * p.n * p.alpha + 1e-15


def test_pucci_stays_under_the_cap_at_the_boundary_alpha():
    # criterion 10's pairs at alpha = (n-1) rho - 1, where the two r^-(alpha+2)
    # terms cancel exactly: summed unfactored, their rounding noise read up to
    # 2.6e5 against the cap 18 at (3, 2) and 7.4e19 against 58.5 at (6, 1.5)
    pairs = [(3, 1.5), (3, 2.0), (3, 5.0), (4, 2.0), (4, 3.0),
             (5, 1.5), (5, 2.0), (6, 1.5), (7, 2.0), (8, 1.2)]
    fracs = np.linspace(1e-4, 0.9999, 10000)
    exact_pairs = 0
    for n, rho in pairs:
        alpha = (n - 1) * rho - 1.0
        p = h.RadialProfile(n, alpha, 0.2, 1.0, rho)
        vals = np.array([h.pucci_minus(p, float(r)) for r in fracs * p.R])
        assert vals.max() <= rho * n * alpha, (n, rho, vals.max())
        if Fraction(n - 1) * Fraction(rho) != Fraction((n - 1) * rho):
            continue            # (8, 1.2): (n-1) rho rounds, so alpha is not exact
        exact_pairs += 1
        constant = alpha * (rho * (n - 1) + 1.0)
        assert np.abs(vals - constant).max() <= 1e-12 * constant, (n, rho)
        with mpmath.workdps(50):
            a, R = mpmath.mpf(alpha), mpmath.mpf(p.R)
            for frac in (0.01, 0.1, 0.5, 0.9):
                r = mpmath.mpf(frac * p.R)
                tang = -a * r ** (-a - 2) * (R ** (a + 2) - r ** (a + 2))
                rad = a * (a + 1) * R ** (a + 2) * r ** (-a - 2) + a
                want = mpmath.mpf(rho) * (n - 1) * tang + rad
                got = h.pucci_minus(p, frac * p.R)
                assert abs(got - want) <= 1e-12 * abs(want), (n, rho, frac)
    assert exact_pairs == 9


def test_pucci_bound_reference_sample():
    cap = 2.0 * 3 * 1.0  # Lambda n alpha = 6
    worst = max(h.pucci_minus(P1, float(r)) for r in np.linspace(1e-4 * P1.R, P1.R * 0.9999, 1000))
    assert worst <= cap + 1e-9


def test_pucci_bound_many_profiles():
    triples = [(3, 2.0, 1.0), (3, 1.5, 0.5), (4, 3.0, 4.0), (5, 2.0, 2.0), (6, 1.2, 0.9)]
    for n, ratio, alpha in triples:
        p = h.RadialProfile(n, alpha, 0.2, 1.0, ratio)
        assert p.admissible
        cap = ratio * n * alpha
        worst = max(h.pucci_minus(p, float(r))
                    for r in np.linspace(1e-4 * p.R, p.R * 0.9999, 2000))
        assert worst <= cap + 1e-9


def test_pucci_diverges_at_origin_for_strict_alpha():
    assert h.pucci_minus(P1, 1e-6 * P1.R) < -1e6


def test_pucci_rejects_inadmissible_alpha():
    bad = h.RadialProfile(3, 3.5, 0.1, 1.0, 2.0)
    with pytest.raises(h.AdmissibilityError):
        h.pucci_minus(bad, 0.05)


def test_theta_lower_substitution_and_domain():
    expected = (1.0 - 2.0 ** -(P1.alpha + 2)) * P1.alpha * 2.0 ** (P1.alpha + 2)
    assert abs(h.theta_lower(P1, P1.R / 2.0) - expected) <= 1e-12 * expected
    for r in [0.0, -0.1, P1.R / 2.0 + 1e-9, P1.R]:
        with pytest.raises(h.DomainError):
            h.theta_lower(P1, r)


def test_theta_lower_below_tangential_curvature():
    for p in [P1, h.RadialProfile(4, 2.0, 0.3, 1.0, 2.0)]:
        for r in np.geomspace(1e-3 * p.R, p.R / 2.0, 60):
            tang, _ = h.hessian_eigenvalues(p, float(r))
            assert -tang >= h.theta_lower(p, float(r)) - 1e-12


def test_theta_lower_vs_discrete_field(bump_profile, bump_grid, bump_theta):
    # interior ring only: within 3 cells of the singular sample the grid
    # cannot resolve the r^-(alpha+2) spike, so the bound is checked outside
    g = bump_grid
    r = np.sqrt((g.points() ** 2).sum(axis=1)).reshape(g.shape)
    ring = bump_theta.interior & (r >= 3.0 * g.spacing) & (r <= bump_profile.R / 2.0)
    assert ring.sum() > 300
    bound = np.array([h.theta_lower(bump_profile, float(ri)) for ri in r[ring]])
    assert (bump_theta.theta[ring] >= 0.8 * bound).all()


def test_build_v_lattice_values():
    grid = h.grid_from_callable(lambda pts: np.zeros(len(pts)), 2, 33, domain_radius=1.0)
    p = h.RadialProfile(3, 1.0, 0.125, 1.0, 2.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # sup|v| = 1 on the unit ball: no warning
        v = h.build_v(p, grid)
    c = grid.shape[0] // 2
    assert v.values[c, c] == 1.0                      # lattice center: truncation active
    assert v.values[c + 4, c] == 1.0 - 0.25 ** 2      # next lattice center at x = (0.25, 0)
    assert v.values[c + 2, c] == -(0.125 ** 2)        # |x - 2Ry| = R: bump vanishes
    inside = grid.inside_mask()
    assert np.abs(v.values[inside]).max() <= 2.0


def test_build_v_sup_warning_on_larger_domain():
    grid = h.grid_from_callable(lambda pts: np.zeros(len(pts)), 2, 33,
                                domain_radius=1.5, extent=1.5)
    p = h.RadialProfile(3, 1.0, 0.125, 1.0, 2.0)
    with pytest.warns(UserWarning, match="sup"):
        h.build_v(p, grid)


def test_build_v_geometry_error():
    grid = h.grid_from_callable(lambda pts: np.zeros(len(pts)), 2, 33, domain_radius=1.0)
    with pytest.raises(h.GeometryError):
        h.build_v(h.RadialProfile(3, 1.0, 0.3, 1.0, 2.0), grid)
    small = h.grid_from_callable(lambda pts: np.zeros(len(pts)), 2, 33, domain_radius=0.9)
    with pytest.raises(h.GeometryError, match="unit ball"):
        h.build_v(h.RadialProfile(3, 1.0, 0.1, 1.0, 2.0), small)


def test_capped_bump_matches_scalar_profile():
    for prof, n, centre in ((P1, 33, (0.0, 0.0)), (P1, 33, (1.0 / 32.0, -1.0 / 32.0)),
                            (h.RadialProfile(3, 3.0, 0.35, 1.0, 2.0), 9, (0.0, 0.0, 0.0))):
        g = h.capped_bump(prof, n, centre)
        assert g.dim == len(centre) and g.shape == (n,) * len(centre)
        inside = g.inside_mask()
        assert np.isnan(g.values[~inside]).all()
        r = np.sqrt(((g.points() - np.asarray(centre)) ** 2).sum(axis=1))[inside.ravel()]
        want = [1.0 if ri == 0.0 else min(1.0, h.u_value(prof, float(ri))) for ri in r]
        assert np.allclose(g.values[inside], want, rtol=1e-15, atol=0.0)
        assert (g.values[inside][r >= prof.R] == 0.0).all()
        assert (g.values[inside][r == 0.0] == 1.0).all()


def test_lattice_admissible_radius():
    for n, m in itertools.product([2, 3, 5], [1, 2, 6]):
        R = h.lattice_admissible_radius(n, m)
        assert abs(R - 1.0 / (8.0 * math.sqrt(n) * m + 4.0)) <= 1e-15
        assert 0.0 < R < 0.25
    assert h.lattice_admissible_radius(3, 2) < h.lattice_admissible_radius(3, 1)


def test_lattice_ball_count_matches_bruteforce():
    for dim, R in [(2, 0.11), (2, 0.03), (3, 0.12), (3, 0.045)]:
        reach = (0.5 - R) / (2.0 * R)
        lim = int(math.floor(reach)) + 1
        axes = [np.arange(-lim, lim + 1)] * dim
        mesh = np.meshgrid(*axes, indexing="ij")
        pts = np.column_stack([m.ravel() for m in mesh])
        brute = int(((pts ** 2).sum(axis=1) <= reach ** 2 + 1e-12).sum())
        assert h.lattice_ball_count(dim, R) == brute


def test_lattice_ball_count_meets_mn_lower_bound():
    for n in (2, 3):
        for m in range(1, 7):
            R = h.lattice_admissible_radius(n, m)
            assert h.lattice_ball_count(n, R) >= m ** n


def test_lattice_ball_count_matches_slice_oracle():
    cases = [(dim, 2.0 ** -m) for dim, m_hi in [(1, 12), (2, 12), (3, 12), (4, 7), (5, 5)]
             for m in range(3, m_hi + 1)]
    cases += [(dim, h.lattice_admissible_radius(dim, m))
              for dim, m_hi in [(1, 20), (2, 20), (3, 20), (4, 6), (5, 3)]
              for m in range(1, m_hi + 1)]
    # the oracle's cost grows like reach^(dim-1), so random radii stop at dim 3
    rng = np.random.default_rng(20261018)
    cases += [(dim, float(R)) for R in rng.uniform(0.002, 0.249, 200) for dim in (1, 2, 3)]
    # reach^2 just below 26 = 1 + 25 = 1 + 16 + 9: the 1e-12 allowance admits
    # (5, 1) but not (1, 5), so a count by the diagonal symmetry would be wrong
    R = 0.04465067488925424
    assert 2e-12 < 26.0 - ((0.5 - R) / (2.0 * R)) ** 2 < 1e-11
    cases += [(2, R), (3, R)]
    for dim, R in cases:
        assert h.lattice_ball_count(dim, R) == lattice_count_slices(dim, R), (dim, R)


def test_lattice_ball_count_memory_is_one_block_buffer():
    # O(reach) arrays plus the 0.5 MB block buffer in every dimension; expanding
    # all top levels at once held reach^(dim-2) floats per array (3.9 MB at dim 4)
    for dim, m in [(3, 14), (4, 10), (5, 7)]:
        tracemalloc.start()
        try:
            h.lattice_ball_count(dim, 2.0 ** -m)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20, (dim, m, peak)


def test_lattice_ball_count_domain():
    with pytest.raises(h.GeometryError):
        h.lattice_ball_count(3, 0.25)
    with pytest.raises(h.GeometryError):
        h.lattice_ball_count(3, 0.0)


def test_lattice_ball_count_rejects_bad_dimension():
    for dim in (0, -1, 2.0):
        with pytest.raises(h.DomainError):
            h.lattice_ball_count(dim, 0.1)


def test_lp_lower_bound_conditions():
    p = h.RadialProfile(3, 2.5, 0.125, 1.0, 2.0)
    with pytest.raises(h.ConditionError):
        h.lp_lower_bound(p, 0.6)      # ((n-1)ratio+1) eps = n exactly: not >
    with pytest.raises(h.ConditionError):
        h.lp_lower_bound(p, 0.5)
    shallow = h.RadialProfile(3, 1.0, 0.125, 1.0, 2.0)
    with pytest.raises(h.ConditionError):
        h.lp_lower_bound(shallow, 0.7)  # alpha = 1 <= n/eps - 2
    steep = h.RadialProfile(3, 10.0, 0.05, 1, 2)
    with pytest.raises(h.AdmissibilityError):
        h.lp_lower_bound(steep, 0.7)    # alpha = 10 > (n-1)ratio - 1 = 3


def test_lp_lower_bound_geometry():
    with pytest.raises(h.GeometryError):
        h.lp_lower_bound(h.RadialProfile(3, 2.5, 0.3, 1.0, 2.0), 0.7)
    # truncation radius beyond R/2: no annulus left to integrate
    with pytest.raises(h.GeometryError):
        h.lp_lower_bound(h.RadialProfile(3, 19.0, 0.125, 1.0, 10.0), 0.7)
    # at a small alpha c~ = (lam/(Lam alpha))^(1/alpha) is past the floats;
    # the true radii are 9.3e697 and 2.0e499
    for alpha, R, eps in [(0.001, 0.1, 2.0), (0.002, 0.2, 1.6)]:
        with pytest.raises(h.GeometryError, match="annulus edge"):
            h.lp_lower_bound(h.RadialProfile(3, alpha, R, 1, 2), eps)


@pytest.mark.parametrize("alpha, R", [(0.002, 0.06), (0.01, 0.02)])
def test_truncation_radius_where_a_factor_leaves_the_floats(alpha, R):
    # c~ = 250^500 overflows at (0.002, 0.06), R^201 underflows at (0.01, 0.02);
    # the radii c~ R^((alpha+2)/alpha), 7.9e-25 and 2.5e-172, are normal floats
    p = h.RadialProfile(3, alpha, R, 1, 2)
    with mpmath.workdps(40):
        a = mpmath.mpf(alpha)
        want = (1 / (2 * a)) ** (1 / a) * mpmath.mpf(R) ** ((a + 2) / a)
    assert abs(p.truncation_radius / float(want) - 1.0) <= 1e-11


def test_lp_lower_bound_at_a_tiny_radius_is_a_domain_error():
    # R^((alpha+2) eps) = R^3.5 is subnormal at 1e-90 (the result was 1.8e-9
    # relative off) and 0.0 at 1e-100 (a silent 0.0 for 1.65e31), and at
    # 1e-110 the ball count overflowed with a bare OverflowError
    for R in (1e-90, 1e-100, 1e-110):
        with pytest.raises(h.DomainError, match=r"\bR = "):
            h.lp_lower_bound(h.RadialProfile(3, 3.0, R, 1, 2), 0.7)
    # at alpha = 0.1 the truncation radius R^21 c~ is 0.0 at R = 1e-20, and
    # lo^-q raised ZeroDivisionError
    with pytest.raises(h.DomainError, match=r"\bR = "):
        h.lp_lower_bound(h.RadialProfile(3, 0.1, 1e-20, 1, 2), 5.0)
    # at alpha = 0.001 c~ is past the floats and the radius, 9.3e-3305,
    # underflows to 0.0
    with pytest.raises(h.DomainError, match=r"\bR = "):
        h.lp_lower_bound(h.RadialProfile(3, 0.001, 1e-3, 1, 2), 2.0)
    # at 1e-50 the bound stands, to 2.1e-14 of a 40-digit evaluation
    assert h.lp_lower_bound(h.RadialProfile(3, 3.0, 1e-50, 1, 2), 0.7) == 355855565314641.4


def test_lp_lower_bound_monotone_along_dyadic():
    vals = [h.lp_lower_bound(h.RadialProfile(3, 2.5, 2.0 ** -m, 1.0, 2.0), 0.7)
            for m in range(3, 11)]
    assert all(v > 0.0 for v in vals)
    assert all(b > a for a, b in zip(vals, vals[1:]))


def test_lp_exponent_sign_under_precondition():
    for alpha, eps in [(2.5, 0.7), (3.0, 0.61), (2.3, 0.99)]:
        assert alpha > 3.0 / eps - 2.0
        assert 3.0 - (alpha + 2.0) * eps < 0.0


def test_divergence_scan_dyadic_growth():
    scan = h.divergence_scan(3, 2.0, 0.7, range(3, 11))
    assert scan.condition_ok
    assert scan.alpha == 3.0
    assert np.allclose(scan.R_sequence, [2.0 ** -m for m in range(3, 11)])
    assert (np.diff(scan.R_sequence) < 0.0).all()
    assert (np.diff(scan.lower_bounds) > 0.0).all()
    assert scan.lower_bounds[-1] / scan.lower_bounds[0] >= 10.0
    assert scan.fit_exponent > 0.0
    assert 0.0 < scan.fit_r_squared <= 1.0
    assert scan.note == ""


def test_divergence_scan_bounds_are_oracle_count_times_per_ball_integral():
    ms = range(3, 15)
    scan = h.divergence_scan(3, 2.0, 0.7, ms)
    want = [lattice_count_slices(3, 2.0 ** -m)
            * _per_ball_integral(h.RadialProfile(3, 3.0, 2.0 ** -m, 1.0, 2.0), 0.7)
            for m in ms]
    assert scan.lower_bounds.tolist() == want


def test_divergence_scan_checks_every_annulus_before_counting(monkeypatch):
    # at rho = 2, eps = 0.7 the m = 3 annulus is empty from n = 7: the scan
    # raises before its first count (at n = 344 that count took 38 s)
    def no_count(dim, R):
        raise AssertionError(f"lattice_ball_count({dim}, {R}) called")
    monkeypatch.setattr(cx, "lattice_ball_count", no_count)
    with pytest.raises(h.GeometryError, match="annulus edge"):
        h.divergence_scan(7, 2.0, 0.7, [3, 10])


def test_divergence_scan_dominates_analytic_count_bound():
    scan = h.divergence_scan(3, 2.0, 0.7, range(4, 9))
    for R, bound in zip(scan.R_sequence, scan.lower_bounds):
        analytic = h.lp_lower_bound(h.RadialProfile(3, 3.0, float(R), 1.0, 2.0), 0.7)
        assert bound >= analytic - 1e-12 * analytic


def test_sphere_area_against_mpmath():
    # 2 pi^(n/2) / Gamma(n/2) with math.gamma, against 50 digits of the true
    # pi: Gamma(n/2) is within 3 ulps and the area within 4 for every n the
    # formula reaches (math.gamma overflows from n = 344). Without the
    # correction for the rounding of pi, (n/2) 3.9e-17 relative, the area
    # was 57 ulps off at n = 342
    def ulps(x, exact):
        return float(abs(mpmath.mpf(x) - exact) / math.ulp(float(exact)))
    with mpmath.workdps(50):
        for n in range(3, 343):
            gamma = mpmath.gamma(mpmath.mpf(n) / 2)
            assert ulps(math.gamma(n / 2.0), gamma) <= 3.0, n
            assert ulps(_sphere_area(n), 2 * mpmath.pi ** (mpmath.mpf(n) / 2) / gamma) <= 4.0, n
    assert _sphere_area(3) == 4.0 * math.pi
    with pytest.raises(OverflowError):     # not an inf Gamma and a silent area of 0.0
        _sphere_area(344)


def test_divergence_scan_of_one_m_has_no_fit():
    # one point fits no line: NaN, and no RankWarning from a one-point polyfit
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        one = h.divergence_scan(3, 2.0, 0.7, [3])
    assert math.isnan(one.fit_exponent) and math.isnan(one.fit_r_squared)
    two = h.divergence_scan(3, 2.0, 0.7, [3, 4])
    assert one.lower_bounds.tolist() == two.lower_bounds[:1].tolist()
    assert two.fit_exponent > 0.0


def test_divergence_scan_condition_failures():
    at_threshold = h.divergence_scan(3, 2.0, h.epsilon_upper(3, 2.0), [3, 4, 5])
    assert not at_threshold.condition_ok
    assert len(at_threshold.lower_bounds) == 0
    assert at_threshold.note != ""
    unit = h.divergence_scan(3, 1.0, 0.99, [3, 4, 5])
    assert not unit.condition_ok


def test_divergence_scan_validation():
    with pytest.raises(h.DomainError):
        h.divergence_scan(2, 2.0, 0.9, [3, 4])
    with pytest.raises(h.DomainError):
        h.divergence_scan(3, 0.5, 0.7, [3, 4])
    for bad in ([2, 3], [5, 4], [], [3.5, 4.0], [3, 3]):
        with pytest.raises(h.DomainError):
            h.divergence_scan(3, 2.0, 0.7, bad)
