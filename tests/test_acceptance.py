"""End-to-end acceptance run: one test per shipped guarantee.

Each test times its own body against the guarantee's runtime budget and prints
one summary line; on failure the assertion message lists every sub-check that
broke, with measured values.
"""

import math
import time

import numpy as np

import hessint as h
from _oracles import envelope_certificates
from conftest import BUILD_SECONDS

E = math.e


def _finish(num, label, budget, started, failures, extra=0.0):
    elapsed = time.perf_counter() - started + extra
    if elapsed > budget:
        failures.append(f"runtime {elapsed:.2f}s exceeds the {budget:.0f}s budget")
    status = "FAIL" if failures else "PASS"
    print(f"ACCEPTANCE {num:>2} [{status}] {label} ({elapsed:.2f}s of {budget:.0f}s)")
    assert not failures, f"guarantee {num} ({label}): " + " | ".join(failures)


def test_criterion_01_lambert_round_trips_and_bracket():
    started = time.perf_counter()
    failures = []

    z_upper = np.concatenate([np.linspace(-1.0 / E + 1e-9, 10.0, 6000),
                              np.geomspace(10.0, 1e6, 4000)])
    bad = 0
    for z in z_upper:
        w = h.lambert_w0(float(z)).value
        if abs(w * math.exp(w) - z) > 1e-12 * max(1.0, abs(z)):
            bad += 1
    if bad:
        failures.append(f"{bad}/10000 principal-branch round trips above 1e-12")

    z_lower = -np.geomspace(1e-300, (1.0 / E) * (1.0 - 1e-9), 10000)
    bad = 0
    for z in z_lower:
        w = h.lambert_wm1(float(z)).value
        if abs(w * math.exp(w) - z) > 1e-12 * max(1.0, abs(z)):
            bad += 1
    if bad:
        failures.append(f"{bad}/10000 lower-branch round trips above 1e-12")

    viol = 0
    for u in np.linspace(0.0, 50.0, 10000):
        lo, hi = h.wm1_envelope_bounds(float(u))
        w = h.lambert_wm1(-math.exp(-(float(u) + 1.0))).value
        if not lo <= w <= hi:
            viol += 1
    if viol:
        failures.append(f"{viol}/10000 envelope-bracket violations on u in [0, 50]")

    if abs(h.ratio_a(0.0) - 1.0) > 1e-12:
        failures.append(f"a(0) = {h.ratio_a(0.0)!r}, expected 1 to 1e-12")
    peak = E / (E - 1.0)
    if abs(h.ratio_a(E - 2.0) - peak) > 1e-12:
        failures.append(f"a(e-2) = {h.ratio_a(E - 2.0)!r}, expected e/(e-1) to 1e-12")

    _finish(1, "Lambert round trips and envelope bracket", 1.0, started, failures)


def test_criterion_02_tau_value_and_monotone_growth():
    started = time.perf_counter()
    failures = []

    t3 = h.tau(3)
    if abs(t3 - 0.2568) > 5e-4:
        failures.append(f"tau(3) = {t3!r}, expected 0.2568 +/- 5e-4")

    ns = sorted(set(np.geomspace(3, 10 ** 5, 200).astype(int)) | {3, 10 ** 5})
    vals = [h.tau(int(n)) for n in ns]
    ceiling = 1.0 - 1.0 / E
    if not all(0.25 < v < ceiling for v in vals):
        failures.append("tau left the open interval (1/4, 1 - 1/e)")
    if not all(b > a for a, b in zip(vals, vals[1:])):
        failures.append("tau is not strictly increasing over the log-sampled range")

    _finish(2, "tau reference value and monotone growth", 1.0, started, failures)


def test_criterion_03_reference_point_and_optimized_gain():
    started = time.perf_counter()
    failures = []

    for rho in (1.0, 1.5, 2.0, 5.0, 10.0):
        val = h.phi_lower(0.715, 1.0 / rho, 2)
        want = 0.40727 / rho
        if abs(val - want) > 1e-4:
            failures.append(f"closed form at 0.715 with c = 1/{rho} gives {val!r},"
                            f" expected {want!r} +/- 1e-4")
        eps = h.epsilon_interior(h.Ellipticity(2, rho, 1))[1]
        if not eps > val:
            failures.append(f"optimized exponent {eps!r} does not exceed the fixed-point"
                            f" value {val!r} at ratio {rho}")

    _finish(3, "fixed evaluation point and the optimized exponent", 1.0, started, failures)


def test_criterion_04_exponent_chain_and_stationarity():
    started = time.perf_counter()
    failures = []

    worst_resid = 0.0
    for n in range(3, 13):
        for rho in (1.0, 1.5, 2.0, 5.0, 10.0):
            for k in range(1, n):
                rep = h.compute_report(h.Ellipticity(n, rho, k))
                if not rep.closed_form_lower <= rep.f_at_gamma_star:
                    failures.append(f"closed form exceeds f(gamma*) at"
                                    f" (n={n}, ratio={rho}, k={k})")
                if not rep.f_at_gamma_star <= rep.epsilon_interior:
                    failures.append(f"f(gamma*) exceeds the optimized exponent at"
                                    f" (n={n}, ratio={rho}, k={k})")
                worst_resid = max(worst_resid, rep.stationarity_residual)
    if worst_resid > 1e-9:
        failures.append(f"worst stationarity residual {worst_resid!r} above 1e-9")

    _finish(4, "exponent chain with interior stationarity", 5.0, started, failures)


def test_criterion_05_upper_bound_strictly_below_conjecture():
    started = time.perf_counter()
    failures = []

    for n in range(3, 41):
        for rho in 1.0 + np.geomspace(1e-6, 99.0, 80):
            if not h.epsilon_upper(n, float(rho)) < h.ass_conjecture(float(rho)):
                failures.append(f"no strict gap at (n={n}, ratio={float(rho)!r})")

    for rho in (1.0, 1.7, 3.0, 12.0):
        gap = abs(h.epsilon_upper(2, rho) - h.ass_conjecture(rho))
        if gap > 1e-15:
            failures.append(f"two-dimensional equality off by {gap!r} at ratio {rho}")
    for n in range(2, 41):
        gap = abs(h.epsilon_upper(n, 1.0) - h.ass_conjecture(1.0))
        if gap > 1e-15:
            failures.append(f"unit-ratio equality off by {gap!r} at n={n}")

    _finish(5, "upper bound strictly below the conjectured rate", 1.0, started, failures)


def test_criterion_06_refined_lower_dyadic_growth():
    started = time.perf_counter()
    failures = []

    vals = [h.refined_lower(h.Ellipticity(n, 2.0, 1)) * 2.0 ** (n - 1) for n in range(3, 51)]
    if not all(b > a for a, b in zip(vals, vals[1:])):
        failures.append("2^(n-1)-scaled refined bound is not strictly increasing on 3..50")
    if not vals[-1] > 10.0:
        failures.append(f"final scaled value {vals[-1]!r} does not exceed 10")
    frozen = 19442442.942001913
    if abs(vals[-1] - frozen) > 1e-6 * frozen:
        failures.append(f"n=50 scaled value drifted to {vals[-1]!r} from {frozen!r}")

    _finish(6, "scaled refined lower bound grows without bound", 1.0, started, failures)


def test_criterion_07_t0_round_trips():
    started = time.perf_counter()
    failures = []

    for n in (3, 5, 10):
        for beta in (1.5, 2.0, float(n)):
            rho = h.rho_for_beta(n, beta)
            t0 = h.t0_maximizer(n, rho).t0
            want = n / beta
            if abs(t0 - want) > 1e-8 * want:
                failures.append(f"round trip off at (n={n}, beta={beta}):"
                                f" t0 = {t0!r}, expected {want!r}")
        got = h.t0_maximizer(n, 2.0).t0
        want = n * (E - 1.0) / E
        if abs(got - want) > 1e-10:
            failures.append(f"ratio-2 maximizer off at n={n}: {got!r} vs {want!r}")

    _finish(7, "t0 maximizer round trips through the beta map", 1.0, started, failures)


def _random_wiggle_grid(seed):
    rng = np.random.default_rng(seed)
    ks = rng.integers(1, 5, size=(3, 2)).astype(float)
    cs = rng.normal(0.0, 0.8, size=3)
    ph = rng.uniform(0.0, 2.0 * np.pi, size=3)
    q = rng.uniform(-2.5, 0.5)

    def f(pts):
        out = q * (pts ** 2).sum(axis=1)
        for c, k, phase in zip(cs, ks, ph):
            out = out + c * np.cos(pts @ k + phase)
        return out

    return h.grid_from_callable(f, 2, 41, domain_radius=1.0), float(rng.uniform(0.5, 6.0))


def test_criterion_08_envelope_matches_plane_oracle():
    started = time.perf_counter()
    failures = []

    suite = [_random_wiggle_grid(1000 + i) for i in range(10)]
    suite.append((h.grid_from_callable(lambda p: -2.0 * (p ** 2).sum(axis=1),
                                       2, 41, domain_radius=1.0), 2.5))
    suite.append((h.grid_from_callable(lambda p: 3.0 * ((p ** 2).sum(axis=1) - 0.45) ** 2,
                                       2, 41, domain_radius=1.0), 1.5))

    outside = []  # (worst max(lib - L, U - lib), grid index) per grid
    loose = []    # (worst U - L, grid index) per grid
    worst_scale = 0.0
    for k, (g, a) in enumerate(suite):
        inside = g.inside_mask()
        pts = g.points()[inside.ravel()]
        shift = 0.5 * a * (pts ** 2).sum(axis=1)
        res = h.a_convex_envelope(g, a)
        lower, upper = envelope_certificates(pts, g.values[inside] + shift)
        lib = res.envelope[inside]
        lo, hi = lower - shift, upper - shift
        outside.append((float(np.maximum(lib - lo, hi - lib).max()), k))
        loose.append((float((hi - lo).max()), k))

        beta, gamma = 2.0, 1.5
        sq_full = ((g.points() ** 2).sum(axis=1)).reshape(g.shape)
        lifted = h.GridFunction(dim=g.dim, shape=g.shape, spacing=g.spacing,
                                center=g.center, domain_radius=g.domain_radius,
                                values=np.where(inside, beta * g.values + 0.5 * gamma * sq_full,
                                                np.nan))
        lhs = h.a_convex_envelope(lifted, a).envelope
        rhs = (beta * h.a_convex_envelope(g, (a + gamma) / beta).envelope
               + 0.5 * gamma * sq_full)
        scale = max(1.0, float(np.abs(lhs[inside]).max()))
        worst_scale = max(worst_scale, float(np.abs(lhs[inside] - rhs[inside]).max()) / scale)

    worst_out, k_out = max(outside)
    if worst_out > 1e-7:
        failures.append(f"library envelope leaves its certified interval [L, U] by"
                        f" {worst_out!r}, above 1e-7, on grid {k_out}")
    worst_gap, k_gap = max(loose)
    if worst_gap > 1e-9:
        failures.append(f"loose certificate: U - L = {worst_gap!r}, above 1e-9,"
                        f" on grid {k_gap}")
    if worst_scale > 1e-8:
        failures.append(f"worst scaling-identity defect {worst_scale!r} above 1e-8")

    _finish(8, "envelopes lie in certified LP-duality intervals", 60.0, started, failures)


def test_criterion_09_theta_recovers_paraboloid_opening():
    started = time.perf_counter()
    failures = []

    a0, tol = 7.3, 0.05
    par = h.grid_from_callable(lambda p: -(a0 / 2.0) * (p ** 2).sum(axis=1),
                               2, 129, domain_radius=1.0)
    tf = h.theta_field(par, a_max=32.0)
    if not tf.converged[tf.interior].all():
        failures.append("bisection failed to converge somewhere in the interior")
    dev = float(np.abs(tf.theta[tf.interior] - a0).max())
    band = max(0.02 * a0, tol)
    if dev > band:
        failures.append(f"interior theta misses the opening {a0} by {dev!r}"
                        f" (allowed {band!r})")

    for name, f in (("cone plus paraboloid",
                     lambda p: np.abs(p[:, 0]) + 0.5 * (p ** 2).sum(axis=1)),
                    ("radial exponential",
                     lambda p: np.exp(0.8 * (p ** 2).sum(axis=1)))):
        g = h.grid_from_callable(f, 2, 129, domain_radius=1.0)
        tc = h.theta_field(g, a_max=8.0)
        top = float(np.nanmax(tc.theta[g.inside_mask()]))
        if top > tol:
            failures.append(f"convex input ({name}) reports theta {top!r} above {tol}")

    _finish(9, "theta recovers openings and vanishes on convex data", 60.0, started, failures)


def test_criterion_10_pucci_cap_and_dyadic_divergence():
    started = time.perf_counter()
    failures = []

    pairs = [(3, 1.5), (3, 2.0), (3, 5.0), (4, 2.0), (4, 3.0),
             (5, 1.5), (5, 2.0), (6, 1.5), (7, 2.0), (8, 1.2)]
    radii_frac = np.linspace(1e-4, 0.9999, 10000)
    worst_excess = -np.inf
    worst_fd = 0.0
    for n, rho in pairs:
        # strictly interior alphas: at the admissibility boundary the leading
        # r^-(alpha+2) coefficient cancels exactly and rounding noise, amplified
        # like (R/r)^(alpha+2) near the origin, dwarfs any fixed slack
        amax = (n - 1) * rho - 1.0
        for alpha in (0.35 * amax, 0.8 * amax):
            p = h.RadialProfile(n, alpha, 0.2, 1.0, rho)
            cap = rho * n * alpha
            worst = max(h.pucci_minus(p, float(r)) for r in radii_frac * p.R)
            worst_excess = max(worst_excess, worst - cap)
            if worst > cap + 1e-9:
                failures.append(f"Pucci operator reaches {worst!r} above the cap {cap!r}"
                                f" at (n={n}, ratio={rho}, alpha={alpha!r})")
            hh = 1e-5 * p.R
            for r in np.linspace(0.1 * p.R, 0.9 * p.R, 25):
                r = float(r)
                tang, rad = h.hessian_eigenvalues(p, r)
                fd_rad = (h.u_value(p, r + hh) - 2.0 * h.u_value(p, r)
                          + h.u_value(p, r - hh)) / hh ** 2
                fd_tang = (h.u_value(p, r + hh) - h.u_value(p, r - hh)) / (2.0 * hh * r)
                worst_fd = max(worst_fd, abs(rad - fd_rad) / abs(rad),
                               abs(tang - fd_tang) / abs(tang))
    if worst_fd > 1e-4:
        failures.append(f"Hessian eigenvalues disagree with finite differences by"
                        f" {worst_fd!r} relative, above 1e-4")

    scan = h.divergence_scan(3, 2.0, 0.7, range(3, 11))
    if not scan.condition_ok:
        failures.append("divergence precondition unexpectedly fails at (3, 2, 0.7)")
    lb = scan.lower_bounds
    if not all(b > a for a, b in zip(lb, lb[1:])):
        failures.append("lattice lower bounds are not strictly increasing along m = 3..10")
    if not scan.fit_r_squared >= 0.999:
        failures.append(
            f"log-linear fit R^2 = {scan.fit_r_squared:.6f} is below 0.999; the exact"
            f" lattice counts against dyadic radii carry genuine curvature in log-log"
            f" (the divergence itself holds: growth {lb[-1] / lb[0]:.2f}x, fitted"
            f" exponent {scan.fit_exponent:.4f} > 0)")

    _finish(10, "Pucci cap, Hessian cross-check, dyadic divergence", 5.0, started, failures)


def test_criterion_11_tail_exponent_of_bump_slice(bump_grid, bump_theta):
    started = time.perf_counter()
    failures = []

    t_grid = np.geomspace(14.0, 140.0, 9)
    td = h.tail_distribution(bump_theta, 0.5, t_grid)
    counts = np.rint(td.measures / bump_grid.cell_measure).astype(int)

    d2 = ((bump_grid.points() - np.asarray(bump_grid.center)) ** 2).sum(axis=1)
    region_n = int(((d2 <= 0.5 ** 2 + 1e-12) & bump_grid.inside_mask().ravel()).sum())
    if counts.min() < 50 or counts.max() > region_n // 2:
        failures.append(f"threshold window uninformative: counts {counts.tolist()}"
                        f" leave [50, {region_n // 2}]")

    target = 2.0 / (1.0 + 2.0)  # slice dimension over (alpha + 2)
    got = td.fitted_exponent
    if abs(got + target) > 0.15 * target:
        failures.append(f"fitted tail exponent {got!r} outside 15% of {-target!r}")

    extra = BUILD_SECONDS.get("bump_theta", 0.0)
    _finish(11, "tail exponent of the capped bump slice", 600.0, started, failures,
            extra=extra)
