"""Fit the tail exponent of the paraboloid-opening field of a capped bump slice.

Builds v = min(1, u_{alpha,R}) on a 2-D grid, computes the exact opening field
Theta, then fits |{Theta > t}| against t in log-log over a decade of
thresholds. The predicted slope is -d/(alpha+2) with d the slice dimension.

The default 65-point grid runs in about a second; --points 129 reproduces the
measurement quoted in the test suite (a few seconds).
"""

import argparse

import numpy as np

import hessint as h


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--alpha", type=float, default=1.0)
    ap.add_argument("--R", type=float, default=0.35)
    ap.add_argument("--points", type=int, default=65, help="grid points per axis")
    ap.add_argument("--a-max", type=float, default=600.0)
    ap.add_argument("--t-lo", type=float, default=14.0)
    ap.add_argument("--t-hi", type=float, default=140.0)
    ap.add_argument("--save-theta", type=str, default=None,
                    help="write the Theta field to this grid-header path")
    args = ap.parse_args(argv)

    prof = h.RadialProfile(3, args.alpha, args.R, 1.0, 2.0)

    def vals(pts):
        r = np.sqrt((pts ** 2).sum(axis=1))
        out = np.empty(len(r))
        for i, ri in enumerate(r):
            out[i] = 1.0 if ri == 0.0 else min(1.0, h.u_value(prof, float(ri)))
        return out

    g = h.grid_from_callable(vals, 2, args.points, domain_radius=1.0)
    tf = h.theta_field(g, a_max=args.a_max)
    frac = float(tf.converged[tf.interior].mean())
    print(f"theta field: {args.points}^2 grid, converged fraction {frac:.4f}")

    t_grid = np.geomspace(args.t_lo, args.t_hi, 9)
    td = h.tail_distribution(tf, 0.5, t_grid)
    print(f"{'t':>10} {'measure':>14} {'count':>8}")
    for t, m in zip(td.thresholds, td.measures):
        print(f"{t:>10.3f} {m:>14.8f} {int(round(m / g.cell_measure)):>8}")
    predicted = -2.0 / (args.alpha + 2.0)
    print(f"fitted tail exponent:    {td.fitted_exponent:.4f}")
    print(f"predicted -d/(alpha+2):  {predicted:.4f}")

    if args.save_theta:
        out = h.GridFunction(dim=g.dim, shape=g.shape, spacing=g.spacing,
                             center=g.center, domain_radius=g.domain_radius,
                             values=tf.theta)
        out.save(args.save_theta)
        print(f"theta field written to {args.save_theta}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
