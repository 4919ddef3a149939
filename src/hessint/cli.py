"""Command-line interface: bound reports, sweeps, and grid experiments.

Each command takes the parameter dict and returns its rows and its own
provenance; `main` parses argv, runs the command and writes the result once.
Output is CSV (default) or JSON, to --output or stdout. CSV floats carry 17
significant digits; a provenance block (the command's own keys, parameters,
and the hessint, numpy and scipy versions) precedes the header as '#'-prefixed
comment lines, or sits under the "provenance" key in JSON. Identical
invocations produce byte-identical files under --reproducible, which
suppresses the timestamp. Parameters take the value of their flag, else of the
--config file, else the built-in default.

Only the pure-Python layers are imported with this module. `theta`, `decay`
and `counterexample` import numpy and the numpy layers when they run, and the
numpy and scipy versions come from the installed package metadata, read once
per process, so `bounds`, `sweep`, `lambertw` and `t0` never load numpy or
scipy.

Exit codes: 0 success, 2 domain/validation/I-O failure, 3 degenerate data.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from datetime import datetime, timezone
from pathlib import Path

from . import __version__
from . import exponent_bounds as xb
from . import special_functions as sf
from .errors import (AdmissibilityError, ConditionError, DegenerateData, DomainError,
                     GeometryError, GridFormatError, OptimizationError)

_USAGE_ERRORS = (DomainError, OptimizationError, GeometryError, ConditionError,
                 AdmissibilityError, GridFormatError, OSError, ValueError)


def _fmt(x) -> str:
    return format(x, ".17g") if isinstance(x, float) else str(x)  # any NaN is "nan"


def _null_nan(record: dict) -> dict:
    # strict JSON has no NaN: write null, as the grid format does
    return {k: None if isinstance(v, float) and math.isnan(v) else v for k, v in record.items()}


@functools.cache
def _dependency_versions() -> dict:
    # from the installed metadata, so that a scalar command imports neither package
    from importlib.metadata import version
    return {"numpy_version": version("numpy"), "scipy_version": version("scipy")}


def _emit(args: argparse.Namespace, params: dict, rows: list[dict], prov: dict) -> None:
    prov["command"] = args.command
    prov.update({k: v for k, v in sorted(params.items()) if v is not None})
    prov.update(hessint_version=__version__, **_dependency_versions())
    if not args.reproducible:
        prov["generated_at"] = datetime.now(timezone.utc).isoformat()

    if args.format == "json":
        payload = {"provenance": _null_nan(prov), "rows": [_null_nan(r) for r in rows]}
        text = json.dumps(payload, indent=2, default=_fmt) + "\n"
    else:
        lines = [f"# {k}={_fmt(v)}" for k, v in prov.items()]
        if rows:
            cols = list(rows[0].keys())
            lines.append(",".join(cols))
            for row in rows:
                lines.append(",".join(_fmt(row[c]) for c in cols))
        text = "\n".join(lines) + "\n"

    if args.output:
        Path(args.output).write_text(text)
    else:
        sys.stdout.write(text)


def _parse_range(text: str) -> list[int]:
    if ":" in text:
        a, b = text.split(":", 1)
        lo, hi = int(a), int(b)
        if hi < lo:
            raise DomainError(f"range {text!r} is empty")
        return list(range(lo, hi + 1))
    return [int(x) for x in text.split(",") if x]


def _parse_floats(text: str) -> list[float]:
    return [float(x) for x in text.split(",") if x]


def cmd_bounds(p: dict) -> tuple[list[dict], dict]:
    rep = xb.compute_report(xb.Ellipticity(p["n"], p["ratio"], p["k"]))
    return [vars(rep)], {}


def cmd_sweep(p: dict) -> tuple[list[dict], dict]:
    rows = []
    for n in _parse_range(p["n_range"]):
        for ratio in _parse_floats(p["ratios"]):
            if p["k_rule"] == "one":
                k = 1
            else:
                k = max(1, n // 2 - 1)
            e = xb.Ellipticity(n, ratio, k)
            rep = xb.compute_report(e)
            # the report's fields in declaration order; dataclasses.asdict would
            # deep-copy each value, 15x slower per report
            row = dict(vars(rep))
            row["refined_lower_normalized"] = (
                xb._refined_lower_normalized(e)
                if not math.isnan(rep.refined_lower) else math.nan
            )
            rows.append(row)
    return rows, {}


def cmd_lambertw(p: dict) -> tuple[list[dict], dict]:
    solver = sf.lambert_w0 if p["branch"] == 0 else sf.lambert_wm1
    rows = []
    for z in _parse_floats(p["z"]):
        bv = solver(z)
        rows.append({"z": z, "branch": p["branch"], "value": bv.value,
                     "residual": bv.residual})
    return rows, {}


def cmd_t0(p: dict) -> tuple[list[dict], dict]:
    n = p["n"]
    if p.get("beta") is not None:
        ratio = xb.rho_for_beta(n, p["beta"])
        x0, t0 = xb.t0_maximizer(n, ratio)
        rows = [{"n": n, "beta": p["beta"], "ratio": ratio, "x0": x0, "t0": t0,
                 "t0_expected": n / p["beta"]}]
    else:
        x0, t0 = xb.t0_maximizer(n, p["ratio"])
        rows = [{"n": n, "ratio": p["ratio"], "x0": x0, "t0": t0}]
    return rows, {}


def cmd_counterexample(p: dict) -> tuple[list[dict], dict]:
    from . import counterexample as cx
    scan = cx.divergence_scan(p["n"], p["ratio"], p["eps"], _parse_range(p["mrange"]))
    if scan.condition_ok:
        prov = {"condition_ok": True, "alpha": scan.alpha,
                "fit_exponent": scan.fit_exponent, "fit_r_squared": scan.fit_r_squared}
    else:
        prov = {"condition_ok": False, "note": scan.note}
    rows = [
        {"m": int(m), "R": float(R), "lower_bound": float(b)}
        for m, R, b in zip(scan.m_values, scan.R_sequence, scan.lower_bounds)
    ]
    return rows, prov


def cmd_theta(p: dict) -> tuple[list[dict], dict]:
    import numpy as np
    from . import envelope_lab as lab
    grid = lab.GridFunction.load(p["input"])
    p.pop("bisect_tol")  # accepted and ignored: Theta is exact
    tf = lab.theta_field(grid, p["a_max"])
    restrict = grid.domain_radius / 2.0 if p["restrict_radius"] is None else p["restrict_radius"]
    if p["t_grid"] is None:
        t_grid = np.geomspace(p["a_max"] / 1000.0, p["a_max"], 25)
    else:
        t_grid = np.asarray(_parse_floats(p["t_grid"]))
    tail = lab.tail_distribution(tf, restrict, t_grid)
    prov = {
        "grid_hash": grid.content_hash(),
        "restrict_radius": restrict,
        "fitted_exponent": tail.fitted_exponent,
        "converged_fraction": float(tf.converged[grid.inside_mask()].mean()),
    }
    prov.update({f"theta_{k}": v for k, v in tf.stats.items()})
    rows = [{"t": float(t), "measure": float(m)}
            for t, m in zip(tail.thresholds, tail.measures)]
    return rows, prov


def cmd_decay(p: dict) -> tuple[list[dict], dict]:
    from . import envelope_lab as lab
    grid = lab.GridFunction.load(p["input"])
    e = xb.Ellipticity(p["n"], p["ratio"], p["k"])
    prov = {"grid_hash": grid.content_hash()}
    try:
        rep = lab.decay_experiment(grid, p["delta"], p["levels"], e)
    except DegenerateData as exc:
        rep = exc.report
        prov["warning"] = str(exc)
        print(f"warning: {exc}", file=sys.stderr)
    prov["empirical_ratio"] = rep.empirical_ratio
    prov["theoretical_ratio"] = rep.theoretical_ratio
    prov.update({f"decay_{k}": v for k, v in rep.stats.items()})
    rows = [{"j": j, "opening": float(a), "count_measure": float(c)}
            for j, (a, c) in enumerate(zip(rep.openings, rep.counts))]
    return rows, prov


def _add_common(sub: argparse.ArgumentParser, run) -> None:
    sub.add_argument("--output", default=None, help="output file (default stdout)")
    sub.add_argument("--format", choices=("csv", "json"), default="csv")
    sub.add_argument("--reproducible", action="store_true",
                     help="suppress the timestamp for byte-identical reruns")
    sub.add_argument("--config", default=None,
                     help="JSON file of parameter values; flags win")
    sub.set_defaults(parser=sub, run=run)


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="hessint",
        description="Hessian integrability exponent bounds and grid experiments",
    )
    sp = ap.add_subparsers(dest="command", required=True)

    b = sp.add_parser("bounds", help="full bound report for one (n, ratio, k)")
    b.add_argument("--n", type=int, required=True)
    b.add_argument("--ratio", type=float, required=True)
    b.add_argument("--k", type=int, default=1)
    _add_common(b, cmd_bounds)

    s = sp.add_parser("sweep", help="bound table over n and ratio ranges")
    s.add_argument("--n-range", dest="n_range", required=True, help="e.g. 3:12 or 3,5,8")
    s.add_argument("--ratios", required=True, help="comma list, e.g. 1,1.5,2")
    s.add_argument("--k-rule", dest="k_rule", choices=("one", "half"),
                   default="one", help="k = 1 (default) or k = max(1, n//2 - 1)")
    _add_common(s, cmd_sweep)

    w = sp.add_parser("lambertw", help="evaluate a real Lambert W branch")
    w.add_argument("--branch", type=int, choices=(0, -1), required=True)
    w.add_argument("--z", required=True, help="comma list of arguments")
    _add_common(w, cmd_lambertw)

    t = sp.add_parser("theta", help="minimal-opening field and tail distribution")
    t.add_argument("--input", required=True, help="grid header JSON")
    t.add_argument("--a-max", dest="a_max", type=float, required=True)
    t.add_argument("--bisect-tol", dest="bisect_tol", type=float, default=None,
                   help="ignored, since Theta is computed exactly; removed with the next"
                        " benchmark revision")
    t.add_argument("--restrict-radius", dest="restrict_radius", type=float, default=None,
                   help="radius of the tail region (default half the domain radius)")
    t.add_argument("--t-grid", dest="t_grid", default=None,
                   help="comma list of thresholds (default geometric)")
    _add_common(t, cmd_theta)

    d = sp.add_parser("decay", help="contact-set measure decay in the opening")
    d.add_argument("--input", required=True, help="grid header JSON")
    d.add_argument("--delta", type=float, required=True)
    d.add_argument("--levels", type=int, required=True)
    d.add_argument("--n", type=int, required=True)
    d.add_argument("--ratio", type=float, required=True)
    d.add_argument("--k", type=int, default=1)
    _add_common(d, cmd_decay)

    c = sp.add_parser("counterexample", help="divergence scan of the L^eps lower bound")
    c.add_argument("--n", type=int, required=True)
    c.add_argument("--ratio", type=float, required=True)
    c.add_argument("--eps", type=float, required=True)
    c.add_argument("--mrange", required=True, help="e.g. 3:10")
    _add_common(c, cmd_counterexample)

    z = sp.add_parser("t0", help="decay-threshold maximizer of the barrier family")
    z.add_argument("--n", type=int, required=True)
    z.add_argument("--ratio", type=float, default=None)
    z.add_argument("--beta", type=float, default=None,
                   help="report the ratio with t0 = n/beta instead")
    _add_common(z, cmd_t0)

    return ap


_COMMON_KEYS = {"output", "format", "reproducible", "config", "command", "parser", "run"}


def _config_value(action: argparse.Action, value):
    """A --config value converted and checked as the same text given to its flag."""
    text = value if isinstance(value, str) else json.dumps(value)
    try:
        out = action.type(text) if action.type else text
        if action.choices is not None and out not in action.choices:
            raise ValueError
    except ValueError:
        raise DomainError(f"config value {value!r} is not a valid {action.dest}") from None
    return out


def _parse(argv) -> tuple[argparse.Namespace, dict]:
    ap = build_parser()
    args = ap.parse_args(argv)
    if args.config:
        loaded = json.loads(Path(args.config).read_text())
        if not isinstance(loaded, dict):
            raise DomainError("config file must hold a JSON object")
        unknown = set(loaded) - (set(vars(args)) - _COMMON_KEYS)
        if unknown:
            raise DomainError(f"config contains unknown keys: {sorted(unknown)}")
        # each config value becomes its flag's default: a flag given in argv still wins
        actions = {a.dest: a for a in args.parser._actions}
        args.parser.set_defaults(**{k: _config_value(actions[k], v) for k, v in loaded.items()})
        args = ap.parse_args(argv)
    params = {k: v for k, v in vars(args).items() if k not in _COMMON_KEYS}
    if args.command == "t0" and params.get("ratio") is None and params.get("beta") is None:
        raise DomainError("t0 requires --ratio or --beta")
    return args, params


def main(argv=None) -> int:
    try:
        args, params = _parse(argv)
        rows, prov = args.run(params)
        _emit(args, params, rows, prov)
    except _USAGE_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 3 if "warning" in prov else 0


if __name__ == "__main__":
    sys.exit(main())
