"""The benchmark's workloads: seeded inputs, the CLI invocations that use them, and checks.

Each workload is a list of ``hessint`` CLI invocations (operations). Building a
workload draws its inputs from the seed and writes any grid files; the
benchmark times that as set-up. Every invocation writes ``--reproducible``
CSV to a file, which its check reads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import hessint as h
import checks

LAMBERT_PRINCIPAL = (6000, 4000)  # uniform on [-1/e + 1e-9, 10], log-uniform on [10, 1e6]
LAMBERT_LOWER = 10_000            # -|z| with |z| log-uniform on [1e-300, (1 - 1e-9)/e]
SWEEP_RATIOS = 20                 # log-uniform on (1, 100]
SWEEP_N = (3, 40)
COUNTEREXAMPLE_M = (3, 14)
BUMP_PROFILE = (3, 1.0, 0.35, 1.0, 2.0)  # (n, alpha, R, lambda, Lambda) of the capped bump
THETA_POINTS, THETA_A_MAX, THETA_TOL = 65, 600.0, 0.25
THETA_T_GRID = np.geomspace(14.0, 140.0, 9)
THETA_LP_POINTS = 32
DECAY_POINTS, DECAY_LEVELS = 129, 6

# independent random streams per seed
_LAMBERT, _RATIOS, _SHIFT, _LP = range(4)


def _rng(seed: int, stream: int) -> np.random.Generator:
    return np.random.default_rng([seed, stream])


def _floats(xs) -> str:
    return ",".join(repr(float(x)) for x in xs)


@dataclass
class Op:
    """One CLI invocation and the check of the output file it writes.

    check(text, captured) returns a checks.Verdict; captured maps the name of
    an envelope_lab function to the value it returned in the warm-up pass.
    """

    label: str
    command: str
    argv: list[str]
    output: Path
    check: Callable[[str, dict], tuple[list[str], dict]]


@dataclass
class Workload:
    build: Callable[[int, Path], list[Op]]
    # envelope_lab functions whose return values the checks need
    capture: tuple[str, ...] = ()


def _op(label: str, argv: list[str], workdir: Path, check) -> Op:
    out = workdir / f"{label}.csv"
    return Op(label, argv[0], argv + ["--reproducible", "--output", str(out)], out, check)


def build_scalar_tables(seed: int, workdir: Path) -> list[Op]:
    rng = _rng(seed, _LAMBERT)
    n_lin, n_geo = LAMBERT_PRINCIPAL
    z0 = np.concatenate([rng.uniform(-1.0 / math.e + 1e-9, 10.0, n_lin),
                         np.exp(rng.uniform(math.log(10.0), math.log(1e6), n_geo))])
    zm1 = -np.exp(rng.uniform(math.log(1e-300), math.log((1.0 - 1e-9) / math.e), LAMBERT_LOWER))
    ratios = 100.0 ** (1.0 - _rng(seed, _RATIOS).uniform(size=SWEEP_RATIOS))
    n_range = f"{SWEEP_N[0]}:{SWEEP_N[1]}"
    sweep_rows = (SWEEP_N[1] - SWEEP_N[0] + 1) * SWEEP_RATIOS
    m_lo, m_hi = COUNTEREXAMPLE_M
    ops = [
        _op(f"sweep_{rule}", ["sweep", "--n-range", n_range, "--ratios", _floats(ratios),
                              "--k-rule", rule], workdir,
            lambda text, _: checks.check_sweep(text, sweep_rows))
        for rule in ("one", "half")
    ]
    for branch, zs in ((0, z0), (-1, zm1)):
        zs = [float(z) for z in zs]
        ops.append(_op(f"lambertw_{'w0' if branch == 0 else 'wm1'}",
                       ["lambertw", "--branch", str(branch), "--z=" + _floats(zs)], workdir,
                       lambda text, _, zs=zs, b=branch: checks.check_lambertw(text, zs, b)))
    ops.append(_op("counterexample",
                   ["counterexample", "--n", "3", "--ratio", "2", "--eps", "0.7",
                    "--mrange", f"{m_lo}:{m_hi}"], workdir,
                   lambda text, _: checks.check_counterexample(text, m_hi - m_lo + 1)))
    return ops


def bump_grid(points_per_axis: int, shift) -> h.GridFunction:
    """2-d slice of the capped bump, centre moved by ``shift``, on the unit ball."""
    prof = h.RadialProfile(*BUMP_PROFILE)
    centre = np.asarray(shift, dtype=float)

    def values(pts):
        r = np.sqrt(((pts - centre) ** 2).sum(axis=1))
        return np.array([1.0 if ri == 0.0 else min(1.0, h.u_value(prof, float(ri)))
                         for ri in r])
    return h.grid_from_callable(values, 2, points_per_axis, domain_radius=1.0)


def bump_shift(seed: int, points_per_axis: int) -> np.ndarray:
    """Half a cell on each axis, the signs drawn from the seed: the centre of a cell.

    The four shifted bumps are mirror images of one another on the grid, so
    every seed gives the same amount of work; a shift of free length and
    direction moves the Theta hull count by about 20%.
    """
    spacing = 2.0 / (points_per_axis - 1)
    return _rng(seed, _SHIFT).choice([-1.0, 1.0], size=2) * spacing / 2.0


def _save_bump(seed: int, workdir: Path, points_per_axis: int) -> Path:
    shift = bump_shift(seed, points_per_axis)
    path = workdir / f"bump{points_per_axis}.json"
    bump_grid(points_per_axis, shift).save(path, inline=False)
    return path


def build_theta_bump65(seed: int, workdir: Path) -> list[Op]:
    grid = _save_bump(seed, workdir, THETA_POINTS)

    def check(text, captured):
        verdict = checks.check_tail(text, len(THETA_T_GRID))
        field_ = captured.get("theta_field")
        verdict.item("theta.captured", field_ is not None,
                     "the warm-up pass returned no ThetaField for the LP check")
        if field_ is not None:
            sample = checks.lp_sample(field_, THETA_LP_POINTS, _rng(seed, _LP))
            checks.check_theta_brackets(field_, THETA_A_MAX, sample, verdict)
        return verdict

    return [_op("theta", ["theta", "--input", str(grid), "--a-max", repr(THETA_A_MAX),
                          "--bisect-tol", repr(THETA_TOL), "--restrict-radius", "0.5",
                          "--t-grid", _floats(THETA_T_GRID)], workdir, check)]


def build_decay_bump129(seed: int, workdir: Path) -> list[Op]:
    grid = _save_bump(seed, workdir, DECAY_POINTS)
    return [_op("decay", ["decay", "--input", str(grid), "--delta", "1",
                          "--levels", str(DECAY_LEVELS), "--n", "3", "--ratio", "2"], workdir,
                lambda text, _: checks.check_decay(text, DECAY_LEVELS + 1))]


# why each workload exists is recorded in BENCHMARK.json and README.md
WORKLOADS = {
    "scalar_tables": Workload(build_scalar_tables),
    "theta_bump65": Workload(build_theta_bump65, capture=("theta_field",)),
    "decay_bump129": Workload(build_decay_bump129),
}
