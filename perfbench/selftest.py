#!/usr/bin/env python3
"""Self-test of the benchmark's checks: each passes on real output and fails when perturbed.

    python3 perfbench/selftest.py

Runs small CLI invocations (a few seconds in all), feeds each output to its
check, then feeds a perturbed copy and requires the check to report a failure.
Exits 1 if any check misses its perturbation or rejects the real output.
"""

from __future__ import annotations

import math
import os
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

import run

sys.path.insert(0, str(run.SRC))
import hessint.envelope_lab as lab  # noqa: E402
import checks  # noqa: E402
import workloads  # noqa: E402


def cli_output(workdir: Path, label: str, argv: list[str]) -> str:
    out = workdir / f"{label}.csv"
    code = run.invoke(argv + ["--reproducible", "--output", str(out)])
    if code != 0:
        raise SystemExit(f"selftest: {label} exited with {code}")
    return out.read_text()


def edit_cell(text: str, row: int, column: str, new) -> str:
    """Replace one cell of a CLI CSV (rows counted after the header)."""
    lines = text.splitlines()
    body = [i for i, line in enumerate(lines) if line and not line.startswith("#")]
    col = lines[body[0]].split(",").index(column)
    cells = lines[body[1 + row]].split(",")
    cells[col] = repr(float(new(float(cells[col]))))
    lines[body[1 + row]] = ",".join(cells)
    return "\n".join(lines) + "\n"


def report(results: list, name: str, ok: bool, detail: str):
    results.append(ok)
    print(f"{'PASS' if ok else 'FAIL'} {name}: {detail}")


def expect(results: list, name: str, real, perturbed):
    """The check passes the real output and fails the perturbed one."""
    report(results, name, real.n_failed == 0 and perturbed.n_failed > 0,
           f"real output fails {real.n_failed} items {real.messages[:1]}, "
           f"perturbed output fails {perturbed.n_failed}")


def main() -> int:
    workdir = run.WORK / f"selftest-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    results = []
    try:
        z = [-0.3, -0.1, -1e-3, 0.5, 1.0, 2.5, 10.0, 1e3, 1e6]
        text = cli_output(workdir, "w0", ["lambertw", "--branch", "0",
                                          "--z=" + ",".join(map(repr, z))])
        expect(results, "lambertw vs scipy", checks.check_lambertw(text, z, 0),
               checks.check_lambertw(edit_cell(text, 4, "value", lambda w: w * (1 + 1e-9)),
                                     z, 0))
        expect(results, "lambertw vs scipy, absolute below |W| = 1",
               checks.check_lambertw(text, z, 0),
               checks.check_lambertw(edit_cell(text, 2, "value", lambda w: w + 2e-12), z, 0))

        text = cli_output(workdir, "sweep", ["sweep", "--n-range", "3:6", "--ratios", "2,5"])
        expect(results, "sweep exponent chain", checks.check_sweep(text, 8),
               checks.check_sweep(edit_cell(text, 3, "epsilon_interior", lambda e: e / 2), 8))
        expect(results, "sweep upper bound below conjecture", checks.check_sweep(text, 8),
               checks.check_sweep(edit_cell(text, 5, "epsilon_upper", lambda e: 1.0), 8))
        expect(results, "sweep stationarity residual", checks.check_sweep(text, 8),
               checks.check_sweep(edit_cell(text, 0, "stationarity_residual",
                                            lambda r: 1e-6), 8))
        f_gs = float(checks.parse_csv(text)[1][3]["f_at_gamma_star"])
        expect(results, "sweep chain beyond its rounding allowance", checks.check_sweep(text, 8),
               checks.check_sweep(edit_cell(text, 3, "epsilon_interior",
                                            lambda e: f_gs - 8 * math.ulp(f_gs)), 8))
        swapped = checks.check_sweep(edit_cell(text, 3, "epsilon_interior",
                                               lambda e: f_gs - math.ulp(f_gs)), 8)
        report(results, "a one-ulp swap in the chain is known, not failed",
               swapped.n_failed == 0 and swapped.known.get("sweep.chain_exact") == 1,
               f"fails {swapped.n_failed} items, known failures {swapped.known}")
        one_bad = edit_cell(text, 3, "epsilon_interior", lambda e: e / 2)
        two_bad = edit_cell(one_bad, 6, "epsilon_interior", lambda e: e / 2)
        one, two = checks.check_sweep(one_bad, 8).n_failed, checks.check_sweep(two_bad, 8).n_failed
        report(results, "a second bad sweep row raises the failure count", 0 < one < two,
               f"one bad row fails {one} items, two bad rows fail {two}")

        text = cli_output(workdir, "cx", ["counterexample", "--n", "3", "--ratio", "2",
                                          "--eps", "0.7", "--mrange", "3:6"])
        first = float(checks.parse_csv(text)[1][0]["lower_bound"])
        expect(results, "counterexample growth", checks.check_counterexample(text, 4),
               checks.check_counterexample(edit_cell(text, 1, "lower_bound",
                                                     lambda b: first), 4))

        grid = workloads.bump_grid(33, (0.01, -0.02))
        grid_path = workdir / "bump33.json"
        grid.save(grid_path, inline=False)
        text = cli_output(workdir, "decay", ["decay", "--input", str(grid_path), "--delta", "1",
                                             "--levels", "3", "--n", "3", "--ratio", "2"])
        expect(results, "decay monotone", checks.check_decay(text, 4),
               checks.check_decay(edit_cell(text, 3, "count_measure", lambda c: 1.0), 4))

        text = cli_output(workdir, "theta", ["theta", "--input", str(grid_path), "--a-max",
                                             "600", "--bisect-tol", "0.25",
                                             "--t-grid", "14,30,60,140"])
        expect(results, "theta tail monotone", checks.check_tail(text, 4),
               checks.check_tail(edit_cell(text, 3, "measure", lambda m: 10.0), 4))

        field = lab.theta_field(grid, 600.0, 0.25)
        sample = checks.lp_sample(field, 8, np.random.default_rng(0))
        shifted = replace(field, bracket_lo=field.bracket_lo + 5.0,
                          bracket_hi=field.bracket_hi + 5.0)
        expect(results, "theta LP oracle", checks.check_theta_brackets(field, 600.0, sample),
               checks.check_theta_brackets(shifted, 600.0, sample))

        op = workloads.Op("w0", "lambertw", [], workdir / "w0.csv",
                          lambda text, captured: checks.Verdict())
        ledger = run.Ledger()
        ledger.record(op, 0)
        ledger.record(op, 0)
        clean = ledger.tally([op], {})
        op.output.write_text(op.output.read_text() + "\n")
        ledger.record(op, 0)
        ledger.record(op, 3)
        dirty = ledger.tally([op], {})
        report(results, "reproducible output and exit code",
               clean["failed"] == 0 and dirty["failed"] == 2 and dirty["attempted"] == 4,
               f"identical outputs fail {clean['failed']} of {clean['attempted']} items; "
               f"with a changed output and an exit code 3, {dirty['failed']} "
               f"of {dirty['attempted']}")
    finally:
        run.remove_workdir(workdir)
    print(f"{sum(results)}/{len(results)} checks pass on real output and fail when perturbed")
    return 0 if all(results) else 1


if __name__ == "__main__":
    sys.exit(main())
