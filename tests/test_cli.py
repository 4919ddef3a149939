import csv
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import hessint as h
from hessint.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_csv(text):
    data_lines = [ln for ln in text.splitlines() if ln and not ln.startswith("#")]
    comments = dict(ln[2:].split("=", 1) for ln in text.splitlines() if ln.startswith("# "))
    rows = list(csv.DictReader(io.StringIO("\n".join(data_lines))))
    return comments, rows


def test_bounds_row_values(capsys):
    code, out, _ = run_cli(capsys, "bounds", "--n", "3", "--ratio", "2",
                           "--k", "1", "--reproducible")
    assert code == 0
    comments, rows = parse_csv(out)
    assert comments["command"] == "bounds"
    assert "generated_at" not in comments
    assert len(rows) == 1
    row = rows[0]
    assert row["epsilon_upper"] == "0.59999999999999998"  # 17 significant digits
    assert float(row["c"]) == h.pucci_c(h.Ellipticity(3, 2.0, 1))
    assert float(row["epsilon_global"]) == h.epsilon_global(h.Ellipticity(3, 2.0, 1))


def test_bounds_invalid_rank_is_usage_error(capsys):
    code, _, err = run_cli(capsys, "bounds", "--n", "3", "--ratio", "2", "--k", "3")
    assert code == 2
    assert "error" in err.lower()


def test_sweep_normalized_column_and_k_rules(capsys):
    code, out, _ = run_cli(capsys, "sweep", "--n-range", "3:8", "--ratios", "1.5,2",
                           "--k-rule", "half", "--reproducible")
    assert code == 0
    _, rows = parse_csv(out)
    assert len(rows) == 12
    for row in rows:
        n, k = int(row["n"]), int(row["k"])
        assert k == max(1, n // 2 - 1)
        expected = float(row["refined_lower"]) * float(row["ratio"]) ** (n - k)
        assert math.isclose(float(row["refined_lower_normalized"]), expected, rel_tol=1e-15)


def test_sweep_explicit_list(capsys):
    code, out, _ = run_cli(capsys, "sweep", "--n-range", "3,5", "--ratios", "2",
                           "--reproducible")
    assert code == 0
    _, rows = parse_csv(out)
    assert [int(r["n"]) for r in rows] == [3, 5]
    assert all(int(r["k"]) == 1 for r in rows)
    code, _, err = run_cli(capsys, "sweep", "--n-range", "5:3", "--ratios", "2")
    assert code == 2
    assert "empty" in err


def test_bounds_and_sweep_past_the_power_overflow(capsys):
    code, out, _ = run_cli(capsys, "bounds", "--n", "700", "--ratio", "2", "--reproducible")
    assert code == 0
    row = parse_csv(out)[1][0]
    assert float(row["epsilon_global"]) == h.epsilon_global(h.Ellipticity(700, 2.0, 1)) > 0.0
    code, out, _ = run_cli(capsys, "sweep", "--n-range", "427,428,700,737", "--ratios",
                           "2,100", "--reproducible")
    assert code == 0
    rows = parse_csv(out)[1]
    assert len(rows) == 8
    assert all(math.isfinite(float(v)) for r in rows for k, v in r.items() if k != "k")
    code, _, err = run_cli(capsys, "sweep", "--n-range", "1100", "--ratios", "100")
    assert code == 2
    assert "float range" in err


@pytest.mark.parametrize("n", [79, 80])
def test_bounds_with_c_star_below_the_float_range_is_usage_error(capsys, n):
    # c_star is subnormal at n = 79 and 0.0 at n = 80 for ratio 1e6
    code, out, err = run_cli(capsys, "bounds", "--n", str(n), "--ratio", "1e6")
    assert code == 2
    assert out == ""
    assert "c_star" in err


def test_lambertw_json_round_trip(capsys):
    code, out, _ = run_cli(capsys, "lambertw", "--branch", "-1", "--z=-0.2,-0.05",
                           "--format", "json", "--reproducible")
    assert code == 0
    doc = json.loads(out)
    assert doc["provenance"]["command"] == "lambertw"
    assert len(doc["rows"]) == 2
    for row in doc["rows"]:
        expected = h.lambert_wm1(row["z"]).value
        assert row["value"] == expected
        assert row["residual"] <= 1e-12


def test_lambertw_domain_failure(capsys):
    code, _, err = run_cli(capsys, "lambertw", "--branch", "-1", "--z", "0.5")
    assert code == 2
    assert "error" in err.lower()


def test_reproducible_runs_are_byte_identical(capsys):
    args = ("counterexample", "--n", "3", "--ratio", "2", "--eps", "0.7",
            "--mrange", "3:6", "--reproducible")
    _, out1, _ = run_cli(capsys, *args)
    _, out2, _ = run_cli(capsys, *args)
    assert out1 == out2


def test_timestamp_present_without_reproducible(capsys):
    code, out, _ = run_cli(capsys, "bounds", "--n", "3", "--ratio", "2")
    assert code == 0
    comments, _ = parse_csv(out)
    assert "generated_at" in comments


def test_output_file(tmp_path, capsys):
    target = tmp_path / "report.csv"
    code, out, _ = run_cli(capsys, "bounds", "--n", "3", "--ratio", "2",
                           "--output", str(target), "--reproducible")
    assert code == 0
    assert out == ""
    comments, rows = parse_csv(target.read_text())
    assert comments["command"] == "bounds"
    assert len(rows) == 1


def test_json_writes_nan_as_null(capsys):
    # refined_lower is NaN for k >= n/2; strict JSON has no NaN literal
    code, out, _ = run_cli(capsys, "bounds", "--n", "4", "--ratio", "2", "--k", "2",
                           "--format", "json", "--reproducible")
    assert code == 0

    def reject(name):
        raise ValueError(f"non-standard JSON constant {name}")
    doc = json.loads(out, parse_constant=reject)
    assert doc["rows"][0]["refined_lower"] is None


def test_csv_writes_nan_cells_as_nan(capsys):
    # at n = 2 the asymptotic bounds are undefined; format writes any NaN as nan
    with pytest.warns(UserWarning, match="asymptotic regime"):
        code, out, _ = run_cli(capsys, "sweep", "--n-range", "2", "--ratios", "2",
                               "--reproducible")
    assert code == 0
    row = parse_csv(out)[1][0]
    nan_cols = [c for c, v in row.items() if v == "nan"]
    assert nan_cols == ["tau_n", "refined_lower", "abstract_lower", "refined_lower_normalized"]


def test_t0_beta_round_trip_row(capsys):
    code, out, _ = run_cli(capsys, "t0", "--n", "3", "--beta", "2", "--reproducible")
    assert code == 0
    _, rows = parse_csv(out)
    row = rows[0]
    assert float(row["t0_expected"]) == 1.5
    assert math.isclose(float(row["t0"]), 1.5, rel_tol=1e-8)
    assert math.isclose(float(row["ratio"]), h.rho_for_beta(3, 2.0), rel_tol=1e-15)


def test_t0_requires_ratio_or_beta(capsys):
    code, _, err = run_cli(capsys, "t0", "--n", "3")
    assert code == 2
    assert "ratio" in err and "beta" in err


def test_t0_refuses_both_ratio_and_beta(capsys):
    code, out, err = run_cli(capsys, "t0", "--n", "3", "--ratio", "5", "--beta", "2")
    assert code == 2
    assert out == ""
    assert "--ratio" in err and "--beta" in err


@pytest.mark.parametrize("argv, name", [
    (["sweep", "--n-range", ",", "--ratios", "2"], "n_range"),
    (["sweep", "--n-range", "3", "--ratios", ",,"], "ratios"),
    (["lambertw", "--branch", "0", "--z", ","], "z"),
    (["counterexample", "--n", "3", "--ratio", "2", "--eps", "0.7", "--mrange", ","], "mrange"),
], ids=["n_range", "ratios", "z", "mrange"])
def test_empty_list_is_usage_error(capsys, argv, name):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert f"{name} " in err and "empty" in err


def test_counterexample_scan_rows(capsys):
    code, out, _ = run_cli(capsys, "counterexample", "--n", "3", "--ratio", "2",
                           "--eps", "0.7", "--mrange", "3:10", "--reproducible")
    assert code == 0
    comments, rows = parse_csv(out)
    assert comments["condition_ok"] == "True"
    assert float(comments["alpha"]) == 3.0
    assert float(comments["fit_exponent"]) > 0.0
    bounds = [float(r["lower_bound"]) for r in rows]
    assert [int(r["m"]) for r in rows] == list(range(3, 11))
    assert all(b > a for a, b in zip(bounds, bounds[1:]))
    scan = h.divergence_scan(3, 2.0, 0.7, range(3, 11))
    assert bounds == list(scan.lower_bounds)


def test_counterexample_condition_failure_notes(capsys):
    code, out, _ = run_cli(capsys, "counterexample", "--n", "3", "--ratio", "2",
                           "--eps", "0.6", "--mrange", "3:6", "--reproducible")
    assert code == 0
    comments, rows = parse_csv(out)
    assert comments["condition_ok"] == "False"
    assert "does not exceed" in comments["note"]
    assert rows == []


def test_theta_command(tmp_path, capsys):
    g = h.grid_from_callable(lambda p: -2.0 * (p ** 2).sum(axis=1), 2, 33,
                             domain_radius=1.0)
    grid_path = tmp_path / "parab.json"
    g.save(grid_path)
    code, out, _ = run_cli(capsys, "theta", "--input", str(grid_path),
                           "--a-max", "16", "--reproducible")
    assert code == 0
    comments, rows = parse_csv(out)
    assert comments["grid_hash"] == g.content_hash()
    assert float(comments["restrict_radius"]) == 0.5
    assert float(comments["converged_fraction"]) == 1.0
    # the paraboloid lifts to a flat cloud: "Q0" raises, no hull is used and
    # every sample is exact
    assert (comments["theta_hull_calls"], comments["theta_q0_raised"],
            comments["theta_hull_facets"]) == ("1", "1", "0")
    assert "theta_q0_rejected" not in comments   # a contact-only counter
    assert comments["theta_certified"] == comments["theta_hull_points"] \
        == str(int(g.inside_mask().sum()))
    # the old bisection flag is still accepted, and changes nothing
    code, again, _ = run_cli(capsys, "theta", "--input", str(grid_path),
                             "--a-max", "16", "--bisect-tol", "0.1", "--reproducible")
    assert code == 0 and again == out
    measures = [float(r["measure"]) for r in rows]
    ts = [float(r["t"]) for r in rows]
    assert all(b >= a for a, b in zip(ts, ts[1:]))
    assert all(b <= a for a, b in zip(measures, measures[1:]))
    # theta = 4 everywhere: full measure below, zero above
    assert measures[0] > 0.7
    assert measures[-1] == 0.0


def test_theta_and_decay_count_the_floor(tmp_path, capsys):
    # on the capped bump most samples sit at the grid's minimum: they are
    # decided without a hull, and the hulls take fewer points than the ball holds
    g = h.capped_bump(h.RadialProfile(3, 1.0, 0.35, 1.0, 2.0), 33)
    grid_path = tmp_path / "bump.json"
    g.save(grid_path)
    inside = g.values[g.inside_mask()]
    floor = int((inside == inside.min()).sum())
    assert 0 < floor < len(inside)
    got = {}
    for argv in (["theta", "--a-max", "600"],
                 ["decay", "--delta", "1", "--levels", "4", "--n", "3", "--ratio", "2"]):
        code, out, _ = run_cli(capsys, *argv, "--input", str(grid_path), "--reproducible")
        assert code == 0
        got[argv[0]] = parse_csv(out)[0]
    assert int(got["theta"]["theta_floor"]) == int(got["decay"]["decay_floor"]) == floor
    assert int(got["theta"]["theta_hull_points"]) < len(inside)
    assert int(got["theta"]["theta_certified"]) == len(inside)
    assert int(got["decay"]["decay_undecided"]) == 0


@pytest.mark.parametrize("radius", ["0", "-0.5", "nan"])
def test_theta_bad_restrict_radius_is_usage_error(tmp_path, capsys, radius):
    grid_path = tmp_path / "g.json"
    h.grid_from_callable(lambda p: -(p ** 2).sum(axis=1), 2, 9, domain_radius=1.0).save(grid_path)
    code, _, err = run_cli(capsys, "theta", "--input", str(grid_path), "--a-max", "4",
                           f"--restrict-radius={radius}")
    assert code == 2
    assert "restrict_radius" in err


def test_theta_missing_grid_is_usage_error(tmp_path, capsys):
    code, _, err = run_cli(capsys, "theta", "--input", str(tmp_path / "absent.json"),
                           "--a-max", "4")
    assert code == 2
    assert "error" in err.lower()


def test_decay_degenerate_exits_3_with_partial_report(tmp_path, capsys):
    g = h.grid_from_callable(lambda p: (p ** 2).sum(axis=1), 2, 33, domain_radius=1.0)
    grid_path = tmp_path / "convex.json"
    g.save(grid_path)
    code, out, err = run_cli(capsys, "decay", "--input", str(grid_path),
                             "--delta", "1", "--levels", "5", "--n", "2",
                             "--ratio", "2", "--reproducible")
    assert code == 3
    assert "warning" in err.lower()
    comments, rows = parse_csv(out)
    assert "warning" in comments
    assert len(rows) == 6
    assert all(float(r["count_measure"]) == 0.0 for r in rows)


def test_decay_normal_run(tmp_path, capsys):
    g = h.grid_from_callable(lambda p: -8.0 * (p ** 2).sum(axis=1), 2, 33,
                             domain_radius=1.0)
    grid_path = tmp_path / "steep.json"
    g.save(grid_path)
    code, out, err = run_cli(capsys, "decay", "--input", str(grid_path),
                             "--delta", "1", "--levels", "6", "--n", "2",
                             "--ratio", "2", "--reproducible")
    assert code == 0
    assert err == ""
    comments, rows = parse_csv(out)
    assert float(comments["theoretical_ratio"]) == 0.875
    # the floor is the 4 samples at |x| = 1 on the axes; the 793 others at 1,
    # and the 777 still out of contact at each of 2 to 32, have the whole grid
    # as their neighbourhood, so openings 1 to 32 build full hulls (undecided
    # counts them); at 16 the lift is flat, so "Q0" raises and no rebuild
    # follows; at 64 every sample is in contact and none is built
    decay = {k: int(v) for k, v in comments.items() if k.startswith("decay_")}
    assert decay.pop("decay_lower_facets") > 0
    assert decay == dict(decay_hull_calls=6, decay_hull_points=6 * int(g.inside_mask().sum()),
                         decay_q0_raised=1, decay_q0_rejected=0,
                         decay_undecided=793 + 5 * 777, decay_floor=4)
    counts = [float(r["count_measure"]) for r in rows]
    assert all(b <= a + 1e-12 for a, b in zip(counts, counts[1:]))


def test_config_file_fills_parameters(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"ratio": 2.0}))
    code, out, _ = run_cli(capsys, "t0", "--n", "3", "--config", str(cfg),
                           "--reproducible")
    assert code == 0
    _, rows = parse_csv(out)
    assert math.isclose(float(rows[0]["t0"]), 3.0 * (math.e - 1.0) / math.e, rel_tol=1e-12)


def test_config_rejects_unknown_keys(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"ratio": 2.0, "wavelength": 13}))
    code, _, err = run_cli(capsys, "t0", "--n", "3", "--config", str(cfg))
    assert code == 2
    assert "wavelength" in err
    cfg.write_text(json.dumps([{"ratio": 2.0}]))
    code, _, err = run_cli(capsys, "t0", "--n", "3", "--config", str(cfg))
    assert code == 2
    assert "JSON object" in err


@pytest.mark.parametrize("config, argv, ks", [
    ({"k": 2}, ["bounds", "--n", "5", "--ratio", "2"], [2]),
    ({"k": 2}, ["bounds", "--n", "5", "--ratio", "2", "--k", "3"], [3]),
    ({"k_rule": "half"}, ["sweep", "--n-range", "6:8", "--ratios", "2"], [2, 2, 3]),
], ids=["config-over-default", "flag-over-config", "config-k-rule"])
def test_config_precedence(tmp_path, capsys, config, argv, ks):
    # flag > config > built-in default
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    code, out, _ = run_cli(capsys, *argv, "--config", str(cfg), "--reproducible")
    assert code == 0
    _, rows = parse_csv(out)
    assert [int(r["k"]) for r in rows] == ks


def test_config_supplies_required_flags(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"n": 3, "ratio": 2}))
    code, from_config, _ = run_cli(capsys, "bounds", "--config", str(cfg), "--reproducible")
    assert code == 0
    code, from_flags, _ = run_cli(capsys, "bounds", "--n", "3", "--ratio", "2",
                                  "--reproducible")
    assert code == 0 and from_config == from_flags
    # a flag given in argv still wins over the config
    code, out, _ = run_cli(capsys, "bounds", "--config", str(cfg), "--n", "4", "--reproducible")
    assert code == 0 and parse_csv(out)[1][0]["n"] == "4"


def test_required_flag_missing_from_flags_and_config(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"n": 3}))
    with pytest.raises(SystemExit) as info:
        main(["bounds", "--config", str(cfg)])
    assert info.value.code == 2
    err = capsys.readouterr().err
    assert "--ratio" in err and "--n" not in err.splitlines()[-1]


def test_config_carries_an_argument_list_too_long_for_a_flag(tmp_path, capsys):
    # 10,000 arguments of W0 are over 128 KiB, more than one command-line
    # argument may hold on Linux; from a config file they run in a fresh process
    zs = ",".join(repr(float(z)) for z in np.linspace(-0.3, 1e4, 10_000))
    assert len(zs) > 128 * 1024
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"branch": 0, "z": zs}))
    out = tmp_path / "w0.csv"
    proc = run_child("-m", "hessint.cli", "lambertw", "--config", str(cfg),
                     "--reproducible", "--output", str(out))
    assert proc.returncode == 0, proc.stderr
    rows = parse_csv(out.read_text())[1]
    assert len(rows) == 10_000
    code, in_process, _ = run_cli(capsys, "lambertw", "--branch", "0", "--z=" + zs,
                                  "--reproducible")
    assert code == 0 and out.read_text() == in_process


def test_config_rejects_unknown_k_rule(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"k_rule": "all"}))
    code, _, err = run_cli(capsys, "sweep", "--n-range", "6", "--ratios", "2",
                           "--config", str(cfg))
    assert code == 2
    assert "k_rule" in err


def test_config_value_gets_its_flag_type(tmp_path, capsys):
    # the flag's float type applies to the config value too: exit 2, not a TypeError
    grid_path = tmp_path / "g.json"
    h.grid_from_callable(lambda p: -(p ** 2).sum(axis=1), 2, 9, domain_radius=1.0).save(grid_path)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"restrict_radius": "half"}))
    code, _, err = run_cli(capsys, "theta", "--input", str(grid_path), "--a-max", "4",
                           "--config", str(cfg))
    assert code == 2
    assert "restrict_radius" in err


def run_child(*args):
    """A fresh interpreter that finds the package where this process imported it from."""
    src = str(Path(h.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *args], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": path})


def test_module_entry_point():
    proc = run_child("-m", "hessint.cli", "bounds", "--n", "3", "--ratio", "2",
                     "--reproducible")
    assert proc.returncode == 0
    assert "epsilon_upper" in proc.stdout


def test_cold_import_loads_no_numpy_or_scipy():
    # the numpy layers are imported by the commands and names that use them,
    # and the provenance versions come from the package metadata
    proc = run_child("-c", "import sys\n"
                           "def loaded(): return [m for m in sys.modules"
                           " if m.split('.')[0] in ('numpy', 'scipy')]\n"
                           "import hessint\n"
                           "print(*loaded(), sep=',')\n"
                           "import hessint.cli\n"
                           "print(*loaded(), sep=',')")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "\n\n"


SCALAR_COMMANDS = ("bounds", "sweep", "lambertw", "t0")


@pytest.mark.parametrize("argv", [
    ["decay", "--delta", "1", "--levels", "4", "--n", "3", "--ratio", "2"],
    ["theta", "--a-max", "600"],
    ["sweep", "--n-range", "3,4,5,6,3", "--ratios", "1,2,7.3", "--k-rule", "half"],
    ["bounds", "--n", "20", "--ratio", "7.3", "--k", "3"],
    ["lambertw", "--branch", "-1", "--z=-0.2,-0.05,-1e-300"],
    ["t0", "--n", "5", "--beta", "2.5"],
    ["counterexample", "--n", "3", "--ratio", "2", "--eps", "0.7", "--mrange", "3:6"],
], ids=["decay", "theta", "sweep", "bounds", "lambertw", "t0", "counterexample"])
def test_cold_cli_writes_what_the_warm_one_does(tmp_path, capsys, argv):
    # in a fresh interpreter the first hull imports scipy.spatial. The sweep's
    # per-n caches outlive a call, so the second warm sweep starts on a hit.
    # The child prints the numpy and scipy modules loaded when main returns
    if argv[0] in ("decay", "theta"):
        grid_path = tmp_path / "bump.json"
        h.capped_bump(h.RadialProfile(3, 1.0, 0.35, 1.0, 2.0), 33).save(grid_path)
        argv = [*argv, "--input", str(grid_path)]
    argv = [*argv, "--reproducible", "--output"]
    cold = tmp_path / "cold.csv"
    proc = run_child("-c", "import sys, hessint.cli as cli; "
                           "assert 'scipy.spatial' not in sys.modules; "
                           "code = cli.main(sys.argv[1:]); "
                           "print(*(m for m in sys.modules"
                           " if m.split('.')[0] in ('numpy', 'scipy'))); "
                           "sys.exit(code)", *argv, str(cold))
    assert proc.returncode == 0, proc.stderr
    if argv[0] in SCALAR_COMMANDS:
        assert proc.stdout.split() == []
    for warm in (tmp_path / "warm1.csv", tmp_path / "warm2.csv"):
        assert run_cli(capsys, *argv, str(warm))[0] == 0
        assert cold.read_bytes() == warm.read_bytes()


def test_provenance_versions_in_a_fresh_interpreter(tmp_path):
    # the versions match the imported packages', and a second call in the same
    # process takes them from the first instead of reading the metadata again
    first, second = tmp_path / "first.json", tmp_path / "second.json"
    proc = run_child("-c", "import importlib.metadata, json, sys, hessint.cli as cli\n"
                           "argv = ['bounds', '--n', '3', '--ratio', '2', '--format',"
                           " 'json', '--reproducible', '--output']\n"
                           "assert cli.main([*argv, sys.argv[1]]) == 0\n"
                           "def read_again(name): raise AssertionError(name)\n"
                           "importlib.metadata.version = read_again\n"
                           "assert cli.main([*argv, sys.argv[2]]) == 0\n"
                           "import numpy, scipy\n"
                           "print(json.dumps([numpy.__version__, scipy.__version__]))",
                     str(first), str(second))
    assert proc.returncode == 0, proc.stderr
    numpy_version, scipy_version = json.loads(proc.stdout)
    prov = json.loads(first.read_text())["provenance"]
    assert (prov["numpy_version"], prov["scipy_version"]) == (numpy_version, scipy_version)
    assert second.read_bytes() == first.read_bytes()


def test_lambertw_near_the_top_of_the_float_range(capsys):
    code, out, _ = run_cli(capsys, "lambertw", "--branch", "0", "--z", "1e308",
                           "--reproducible")
    assert code == 0
    _, rows = parse_csv(out)
    assert float(rows[0]["value"]) == h.lambert_w0(1e308).value


@pytest.mark.parametrize("t_grid", ["14,nan,30,60,140", "14,30,60,140,inf"],
                         ids=["nan", "inf"])
def test_theta_non_finite_t_grid_is_usage_error(tmp_path, capsys, t_grid):
    grid_path = tmp_path / "g.json"
    h.grid_from_callable(lambda p: -(p ** 2).sum(axis=1), 2, 9, domain_radius=1.0).save(grid_path)
    code, out, err = run_cli(capsys, "theta", "--input", str(grid_path), "--a-max", "4",
                             "--t-grid", t_grid)
    assert code == 2
    assert out == ""
    assert "t_grid" in err


def test_counterexample_nan_ratio_is_usage_error(capsys):
    code, out, err = run_cli(capsys, "counterexample", "--n", "3", "--ratio", "nan",
                             "--eps", "0.7", "--mrange", "3:6")
    assert code == 2
    assert out == ""
    assert "ratio" in err


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_provenance_records_versions(capsys, fmt):
    import scipy
    code, out, _ = run_cli(capsys, "bounds", "--n", "3", "--ratio", "2",
                           "--format", fmt, "--reproducible")
    assert code == 0
    prov = json.loads(out)["provenance"] if fmt == "json" else parse_csv(out)[0]
    assert prov["hessint_version"] == h.__version__
    assert prov["numpy_version"] == np.__version__
    assert prov["scipy_version"] == scipy.__version__
