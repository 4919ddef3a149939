#!/usr/bin/env python3
"""hessint benchmark: one workload through the CLI, timed end to end or traced per layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root; hessint is imported from ./src. The run builds
the workload's inputs from the seed (timed as set-up), makes one untimed
warm-up pass over its CLI invocations (``hessint.cli.main``, in process), then
repeats them for about S seconds:

* ``--trace 0`` times every pass with no wrapper installed and reports the
  end-to-end metrics of BENCHMARK.json.
* ``--trace 1`` spends half of S untraced and half with span wrappers around
  every layer, and reports the per-layer metrics; the spans are written to
  ``.perfbench_out/``.

Every output must be byte-identical to the first output of its invocation,
which comes from the warm-up pass. The warm-up pass also keeps the library
results that some checks need and the CLI does not print. The checks run once
all passes are over and the peak memory has been read; ``attempted`` and
``failed`` count checked items (rows, row pairs, sampled points) over every
invocation. The last line of standard output is the JSON result; the line
before it holds the provenance, the sample counts, the failures by clause and
the failures of the known, non-gating clauses.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
OUT = ROOT / ".perfbench_out"
DEFAULT_SEED = 1
SETUP_REPEATS = 5
MIN_PASSES = 3         # timed passes in a --trace 0 run
MIN_TRACE_PASSES = 2   # untraced and traced passes each in a --trace 1 run
COMMANDS = ("sweep", "lambertw", "counterexample", "theta", "decay")
_IMPORT_PROBE = ("import time; t = time.perf_counter(); import hessint.cli; "
                 "print(time.perf_counter() - t)")


def import_seconds() -> float:
    """Time to import hessint.cli in a fresh interpreter (interpreter start excluded)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    res = subprocess.run([sys.executable, "-c", _IMPORT_PROBE], cwd=ROOT, env=env,
                         capture_output=True, text=True, timeout=120, check=True)
    return float(res.stdout.strip().splitlines()[-1])


def openblas_threads():
    """Thread count of numpy's bundled OpenBLAS, or None when it cannot be read."""
    import numpy as np
    libdir = Path(np.__file__).parent.parent / "numpy.libs"
    for lib in sorted(glob.glob(str(libdir / "*openblas*"))):
        so = ctypes.CDLL(lib)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(so, sym, None)
            if fn is not None:
                fn.argtypes, fn.restype = [], ctypes.c_int
                return int(fn())
    return None


def git_commit():
    """HEAD of the checkout's own .git, or None where the checkout is not a git repository."""
    if not (ROOT / ".git").exists():
        return None
    try:
        res = subprocess.run(["git", "--git-dir", str(ROOT / ".git"), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=30, check=True)
    except (OSError, subprocess.SubprocessError):
        return None
    return res.stdout.strip()


def provenance(args) -> dict:
    import numpy
    import scipy
    import hessint
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "python": platform.python_version(),
        "numpy": numpy.__version__, "scipy": scipy.__version__,
        "hessint": hessint.__version__, "git_commit": git_commit(),
        "nproc": os.cpu_count(), "openblas_threads": openblas_threads(),
    }


def remove_workdir(workdir: Path):
    shutil.rmtree(workdir, ignore_errors=True)
    if WORK.is_dir() and not any(WORK.iterdir()):
        WORK.rmdir()


def invoke(argv: list[str]) -> int:
    import hessint.cli as cli
    try:
        return cli.main(argv)
    except SystemExit as exc:  # argparse rejects the arguments
        return exc.code if isinstance(exc.code, int) and exc.code else 2
    except Exception:  # a crash is a failed operation, not a benchmark error
        traceback.print_exc()
        return -1


class Ledger:
    """The outcome of every invocation, and the first clean output of each operation.

    Checks run only in ``tally``, after the timed passes and after the peak
    memory has been read, so neither their time nor their memory is measured.
    """

    def __init__(self):
        self.first: dict[str, bytes] = {}
        self.outcomes: dict[str, list[str]] = {}

    def record(self, op, code: int):
        """Keep one invocation's outcome: 'same' as the first output, 'differs', or its exit code."""
        outcomes = self.outcomes.setdefault(op.label, [])
        if code != 0:
            outcomes.append(f"exit code {code}")
            return
        data = op.output.read_bytes()
        first = self.first.setdefault(op.label, data)
        outcomes.append("same" if data == first else "differs")

    def tally(self, ops, captured: dict) -> dict:
        """Check each operation's first output once and count items over every invocation.

        An invocation's items are those of its check plus one for being
        byte-identical to the first output (``--reproducible``). An identical
        output fails the items its check fails; an output that differs, or a
        nonzero exit, fails all of them. An operation that never exited
        cleanly counts one failed item per invocation.
        """
        attempted = failed = 0
        by_clause: dict[str, int] = {}
        known: dict[str, int] = {}
        messages: list[str] = []
        observations: dict[str, float] = {}
        for op in ops:
            outcomes = self.outcomes.get(op.label, [])
            if op.label in self.first:
                verdict = op.check(self.first[op.label].decode(), captured)
                items, bad = verdict.n_checked + 1, verdict.n_failed
                observations.update(verdict.observations)
                messages += [f"{op.label}: {m}" for m in verdict.messages]
                for counts, into in ((verdict.failed, by_clause), (verdict.known, known)):
                    for clause, n in counts.items():
                        if n:
                            into[clause] = into.get(clause, 0) + n * outcomes.count("same")
            else:
                items, bad = 1, 1
            for outcome in outcomes:
                attempted += items
                failed += bad if outcome == "same" else items
                if outcome != "same":
                    by_clause[outcome] = by_clause.get(outcome, 0) + 1
                    messages.append(f"{op.label}: {outcome}")
        return {"attempted": attempted, "failed": failed, "failed_by_clause": by_clause,
                "known_by_clause": known, "messages": messages,
                "observations": observations}


def warm_up_pass(ops, ledger: Ledger, names) -> dict:
    """An untimed first pass that also keeps what the named envelope_lab functions return."""
    import hessint.envelope_lab as lab
    captured = {}
    saved = [(name, getattr(lab, name)) for name in names]
    for name, original in saved:
        def keep(*a, _name=name, _fn=original, **k):
            captured[_name] = _fn(*a, **k)
            return captured[_name]
        setattr(lab, name, keep)
    try:
        for op in ops:
            op.output.unlink(missing_ok=True)
            ledger.record(op, invoke(op.argv))
    finally:
        for name, original in saved:
            setattr(lab, name, original)
    return captured


def run_passes(ops, ledger: Ledger, budget: float, min_passes: int, tracer=None):
    """Repeat the operations for about ``budget`` seconds; one record per pass."""
    passes = []
    start = perf_counter()
    while True:
        times, out_bytes = {}, 0
        for op in ops:
            op.output.unlink(missing_ok=True)
            if tracer is None:
                t0 = perf_counter()
                code = invoke(op.argv)
                times[op.label] = perf_counter() - t0
            else:
                with tracer.span("cli.main") as rec:
                    code = invoke(op.argv)
                times[op.label] = rec[2] - rec[1]  # span end - start
            ledger.record(op, code)
            if op.output.exists():
                out_bytes += op.output.stat().st_size
        record = {"times": times, "total": sum(times.values()), "output_bytes": out_bytes}
        if tracer is not None:
            record["spans"], record["counters"] = tracer.take()
        passes.append(record)
        typical = statistics.median(p["total"] for p in passes)
        if len(passes) >= min_passes and perf_counter() - start + typical > budget:
            return passes


def median_by(passes, key) -> float:
    return float(statistics.median(key(p) for p in passes))


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def end_to_end(passes, setup_s: float, peak_mb: float) -> dict:
    return {"cli_s": median_by(passes, lambda p: p["total"]), "setup_s": setup_s,
            "peak_rss_mb": peak_mb}


def per_layer(untraced, traced, observations: dict, ops) -> dict:
    import tracing
    layers = [tracing.layer_metrics(p["spans"], p["counters"]) for p in traced]
    metrics = {name: float(statistics.median(m[name] for m in layers)) for name in layers[0]}
    for name in ("special_functions.max_rel_err", "exponent_bounds.max_stationarity_residual"):
        metrics[name] = observations.get(name, 0.0)  # 0 where no check observed it
    metrics["cli.output_bytes"] = median_by(untraced, lambda p: p["output_bytes"])
    command_of = {op.label: op.command for op in ops}
    for command in COMMANDS:
        metrics[f"cli.{command}_s"] = median_by(
            untraced, lambda p: sum(t for label, t in p["times"].items()
                                    if command_of[label] == command))
    metrics["trace.overhead_s"] = (median_by(traced, lambda p: p["total"])
                                   - median_by(untraced, lambda p: p["total"]))
    return metrics


def result_metrics(values: dict, declared: list[dict]) -> dict:
    """Values in BENCHMARK.json order with its units; the two lists must agree."""
    names = [m["name"] for m in declared]
    if set(names) != set(values):
        raise RuntimeError(f"metrics {sorted(set(values) ^ set(names))} differ from BENCHMARK.json")
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    spec_path = ROOT / "BENCHMARK.json"
    if not (SRC / "hessint" / "__init__.py").is_file() or not spec_path.is_file():
        print(f"error: expected src/hessint and BENCHMARK.json under {ROOT}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import hessint
    if Path(hessint.__file__).resolve().parent != (SRC / "hessint").resolve():
        print(f"error: imported hessint from {hessint.__file__}, not src/", file=sys.stderr)
        return 2
    import workloads
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())
    workload = workloads.WORKLOADS[args.workload]

    workdir = WORK / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        setups = []
        for _ in range(SETUP_REPEATS):
            t_import = import_seconds()
            t0 = perf_counter()
            ops = workload.build(args.seed, workdir)
            setups.append(t_import + perf_counter() - t0)
        setup_s = float(statistics.median(setups))

        ledger = Ledger()
        samples = {"setup_s": len(setups), "setup_samples_s": setups,
                   "rss_before_passes_mb": peak_rss_mb()}
        captured = warm_up_pass(ops, ledger, workload.capture)
        if args.trace == 0:
            passes = run_passes(ops, ledger, args.seconds, MIN_PASSES)
            values = end_to_end(passes, setup_s, peak_rss_mb())
            samples.update(cli_s=len(passes), pass_s=[p["total"] for p in passes])
        else:
            import tracing
            untraced = run_passes(ops, ledger, args.seconds / 2, MIN_TRACE_PASSES)
            tracer = tracing.Tracer()
            restore = tracing.install(tracer)
            try:
                traced = run_passes(ops, ledger, args.seconds / 2, MIN_TRACE_PASSES, tracer)
            finally:
                restore()
            samples.update(untraced_passes=len(untraced), traced_passes=len(traced))
        tally = ledger.tally(ops, captured)
        if args.trace == 0:
            metrics = result_metrics(values, spec["end_to_end"])
        else:
            metrics = result_metrics(per_layer(untraced, traced, tally["observations"], ops),
                                     spec["per_layer"])
        prov = provenance(args)
        if args.trace == 1:
            OUT.mkdir(exist_ok=True)
            trace_file = OUT / f"trace-{args.workload}-seed{args.seed}.json"
            trace_file.write_text(json.dumps({
                "provenance": prov, "metrics": metrics,
                "passes": [{"total_s": p["total"], "counters": p["counters"],
                            "spans": tracing.dump_spans(p["spans"])} for p in traced],
            }))
    finally:
        remove_workdir(workdir)

    for message in tally["messages"][:40]:
        print(f"check failed: {message}", file=sys.stderr)
    attempted, failed = tally["attempted"], tally["failed"]
    print(json.dumps({"provenance": prov, "samples": samples, "error_rate": failed / attempted,
                      "failed_by_clause": tally["failed_by_clause"],
                      "known_by_clause": tally["known_by_clause"]}))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
