#!/usr/bin/env python3
"""Print every end-to-end and per-layer metric of every workload, by name and with its unit.

    python3 perfbench/report.py [--seed N] [--seconds S]

Runs ``run.py`` once per workload with ``--trace 0`` and once with ``--trace 1``,
each in its own process, and prints one table with a column per workload,
followed by the checked items attempted and failed in both runs and their
ratio (error_rate).
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys

from run import DEFAULT_SEED, ROOT


def run_workload(name: str, seed: int, seconds: int, trace: int) -> dict:
    res = subprocess.run([sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", name,
                          "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
                         cwd=ROOT, capture_output=True, text=True, check=False)
    sys.stderr.write(res.stderr)
    if res.returncode != 0:
        raise SystemExit(f"report: {name} --trace {trace} exited with {res.returncode}")
    return json.loads(res.stdout.strip().splitlines()[-1])


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=int, default=spec["run_seconds"])
    args = ap.parse_args()

    names = [w["name"] for w in spec["workloads"]]
    results = {n: [run_workload(n, args.seed, args.seconds, t) for t in (0, 1)] for n in names}
    width = max(len(m["name"]) for m in spec["end_to_end"] + spec["per_layer"]) + 2
    print(f"{'metric':<{width}}{'unit':<7}" + "".join(f"{n:>16}" for n in names))
    for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
        print(f"-- {kind} (--trace {trace})")
        for m in spec[kind]:
            cells = "".join(f"{results[n][trace]['metrics'][m['name']]['value']:>16.6g}"
                            for n in names)
            print(f"{m['name']:<{width}}{m['unit']:<7}{cells}")
    print("-- checked items (both runs)")
    for key in ("attempted", "failed"):
        cells = "".join(f"{sum(r[key] for r in results[n]):>16d}" for n in names)
        print(f"{key:<{width}}{'count':<7}{cells}")
    rates = "".join(f"{sum(r['failed'] for r in results[n]) / sum(r['attempted'] for r in results[n]):>16.6g}"
                    for n in names)
    print(f"{'error_rate':<{width}}{'1':<7}{rates}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
