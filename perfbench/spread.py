#!/usr/bin/env python3
"""Run one workload on several seeds and report each metric's spread.

Usage, from the root of a source checkout:

    python3 perfbench/spread.py --workload train-1d --seeds 1-10

Runs are sequential, one process each, each of BENCHMARK.json's
``run_seconds``. For every end-to-end metric it prints the median, the
quartiles from ``statistics.quantiles(n=4)``, the interquartile distance
as a share of the median, and the metric's bound from BENCHMARK.json.
Raw results go to perfbench/out/spread-<workload>.json.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def seed_list(text):
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=seed_list, default=seed_list("1-10"))
    args = parser.parse_args()
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    runs = []
    for seed in args.seeds:
        cmd = [*spec["command"], "--workload", args.workload, "--seed", str(seed),
               "--seconds", str(spec["run_seconds"]), "--trace", "0"]
        proc = subprocess.run([sys.executable if c == "python3" else c for c in cmd],
                              capture_output=True, text=True, check=False)
        if proc.returncode != 0:
            sys.exit(f"seed {seed} exited {proc.returncode}:\n{proc.stderr}")
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        runs.append({"seed": seed, **result})
        print(f"seed {seed}: correct={result['correct']} failed={result['failed']}/"
              f"{result['attempted']}", file=sys.stderr)
    out = HERE / "out"
    out.mkdir(exist_ok=True)
    (out / f"spread-{args.workload}.json").write_text(json.dumps(runs, indent=1))
    print(f"{'metric':<18}{'median':>14}{'q1':>14}{'q3':>14}{'iqr/med':>9}{'bound':>7}")
    for metric in spec["end_to_end"]:
        values = [r["metrics"][metric["name"]]["value"] for r in runs]
        q1, med, q3 = statistics.quantiles(values, n=4)
        share = (q3 - q1) / med
        print(f"{metric['name']:<18}{med:>14.6g}{q1:>14.6g}{q3:>14.6g}{share:>9.3f}"
              f"{metric['bound']:>7}")


if __name__ == "__main__":
    main()
