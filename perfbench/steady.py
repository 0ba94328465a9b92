#!/usr/bin/env python3
"""Repeat one benchmark workload with different seeds and print, for each
metric of the result line, its median, quartiles and (q3 - q1) / median.

    python3 perfbench/steady.py --workload cold --runs 10 [--seconds 10] [--trace 0]
        [--first-seed 1] [--bin PATH]

Without --bin the runs go through `cargo run --release`. Quartiles are
Python's statistics.quantiles(values, n=4), the same rule the steadiness
check applies.
"""

import argparse
import json
import statistics
import subprocess
import sys


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seconds", default="10")
    ap.add_argument("--trace", default="0")
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--bin", help="a built perfbench executable")
    args = ap.parse_args()

    base = [args.bin] if args.bin else [
        "cargo", "run", "--release", "--offline", "--quiet",
        "--manifest-path", "perfbench/Cargo.toml", "--"]
    values = {}
    units = {}
    for i in range(args.runs):
        seed = args.first_seed + i
        cmd = base + ["--workload", args.workload, "--seed", str(seed),
                      "--seconds", args.seconds, "--trace", args.trace]
        proc = subprocess.run(cmd, capture_output=True, text=True)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            sys.exit(f"seed {seed}: exit {proc.returncode}\n{proc.stderr}")
        result = json.loads(lines[-1])
        if not result["correct"]:
            sys.exit(f"seed {seed}: output check failed\n{proc.stderr}")
        row = []
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
            units[name] = m["unit"]
            row.append(f"{name}={m['value']:.6g}")
        print(f"seed {seed}: attempted {result['attempted']} failed {result['failed']} " + " ".join(row), flush=True)

    print(f"\n{'metric':32} {'unit':>6} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8}")
    for name, v in values.items():
        med = statistics.median(v)
        if len(v) >= 2:
            q1, _, q3 = statistics.quantiles(v, n=4)
        else:
            q1 = q3 = med
        spread = (q3 - q1) / med if med else float("nan")
        print(f"{name:32} {units[name]:>6} {med:12.6g} {q1:12.6g} {q3:12.6g} {spread:8.3f}")


if __name__ == "__main__":
    main()
