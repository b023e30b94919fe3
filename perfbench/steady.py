#!/usr/bin/env python3
"""Check that the benchmark is steady: run a workload over several seeds.

    python3 perfbench/steady.py --workload align-dense --runs 10 --seconds 15

For each end-to-end metric it prints the median of the runs and the spread
(Q3 - Q1) / median, and flags a spread above a third of the metric's bound
in BENCHMARK.json.  Seeds are ``first-seed .. first-seed + runs - 1``.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import time
from pathlib import Path

from measure import median, quartile_spread

HERE = Path(__file__).resolve().parent


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=float)
    args = parser.parse_args(argv)
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    seconds = args.seconds or spec["run_seconds"]
    values = {}
    for seed in range(args.first_seed, args.first_seed + args.runs):
        started = time.perf_counter()
        done = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
            capture_output=True, text=True,
        )
        wall = time.perf_counter() - started
        if done.returncode != 0:
            print(done.stdout[-3000:], done.stderr[-3000:], sep="\n")
            print(f"seed {seed}: exit {done.returncode}")
            return 1
        result = json.loads(done.stdout.strip().splitlines()[-1])
        print(f"seed {seed}: {wall:.1f}s " + " ".join(
            f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()), flush=True)
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
    status = 0
    for entry in spec["end_to_end"]:
        runs = values.get(entry["name"], [])
        if len(runs) < 2:
            print(f"{entry['name']}: {len(runs)} values")
            status = 1
            continue
        spread = quartile_spread(runs)
        steady = spread <= entry["bound"] / 3 or entry["name"] == "setup_s"
        print(f"{entry['name']:<14} median {median(runs):.6g} spread {spread:.4f} "
              f"bound {entry['bound']} {'ok' if steady else 'TOO WIDE'}")
        status = status or (0 if steady else 1)
    return status


if __name__ == "__main__":
    sys.exit(main())
