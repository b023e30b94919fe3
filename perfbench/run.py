#!/usr/bin/env python3
"""The repository benchmark: run one workload and print its metrics.

    python3 perfbench/run.py --workload align-dense --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --seed 1      # every workload in turn

Run it from the root of a checkout: the program is imported from ``src/``
next to this directory, never from an installed copy.  Each metric is
printed by name with its unit and sample count; the last line is one JSON
object ``{"correct", "attempted", "failed", "metrics"}``.  ``--trace 0``
reports the end-to-end metrics of ``BENCHMARK.json`` and ``--trace 1`` its
per-layer metrics.  The exit code is non-zero when any output check fails.
Scratch files go to ``.perfbench/`` in the checkout and are removed at the
end.  See README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import platform
import shutil
import signal
import subprocess
import sys
import tempfile
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKDIR = ROOT / ".perfbench"
WORKLOADS = ("align-dense", "align-sparse", "serve-mixed")
#: Failure messages printed in full; the rest are only counted.
SHOWN_FAILURES = 10


def load_spec() -> dict:
    with open(ROOT / "BENCHMARK.json") as handle:
        return json.load(handle)


def import_program() -> None:
    """Put the checkout's ``src/`` first on the path and check it is what loads."""
    package = SRC / "repro" / "__init__.py"
    if not package.is_file():
        raise SystemExit(f"error: the program's source is missing: {package} not found")
    sys.path.insert(0, str(SRC))
    import repro

    if Path(repro.__file__).resolve() != package.resolve():
        raise SystemExit(f"error: imported repro from {repro.__file__}, expected {package}")


def _git_commit() -> str:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, env=env, capture_output=True,
            text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown (not a git checkout)"


def environment() -> dict:
    """What the numbers depend on besides the code.  The benchmark sets no BLAS variable."""
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except Exception:  # noqa: BLE001 - the config layout differs across numpy versions
        blas_name = "unknown"
    return {
        "nproc": os.cpu_count(),
        "blas": blas_name,
        **{name: os.environ.get(name) for name in
           ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "threadpoolctl": importlib.util.find_spec("threadpoolctl") is not None,
        "numba": importlib.util.find_spec("numba") is not None,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "commit": _git_commit(),
    }


def run_workload(name: str, seed: int, seconds: float, trace: bool, workdir: str):
    if name in ("align-dense", "align-sparse"):
        from align import run_align

        return run_align(name, seed, seconds, trace, workdir)
    from serve import run_serve

    return run_serve(seed, seconds, trace, workdir, str(SRC))


def report(outcome, spec: dict, trace: bool) -> bool:
    """Print every metric of the chosen kind and the final JSON line."""
    kind = "per_layer" if trace else "end_to_end"
    metrics = {}
    print(f"workload {outcome.workload} ({kind.replace('_', '-')} metrics)")
    for entry in spec[kind]:
        name, unit = entry["name"], entry["unit"]
        if name in outcome.metrics:
            value, measured_unit, samples = outcome.metrics[name]
            if measured_unit != unit:
                outcome.fail(f"{name}: measured in {measured_unit}, BENCHMARK.json says {unit}")
            print(f"  {name:<28} {value:>14.6g} {unit:<6} n={samples}")
            metrics[name] = {"value": value, "unit": unit}
            continue
        reason = outcome.absent.get(name, "not exercised by this workload")
        print(f"  {name:<28} {'absent':>14} {unit:<6} ({reason})")
        if trace:
            # Per-layer metrics are always listed; one this run could not
            # measure reads 0 and the line above says why.
            metrics[name] = {"value": 0.0, "unit": unit}
    print(f"  {'fail_ratio':<28} {outcome.failed:>8} / {outcome.attempted} operations")
    if outcome.spans:
        print(f"  {'span':<28} {'calls':>8} {'total s':>12} {'self s':>12}")
        for name, (calls, total, own) in outcome.spans.items():
            print(f"  {name:<28} {calls:>8} {total:>12.6f} {own:>12.6f}")
    for note in outcome.notes:
        print(f"  note: {note}")
    for message in outcome.failures[:SHOWN_FAILURES]:
        print(f"  FAILED: {message}")
    if outcome.failed > SHOWN_FAILURES:
        print(f"  FAILED: ... and {outcome.failed - SHOWN_FAILURES} more")
    print("env " + json.dumps(environment(), sort_keys=True))
    correct = outcome.failed == 0 and outcome.attempted > 0
    print(json.dumps({
        "correct": correct,
        "attempted": max(1, outcome.attempted),
        "failed": outcome.failed,
        "metrics": metrics,
    }))
    return correct


def run_all(args) -> int:
    """Every workload in its own process, one after the other."""
    status = 0
    for name in WORKLOADS:
        done = subprocess.run([
            sys.executable, str(Path(__file__).resolve()), "--workload", name,
            "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
        ])
        status = status or done.returncode
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    spec = load_spec()
    if args.workload == "all":
        return run_all(args)
    import_program()
    # On SIGTERM, unwind normally so the server is stopped and scratch removed.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    WORKDIR.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="run-", dir=WORKDIR)
    # Child processes (the server, pool workers) inherit this.
    os.environ["TMPDIR"] = workdir
    tempfile.tempdir = workdir
    try:
        outcome = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), workdir)
    except Exception:  # noqa: BLE001 - report the crash, then fail the run
        traceback.print_exc()
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            WORKDIR.rmdir()
        except OSError:
            pass  # another run still uses it
    return 0 if report(outcome, spec, bool(args.trace)) else 1


if __name__ == "__main__":
    sys.exit(main())
