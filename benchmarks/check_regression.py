"""Compare fresh benchmark JSONs against committed baselines (the CI gate).

Each ``BENCH_*.json`` at the repo root is a committed baseline.  CI copies
them aside, re-runs the quick benchmark modes, and calls this script to
compare the fresh numbers against the baselines:

* **boolean invariants** (parity with dense, bit-identical kernels, suite
  completion, accuracy-within-tolerance) must hold in the fresh run,
  unconditionally;
* **ratio metrics** (memory reductions, speedups) must clear an absolute
  floor, unconditionally;
* **relative checks** — no timing more than ``2x`` slower and no
  rate/ratio less than half the baseline — apply only when the fresh run
  and the baseline were produced by the same benchmark mode (both quick or
  both full, detected from the recorded ``command``), because absolute
  numbers are not comparable across problem sizes.  The nightly full-mode
  run compares apples to apples; quick-mode PR runs still enforce every
  invariant and floor.  The same guard applies to the recorded backend:
  a relative check whose subtree names an ``executor``/``backend`` is
  skipped when the baseline and the fresh run resolved different ones
  (e.g. ``auto`` picking another executor on a different machine).

A committed baseline that is missing a checked value is *schema-stale*
(the benchmark script changed without regenerating its baseline); the
gate fails with the exact regeneration command instead of silently
skipping.

Exit status 0 = no regression, 1 = at least one failed check.

Run with::

    python benchmarks/check_regression.py --baseline-dir baselines --fresh-dir .
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

#: Relative slowdown that fails the gate (fresh > 2x baseline seconds).
#: The committed baselines are recorded on whatever machine regenerated
#: them; the 2x margin is deliberately coarse so ordinary hardware
#: differences between that machine and the CI runner do not trip it —
#: this catches algorithmic blowups, not percent-level drift.
MAX_SLOWDOWN = 2.0

#: Relative collapse that fails the gate for rates and ratios
#: (fresh < 0.5x baseline).
MAX_COLLAPSE = 0.5

# Check kinds:
#   "true"   — fresh value must be truthy (always enforced)
#   "floor"  — fresh value must be >= the given floor (always enforced)
#   "ceil"   — fresh value must be <= the given ceiling (always enforced);
#              the SLO counterpart of "floor" for tail latency and overhead
#   "time"   — fresh must be <= MAX_SLOWDOWN * baseline (same mode only)
#   "rate"   — fresh must be >= MAX_COLLAPSE * baseline (same mode only)
#   "pfloor" / "ptime" / "prate" — the parallel-speedup variants: identical
#              semantics, but skipped (naming the check and the recorded
#              cpu counts) when the run was produced on a box with fewer
#              than 2 cpus — a single-cpu container cannot demonstrate a
#              parallel speedup, and comparing its wall times against a
#              multi-cpu baseline is noise, not signal.  "pfloor" guards on
#              the fresh run's cpus; the relative kinds guard on both.
CHECKS = {
    "BENCH_orbits.json": [
        ("results.0.identical", "true", None),
        ("results.0.speedup_total", "floor", 2.0),
        ("results.0.backends.numpy.total_s", "time", None),
    ],
    "BENCH_runner.json": [
        ("suite.all_done", "true", None),
        ("suite.executors.serial.wall_s", "time", None),
        ("suite.executors.process-pool.wall_s", "ptime", None),
        ("suite.executors.process-pool-shm.wall_s", "ptime", None),
        # Guarded by the backend check: only compared when both runs
        # overlapped their sleep jobs through the same executor.
        ("suite.scheduler_overlap.speedup", "prate", None),
        # The zero-copy pool must return byte-identical results to serial
        # everywhere; its 1.3x speedup floor is a parallel property, so it
        # auto-skips (by name, with the cpu counts) on boxes below 2 cpus.
        ("shm.bit_identical", "true", None),
        ("shm.speedup_vs_serial", "pfloor", 1.3),
        ("kernel_memory.identical", "true", None),
        ("kernel_memory.memory_ratio", "floor", 2.0),
        ("kernel_memory.chunked_s", "time", None),
        ("greedy_memory.identical", "true", None),
        ("greedy_memory.memory_ratio", "floor", 5.0),
        ("greedy_memory.heap_s", "time", None),
    ],
    "BENCH_serve.json": [
        ("parity_with_dense", "true", None),
        ("compression.memory_ratio", "floor", 10.0),
        ("queries_per_second.match_batch_qps", "rate", None),
        ("queries_per_second.topk_batch_qps", "rate", None),
        ("compression.save_s", "time", None),
    ],
    "BENCH_precision.json": [
        ("float64_bit_identical", "true", None),
        ("accuracy.within_tolerance", "true", None),
        ("memory.memory_ratio", "floor", 1.8),
        # GEMM gains depend on the BLAS build; 1.1 is the "measurable
        # speedup" floor, the same-mode rate check catches collapses.
        ("gemm.speedup", "floor", 1.1),
        ("gemm.float32_s", "time", None),
    ],
    "BENCH_api.json": [
        ("parity_with_direct", "true", None),
        ("structured_errors", "true", None),
        # Calibrated far below the in-container measurement (~180k quick);
        # the subtree records "backend": "stdlib" so runs fronted by a
        # different server stack skip the relative checks.
        ("http.sustained_qps", "floor", 15000.0),
        ("http.sustained_qps", "rate", None),
        ("http.p99_ms", "time", None),
    ],
    "BENCH_loadtest.json": [
        # The server's own /metrics must agree exactly with what the
        # clients measured — the observability layer is gated like a
        # correctness property, not a nice-to-have.
        ("metrics_agree", "true", None),
        ("open_loop.no_failures", "true", None),
        # First-class SLOs (always enforced, both modes): sustained
        # open-loop throughput floor and p99 ceiling.  The ceiling is far
        # above the recorded ~21ms because open-loop latency charges
        # queueing delay to the measurement — a slow CI runner shifts it,
        # a server that stops keeping up explodes it to seconds.
        ("open_loop.sustained_qps", "floor", 15000.0),
        ("open_loop.p99_ms", "ceil", 250.0),
        # The stats path must stay cheap: recording a batch is ~2µs next
        # to a ~11µs in-process match, so >60% would mean a lock or
        # allocation regression in the metrics core.
        ("instrumentation_overhead.overhead_pct", "ceil", 60.0),
        ("open_loop.sustained_qps", "rate", None),
        ("capacity.sustained_qps", "rate", None),
    ],
    "BENCH_shard.json": [
        ("within_tolerance", "true", None),
        # Single-shot align at the bench size: the same-mode time checks
        # catch a return of an O(n^2) trainer (24x the tracemalloc peak at
        # 4k nodes), the floor pins accuracy (quick 0.870, full 0.843).
        ("single_shot.wall_s", "time", None),
        ("single_shot.peak_mb", "time", None),
        ("single_shot.p_at_1", "floor", 0.83),
        ("memory_ratio", "floor", 1.5),
        # Sharded-vs-single-shot wall time depends on the pair size (fixed
        # per-shard overheads dominate at quick size), so speedup is a
        # same-mode relative check: the nightly full-size run enforces it.
        ("speedup", "rate", None),
        ("sharded.wall_s", "time", None),
    ],
}

#: How to rebuild each committed baseline (printed when one is missing or
#: schema-stale; append ``--quick`` only for local smoke checks — committed
#: baselines are full-mode).
REGEN_COMMANDS = {
    "BENCH_orbits.json": "python benchmarks/bench_orbit_counting.py",
    "BENCH_runner.json": "python benchmarks/bench_runner.py",
    "BENCH_serve.json": "python benchmarks/bench_serve.py",
    "BENCH_api.json": "python benchmarks/bench_api.py",
    "BENCH_loadtest.json": "python benchmarks/bench_loadtest.py",
    "BENCH_precision.json": "python benchmarks/bench_precision.py",
    "BENCH_shard.json": "python benchmarks/bench_shard.py",
}


def lookup(payload, dotted_path):
    """Resolve ``a.b.0.c`` style paths through dicts and lists."""
    value = payload
    for part in dotted_path.split("."):
        if isinstance(value, list):
            value = value[int(part)]
        else:
            value = value[part]
    return value


def same_mode(baseline: dict, fresh: dict) -> bool:
    """Whether both payloads came from the same benchmark mode."""
    baseline_cmd = str(baseline.get("command", ""))
    fresh_cmd = str(fresh.get("command", ""))
    return ("--quick" in baseline_cmd) == ("--quick" in fresh_cmd)


def backend_context(payload, dotted_path):
    """The innermost ``executor``/``backend`` name recorded along a path.

    The backend analogue of :func:`same_mode`: a relative check under a
    subtree that records which backend produced it (``"executor": ...`` or
    ``"backend": ...``) is only comparable when the baseline and the fresh
    run resolved the *same* one.  Returns ``None`` when no backend is
    recorded anywhere along the path.
    """
    context = None
    value = payload
    for part in dotted_path.split(".") + [None]:
        if isinstance(value, dict):
            for key in ("executor", "backend"):
                recorded = value.get(key)
                if isinstance(recorded, str):
                    context = recorded
        if part is None:
            break
        try:
            value = value[int(part)] if isinstance(value, list) else value[part]
        except (KeyError, IndexError, TypeError, ValueError):
            break
    return context


def recorded_cpus(payload: dict):
    """The cpu count a benchmark payload recorded, or ``None`` if absent."""
    cpus = payload.get("cpus")
    try:
        return int(cpus)
    except (TypeError, ValueError):
        return None


#: Parallel-speedup check kinds and the plain kind each reduces to once the
#: cpu guard passes.
PARALLEL_KINDS = {"pfloor": "floor", "ptime": "time", "prate": "rate"}


def check_file(name: str, baseline: dict, fresh: dict) -> list:
    """Run every check for one benchmark file; returns failure strings."""
    failures = []
    comparable = same_mode(baseline, fresh)
    regen = REGEN_COMMANDS.get(name, f"the benchmark that writes {name}")
    for path, kind, floor in CHECKS[name]:
        try:
            fresh_value = lookup(fresh, path)
        except (KeyError, IndexError, TypeError, ValueError):
            failures.append(
                f"{name}:{path}: missing from the fresh run "
                f"(stale benchmark output? regenerate with `{regen}`)"
            )
            print(f"  [FAIL] {path}: missing from the fresh run")
            continue
        if kind in PARALLEL_KINDS:
            fresh_cpus = recorded_cpus(fresh)
            baseline_cpus = recorded_cpus(baseline)
            guarded = [("fresh", fresh_cpus)]
            if kind != "pfloor":  # floors never read the baseline value
                guarded.append(("baseline", baseline_cpus))
            if any(cpus is not None and cpus < 2 for _, cpus in guarded):
                print(
                    f"  [SKIP] {path}: parallel-speedup check needs >= 2 "
                    f"cpus (baseline recorded {baseline_cpus} cpu(s), "
                    f"fresh {fresh_cpus})"
                )
                continue
            kind = PARALLEL_KINDS[kind]
        if kind == "true":
            status = "OK" if fresh_value else "FAIL"
            if not fresh_value:
                failures.append(f"{name}:{path}: expected truthy, got {fresh_value!r}")
            print(f"  [{status}] {path} = {fresh_value!r} (must hold)")
            continue
        if kind == "floor":
            ok = float(fresh_value) >= floor
            if not ok:
                failures.append(
                    f"{name}:{path}: {float(fresh_value):.3g} below floor {floor}"
                )
            print(
                f"  [{'OK' if ok else 'FAIL'}] {path} = "
                f"{float(fresh_value):.3g} (floor {floor})"
            )
            continue
        if kind == "ceil":
            ok = float(fresh_value) <= floor
            if not ok:
                failures.append(
                    f"{name}:{path}: {float(fresh_value):.3g} above ceiling {floor}"
                )
            print(
                f"  [{'OK' if ok else 'FAIL'}] {path} = "
                f"{float(fresh_value):.3g} (ceiling {floor})"
            )
            continue
        # Relative checks need a comparable baseline value.
        try:
            baseline_value = float(lookup(baseline, path))
        except (KeyError, IndexError, TypeError, ValueError):
            if baseline:
                failures.append(
                    f"{name}:{path}: committed baseline is schema-stale "
                    f"(missing this value); regenerate it with `{regen}` "
                    f"and commit the refreshed {name}"
                )
                print(f"  [FAIL] {path}: baseline is schema-stale")
            else:
                print(f"  [SKIP] {path}: no baseline value")
            continue
        if not comparable:
            print(f"  [SKIP] {path}: baseline ran a different mode")
            continue
        baseline_backend = backend_context(baseline, path)
        fresh_backend = backend_context(fresh, path)
        if baseline_backend != fresh_backend:
            print(
                f"  [SKIP] {path}: baseline ran a different backend "
                f"({baseline_backend} vs {fresh_backend})"
            )
            continue
        fresh_value = float(fresh_value)
        if kind == "time":
            ok = fresh_value <= MAX_SLOWDOWN * baseline_value
            detail = f"{fresh_value:.3g}s vs baseline {baseline_value:.3g}s"
            if not ok:
                failures.append(f"{name}:{path}: {detail} (> {MAX_SLOWDOWN}x slowdown)")
        elif kind == "rate":
            ok = fresh_value >= MAX_COLLAPSE * baseline_value
            detail = f"{fresh_value:.3g} vs baseline {baseline_value:.3g}"
            if not ok:
                failures.append(
                    f"{name}:{path}: {detail} (< {MAX_COLLAPSE}x of baseline)"
                )
        else:  # pragma: no cover - spec table typo guard
            raise ValueError(f"unknown check kind {kind!r}")
        print(f"  [{'OK' if ok else 'FAIL'}] {path}: {detail}")
    return failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--baseline-dir",
        default="baselines",
        metavar="DIR",
        help="directory holding the committed BENCH_*.json baselines",
    )
    parser.add_argument(
        "--fresh-dir",
        default=".",
        metavar="DIR",
        help="directory holding the freshly generated BENCH_*.json files",
    )
    parser.add_argument(
        "--files",
        nargs="+",
        default=sorted(CHECKS),
        choices=sorted(CHECKS),
        help="benchmark files to compare (default: all known)",
    )
    args = parser.parse_args(argv)

    baseline_dir = Path(args.baseline_dir)
    fresh_dir = Path(args.fresh_dir)
    failures = []
    for name in args.files:
        fresh_path = fresh_dir / name
        baseline_path = baseline_dir / name
        regen = REGEN_COMMANDS.get(name, f"the benchmark that writes {name}")
        print(f"{name}:")
        if not fresh_path.is_file():
            failures.append(
                f"{name}: fresh results missing at {fresh_path}; "
                f"generate them with `{regen}` (use --quick for a smoke run)"
            )
            print(f"  [FAIL] missing fresh results at {fresh_path}")
            continue
        fresh = json.loads(fresh_path.read_text())
        baseline = (
            json.loads(baseline_path.read_text())
            if baseline_path.is_file()
            else {}
        )
        if not baseline:
            print(
                "  [note] no committed baseline; floors/invariants only — "
                f"regenerate with `{regen}` and commit {name} to restore "
                "relative checks"
            )
        failures.extend(check_file(name, baseline, fresh))

    print()
    if failures:
        print(f"REGRESSION GATE FAILED ({len(failures)} problem(s)):")
        for failure in failures:
            print(f"  - {failure}")
        return 1
    print("regression gate passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
