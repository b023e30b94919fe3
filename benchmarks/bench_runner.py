"""Benchmark: suite-runner parallelism and memory-bounded scoring kernels.

Three measurements back the ``repro.runner`` subsystem and the chunked
similarity path:

1. **Suite wall-clock per executor backend.**  A real sweep (3 dataset
   pairs × 3 methods) through ``run_suite`` once under the ``serial``
   reference executor and once per pooled backend (``process-pool`` and
   ``process-pool-shm``, ``jobs=4`` each), recording each
   backend's wall clock and real-job speedup over serial.  The zero-copy
   ``process-pool-shm`` run additionally lands a top-level ``shm`` section:
   its speedup, a bit-identical comparison of every job artifact against
   the serial run (timing fields stripped), and the warm-pool telemetry
   (BLAS thread cap, dataset-cache hit counts) from the suite manifest.  On a multi-core machine the pooled
   runs win roughly linearly; on a 1-CPU container CPU-bound jobs cannot
   speed up, so the report also includes a *scheduler overlap* run with
   I/O-bound stand-in jobs (each sleeps a fixed interval), which isolates
   what the pool itself buys: N sleeping jobs complete in ~1/N of the
   serial wall-clock even on one core.
2. **Dense vs chunked peak memory.**  ``tracemalloc``-traced peaks of the
   LISI → mutual-nearest-neighbour pipeline: dense (materialise the full
   score matrix) vs :func:`repro.similarity.chunked.chunked_mutual_nearest_neighbors`
   (stream row blocks of the height the similarity engine sets).
3. **Greedy matching memory.**  The former ``argsort(scores, axis=None)``
   selection vs the new lazy-heap ``greedy_match`` on the same matrix.

Results land in ``BENCH_runner.json`` at the repo root plus a readable table
under ``benchmarks/results/``.

Run with::

    python benchmarks/bench_runner.py            # full sweep
    python benchmarks/bench_runner.py --quick    # smaller sizes
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import tempfile
import time
import tracemalloc
from pathlib import Path

import numpy as np

REPO_ROOT = Path(__file__).resolve().parent.parent
if str(REPO_ROOT / "src") not in sys.path:
    sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.runner import SuiteSpec, run_suite  # noqa: E402
from repro.similarity.chunked import chunked_mutual_nearest_neighbors  # noqa: E402
from repro.similarity.lisi import lisi_matrix  # noqa: E402
from repro.similarity.matching import greedy_match, mutual_nearest_neighbors  # noqa: E402

JSON_PATH = REPO_ROOT / "BENCH_runner.json"
REPORT_PATH = REPO_ROOT / "benchmarks" / "results" / "bench_runner.txt"

SLEEP_SECONDS = 0.5


def _sleep_resolver(name: str, config) -> object:
    """Stand-in method whose jobs are pure wall-clock (no CPU) — isolates the
    scheduler's concurrency from the machine's core count."""

    class _SleepAligner:
        name = "Sleep"
        requires_supervision = False

        def align(self, pair, train_anchors=None):
            time.sleep(SLEEP_SECONDS)
            n_s, n_t = pair.source.n_nodes, pair.target.n_nodes
            return np.zeros((n_s, n_t))

    return _SleepAligner()


def _real_suite(quick: bool) -> SuiteSpec:
    scale = 0.2 if quick else 0.3
    return SuiteSpec(
        name="bench",
        datasets=[
            "tiny",
            {"name": "econ", "params": {"scale": scale}},
            {"name": "bn", "params": {"scale": scale}},
        ],
        methods=["HTC", "IsoRank", "Degree"],
        config={
            "epochs": 10 if quick else 20,
            "embedding_dim": 16,
            "orbit_cache": "off",
        },
    )


def _run_suite_timed(suite, jobs, resolver=None, executor=None):
    workdir = Path(tempfile.mkdtemp(prefix="bench-runner-"))
    try:
        start = time.perf_counter()
        report = run_suite(
            suite, workdir, jobs=jobs, method_resolver=resolver, executor=executor
        )
        elapsed = time.perf_counter() - start
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return elapsed, report


#: Per-job fields that legitimately differ between executors (timing only);
#: the shm bit-identical gate compares everything else.
_TIMING_FIELDS = {"wall_seconds", "time_seconds", "stage_times"}


def _strip_timing(value):
    if isinstance(value, dict):
        return {
            key: _strip_timing(inner)
            for key, inner in value.items()
            if key not in _TIMING_FIELDS
        }
    if isinstance(value, list):
        return [_strip_timing(inner) for inner in value]
    return value


def _artifacts_identical(left, right) -> bool:
    """Whether two runs' job artifacts match after dropping timing fields."""
    by_id_left = {a["job_id"]: _strip_timing(a) for a in left}
    by_id_right = {a["job_id"]: _strip_timing(a) for a in right}
    return by_id_left == by_id_right


def bench_suite(quick: bool) -> dict:
    """Measurement 1: real-job wall-clock per executor backend."""
    suite = _real_suite(quick)
    n_jobs = len(suite.jobs())
    serial_s, serial_report = _run_suite_timed(suite, jobs=1, executor="serial")
    executors = {
        "serial": {
            "executor": "serial",
            "workers": 1,
            "wall_s": serial_s,
            "speedup_vs_serial": 1.0,
            "all_done": serial_report.counts == {"done": n_jobs},
        }
    }
    shm = None
    for name in ("process-pool", "process-pool-shm"):
        wall_s, report = _run_suite_timed(suite, jobs=4, executor=name)
        executors[name] = {
            "executor": report.executor,
            "workers": 4,
            "wall_s": wall_s,
            "speedup_vs_serial": serial_s / wall_s if wall_s else float("nan"),
            "all_done": report.counts == {"done": n_jobs},
        }
        if name == "process-pool-shm":
            # The zero-copy substrate's section: speedup, the bit-identical
            # gate against serial, and the warm-pool telemetry run_suite
            # aggregated into the manifest.
            detail = report.executor_detail or {}
            shm = {
                "executor": report.executor,
                "workers": 4,
                "cpus": os.cpu_count() or 1,
                "wall_s": wall_s,
                "speedup_vs_serial": executors[name]["speedup_vs_serial"],
                "bit_identical": _artifacts_identical(
                    serial_report.artifacts, report.artifacts
                ),
                "blas_thread_cap": detail.get("blas_thread_cap"),
                "blas_cap_method": detail.get("blas_cap_method"),
                "datasets_staged": detail.get("datasets_staged"),
                "shared_bytes": detail.get("shared_bytes"),
                "dataset_cache": detail.get("dataset_cache"),
            }

    # Four *distinct* jobs (the grid keeps their spec hashes apart) whose
    # work is pure sleeping, so overlap is observable even on one core.
    sleep_suite = SuiteSpec(
        name="bench-sleep",
        datasets=["tiny"],
        methods=["Sleep"],
        grid={"n_neighbors": [5, 6, 7, 8]},
    )
    sleep_serial_s, _ = _run_suite_timed(
        sleep_suite, jobs=1, resolver=_sleep_resolver, executor="serial"
    )
    sleep_parallel_s, sleep_report = _run_suite_timed(
        sleep_suite, jobs=4, resolver=_sleep_resolver, executor="process-pool"
    )
    return {
        "n_jobs": n_jobs,
        "serial_s": serial_s,
        "executors": executors,
        "all_done": all(entry["all_done"] for entry in executors.values()),
        "shm": shm,
        "scheduler_overlap": {
            "executor": sleep_report.executor,
            "n_jobs": 4,
            "sleep_per_job_s": SLEEP_SECONDS,
            "serial_s": sleep_serial_s,
            "parallel4_s": sleep_parallel_s,
            "speedup": sleep_serial_s / sleep_parallel_s,
        },
    }


def _traced_peak(function) -> tuple:
    """(result, peak traced bytes) of ``function()``."""
    tracemalloc.start()
    tracemalloc.reset_peak()
    try:
        result = function()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, peak


def bench_kernel_memory(quick: bool) -> dict:
    """Measurement 2: dense vs chunked LISI → MNN peak memory."""
    n_source, n_target, dim = (1200, 1000, 24) if quick else (3000, 2500, 32)
    rng = np.random.default_rng(0)
    source = rng.standard_normal((n_source, dim))
    target = rng.standard_normal((n_target, dim))

    def dense():
        return mutual_nearest_neighbors(lisi_matrix(source, target, 10))

    def chunked():
        return chunked_mutual_nearest_neighbors(
            source, target, correction="lisi", n_neighbors=10
        )

    start = time.perf_counter()
    dense_pairs, dense_peak = _traced_peak(dense)
    dense_s = time.perf_counter() - start
    start = time.perf_counter()
    chunked_pairs, chunked_peak = _traced_peak(chunked)
    chunked_s = time.perf_counter() - start
    return {
        "shape": [n_source, n_target, dim],
        "dense_peak_mb": dense_peak / 1e6,
        "chunked_peak_mb": chunked_peak / 1e6,
        "memory_ratio": dense_peak / chunked_peak,
        "dense_s": dense_s,
        "chunked_s": chunked_s,
        "identical": dense_pairs == chunked_pairs,
    }


def bench_greedy_memory(quick: bool) -> dict:
    """Measurement 3: old argsort greedy vs new heap greedy."""
    n_source, n_target = (600, 500) if quick else (1500, 1200)
    rng = np.random.default_rng(1)
    scores = rng.standard_normal((n_source, n_target))

    def argsort_greedy():
        # The pre-PR implementation, kept here as the measurement baseline.
        order = np.argsort(scores, axis=None)[::-1]
        used_source = np.zeros(n_source, dtype=bool)
        used_target = np.zeros(n_target, dtype=bool)
        pairs = []
        limit = min(n_source, n_target)
        for flat_index in order:
            i, j = divmod(int(flat_index), n_target)
            if used_source[i] or used_target[j]:
                continue
            pairs.append((i, j))
            used_source[i] = True
            used_target[j] = True
            if len(pairs) == limit:
                break
        return pairs

    start = time.perf_counter()
    old_pairs, old_peak = _traced_peak(argsort_greedy)
    old_s = time.perf_counter() - start
    start = time.perf_counter()
    new_pairs, new_peak = _traced_peak(lambda: greedy_match(scores))
    new_s = time.perf_counter() - start
    return {
        "shape": [n_source, n_target],
        "argsort_peak_mb": old_peak / 1e6,
        "heap_peak_mb": new_peak / 1e6,
        "memory_ratio": old_peak / new_peak,
        "argsort_s": old_s,
        "heap_s": new_s,
        "identical": old_pairs == new_pairs,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true", help="smaller sizes")
    args = parser.parse_args(argv)

    cpus = os.cpu_count() or 1
    suite = bench_suite(args.quick)
    shm = suite.pop("shm")
    kernels = bench_kernel_memory(args.quick)
    greedy = bench_greedy_memory(args.quick)

    overlap = suite["scheduler_overlap"]
    executor_lines = [
        f"    {name:<16} wall {entry['wall_s']:6.2f}s  "
        f"speedup {entry['speedup_vs_serial']:.2f}x  all done: {entry['all_done']}"
        for name, entry in suite["executors"].items()
    ]
    cache = (shm or {}).get("dataset_cache") or {}
    shm_lines = [
        f"    process-pool-shm: bit-identical to serial: {shm['bit_identical']},"
        f" BLAS cap {shm['blas_thread_cap']} thread(s)/worker"
        f" ({shm['blas_cap_method']}),"
        f" {shm['datasets_staged']} dataset(s) / {shm['shared_bytes']} B staged,"
        f" cache hits {cache.get('hits', 0)} / attaches {cache.get('attaches', 0)}",
    ] if shm else []
    lines = [
        f"Suite runner and chunked kernels (cpus={cpus})",
        "",
        f"[1] suite of {suite['n_jobs']} jobs (3 datasets x 3 methods) "
        "per executor backend:",
        *executor_lines,
        *shm_lines,
        f"    scheduler overlap (4 x {overlap['sleep_per_job_s']}s sleep jobs,"
        f" {overlap['executor']}):"
        f" jobs=1 {overlap['serial_s']:.2f}s, jobs=4 {overlap['parallel4_s']:.2f}s"
        f" -> {overlap['speedup']:.2f}x",
        "",
        f"[2] LISI->MNN peak memory, shape {kernels['shape']}:",
        f"    dense {kernels['dense_peak_mb']:.1f} MB vs chunked"
        f" {kernels['chunked_peak_mb']:.1f} MB"
        f"  ({kernels['memory_ratio']:.1f}x less, identical:"
        f" {kernels['identical']})",
        f"    time: dense {kernels['dense_s']:.2f}s, chunked {kernels['chunked_s']:.2f}s",
        "",
        f"[3] greedy_match peak memory, shape {greedy['shape']}:",
        f"    argsort {greedy['argsort_peak_mb']:.1f} MB vs heap"
        f" {greedy['heap_peak_mb']:.3f} MB  ({greedy['memory_ratio']:.0f}x less,"
        f" identical: {greedy['identical']})",
        f"    time: argsort {greedy['argsort_s']:.2f}s, heap {greedy['heap_s']:.2f}s",
    ]
    text = "\n".join(lines)
    print(text)

    payload = {
        "benchmark": "suite_runner_and_chunked_kernels",
        "command": "python benchmarks/bench_runner.py"
        + (" --quick" if args.quick else ""),
        "cpus": cpus,
        "suite": suite,
        "shm": shm,
        "kernel_memory": kernels,
        "greedy_memory": greedy,
    }
    JSON_PATH.write_text(json.dumps(payload, indent=2) + "\n")
    REPORT_PATH.parent.mkdir(parents=True, exist_ok=True)
    REPORT_PATH.write_text(text + "\n")
    print(f"\n[written to {JSON_PATH} and {REPORT_PATH}]")

    ok = (
        suite["all_done"]
        and kernels["identical"]
        and greedy["identical"]
        and (shm is None or shm["bit_identical"])
    )
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
