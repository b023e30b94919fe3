"""Benchmark: precision policies — float32 vs float64 hot paths.

Backs the ``repro.backend`` precision layer with four measurements:

1. **Bit-identity of the float64 policy.**  Every scoring kernel called
   with an explicit ``policy="float64"`` must return exactly the bytes of
   the policy-less call (the refactor must not perturb the exact path).
2. **Peak scoring memory.**  ``tracemalloc``-traced peaks of the full
   LISI scoring + top-k pipeline under each policy; the acceptance floor
   is a >= 1.8x reduction for float32.
3. **GEMM throughput.**  Repeated Pearson GEMMs under each policy; float32
   must show a measurable speedup on the BLAS build in use.
4. **Accuracy.**  p@1 on a seeded well-separated pair under both policies
   (tolerance: |Δ p@1| <= 0.02), argmax agreement, max elementwise error,
   and top-k prefix overlap — the documented float32 envelope.

Results land in ``BENCH_precision.json`` at the repo root plus a readable
table under ``benchmarks/results/``; CI re-runs ``--quick`` and gates on
the JSON via ``benchmarks/check_regression.py``.

Run with::

    python benchmarks/bench_precision.py            # full size
    python benchmarks/bench_precision.py --quick    # smaller, CI-friendly
"""

from __future__ import annotations

import argparse
import json
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np

REPO_ROOT = Path(__file__).resolve().parent.parent
if str(REPO_ROOT / "src") not in sys.path:
    sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.serve.index import build_index_from_embeddings  # noqa: E402
from repro.similarity import (  # noqa: E402
    hubness_degrees,
    lisi_matrix,
    pearson_similarity,
    top_k_indices,
)
from repro.similarity.chunked import _apply_hubness_correction  # noqa: E402

JSON_PATH = REPO_ROOT / "BENCH_precision.json"
REPORT_PATH = REPO_ROOT / "benchmarks" / "results" / "bench_precision.txt"

#: Documented float32 accuracy envelope on p@1.
P_AT_1_TOLERANCE = 0.02

TOP_K = 10


def make_pair(n_source: int, n_target: int, dim: int, seed: int = 0):
    """A well-separated pair whose ground truth is the identity prefix."""
    rng = np.random.default_rng(seed)
    base = rng.standard_normal((max(n_source, n_target), dim))
    source = base[:n_source] + 0.05 * rng.standard_normal((n_source, dim))
    target = base[:n_target] + 0.05 * rng.standard_normal((n_target, dim))
    return source, target


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


def bench_bit_identity(source, target) -> bool:
    """Measurement 1: explicit float64 policy == historical kernels.

    The third check compares the block-built LISI matrix with the dense
    route it replaced (Pearson → hubness degrees → correction).
    """
    similarity = pearson_similarity(source, target)
    checks = [
        np.array_equal(
            pearson_similarity(source, target),
            pearson_similarity(source, target, policy="float64"),
        ),
        np.array_equal(
            lisi_matrix(source, target, n_neighbors=10),
            lisi_matrix(source, target, n_neighbors=10, policy="float64"),
        ),
        np.array_equal(
            lisi_matrix(source, target, n_neighbors=10, policy="float64"),
            _apply_hubness_correction(
                similarity, *hubness_degrees(similarity, 10)
            ),
        ),
    ]
    return all(checks)


def bench_memory(source, target) -> dict:
    """Measurement 2: peak traced memory of the scoring stage per policy.

    The gated ratio covers the scoring kernel itself (the LISI matrix the
    refinement loop recomputes every iteration — the aligner's largest
    scoring allocation).  Its block height does not depend on the dtype,
    so the ratio stays about 2.  The serve-index build is reported as a secondary
    ungated ratio: its ``intp`` index arrays and argsort temporaries are
    dtype-independent, so its reduction is structurally smaller.
    """
    scores64, peak64 = _traced_peak(
        lambda: lisi_matrix(source, target, n_neighbors=10, policy="float64")
    )
    scores32, peak32 = _traced_peak(
        lambda: lisi_matrix(source, target, n_neighbors=10, policy="float32")
    )

    def index_build(policy):
        return lambda: build_index_from_embeddings(
            source, target, k=TOP_K, correction="lisi", policy=policy,
        )

    index64, index_peak64 = _traced_peak(index_build("float64"))
    index32, index_peak32 = _traced_peak(index_build("float32"))
    return {
        "shape": [int(source.shape[0]), int(target.shape[0]), int(source.shape[1])],
        "float64_peak_mb": peak64 / 1e6,
        "float32_peak_mb": peak32 / 1e6,
        "memory_ratio": peak64 / peak32,
        "max_abs_error": float(np.abs(scores64 - scores32).max()),
        "serve_index": {
            "float64_peak_mb": index_peak64 / 1e6,
            "float32_peak_mb": index_peak32 / 1e6,
            "memory_ratio": index_peak64 / index_peak32,
            "stored_bytes_ratio": index64.nbytes / index32.nbytes,
        },
    }


def bench_gemm(source, target, repeats: int) -> dict:
    """Measurement 3: repeated Pearson GEMMs per policy."""
    timings = {}
    for policy in ("float64", "float32"):
        out = pearson_similarity(source, target, policy=policy)  # warm-up
        started = time.perf_counter()
        for _ in range(repeats):
            pearson_similarity(source, target, out=out, policy=policy)
        timings[policy] = (time.perf_counter() - started) / repeats
    return {
        "repeats": repeats,
        "float64_s": timings["float64"],
        "float32_s": timings["float32"],
        "speedup": timings["float64"] / timings["float32"],
    }


def bench_accuracy(source, target) -> dict:
    """Measurement 4: p@1 / top-k agreement between the policies."""
    scores64 = lisi_matrix(source, target, n_neighbors=10)
    scores32 = lisi_matrix(source, target, n_neighbors=10, policy="float32")
    truth = np.arange(source.shape[0])
    match64 = scores64.argmax(axis=1)
    match32 = scores32.argmax(axis=1)
    p1_64 = float((match64 == truth).mean())
    p1_32 = float((match32 == truth).mean())
    top64 = top_k_indices(scores64, TOP_K)
    top32 = top_k_indices(scores32, TOP_K)
    overlap = float(
        np.mean(
            [
                len(np.intersect1d(top64[i], top32[i])) / TOP_K
                for i in range(top64.shape[0])
            ]
        )
    )
    delta = abs(p1_64 - p1_32)
    return {
        "p_at_1_float64": p1_64,
        "p_at_1_float32": p1_32,
        "p_at_1_delta": delta,
        "tolerance": P_AT_1_TOLERANCE,
        "within_tolerance": bool(delta <= P_AT_1_TOLERANCE),
        "argmax_agreement": float((match64 == match32).mean()),
        "top_k_overlap": overlap,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true", help="smaller sizes")
    args = parser.parse_args(argv)

    n_source, n_target, dim = (1200, 1000, 48) if args.quick else (3000, 2500, 64)
    repeats = 5 if args.quick else 10
    source, target = make_pair(n_source, n_target, dim)

    identical = bench_bit_identity(source, target)
    memory = bench_memory(source, target)
    gemm = bench_gemm(source, target, repeats)
    accuracy = bench_accuracy(source, target)

    lines = [
        f"Precision policies, shape {memory['shape']}",
        "",
        f"[1] float64 policy bit-identical to historical kernels: {identical}",
        "",
        "[2] peak scoring memory (LISI):",
        f"    float64 {memory['float64_peak_mb']:.1f} MB vs float32"
        f" {memory['float32_peak_mb']:.1f} MB"
        f"  ({memory['memory_ratio']:.2f}x less)",
        f"    max |error| {memory['max_abs_error']:.2e}",
        f"    serve-index build: {memory['serve_index']['float64_peak_mb']:.1f} MB"
        f" vs {memory['serve_index']['float32_peak_mb']:.1f} MB"
        f" ({memory['serve_index']['memory_ratio']:.2f}x), stored arrays"
        f" {memory['serve_index']['stored_bytes_ratio']:.2f}x smaller",
        "",
        f"[3] Pearson GEMM ({gemm['repeats']} repeats):",
        f"    float64 {gemm['float64_s'] * 1000:.1f} ms vs float32"
        f" {gemm['float32_s'] * 1000:.1f} ms  ({gemm['speedup']:.2f}x faster)",
        "",
        "[4] accuracy:",
        f"    p@1 float64 {accuracy['p_at_1_float64']:.4f} vs float32"
        f" {accuracy['p_at_1_float32']:.4f}"
        f"  (delta {accuracy['p_at_1_delta']:.4f} <= {P_AT_1_TOLERANCE}:"
        f" {accuracy['within_tolerance']})",
        f"    argmax agreement {accuracy['argmax_agreement']:.4f},"
        f" top-{TOP_K} overlap {accuracy['top_k_overlap']:.4f}",
    ]
    text = "\n".join(lines)
    print(text)

    payload = {
        "benchmark": "precision_policies",
        "command": "python benchmarks/bench_precision.py"
        + (" --quick" if args.quick else ""),
        "float64_bit_identical": identical,
        "memory": memory,
        "gemm": gemm,
        "accuracy": accuracy,
    }
    JSON_PATH.write_text(json.dumps(payload, indent=2) + "\n")
    REPORT_PATH.parent.mkdir(parents=True, exist_ok=True)
    REPORT_PATH.write_text(text + "\n")
    print(f"\n[written to {JSON_PATH} and {REPORT_PATH}]")

    ok = identical and accuracy["within_tolerance"] and memory["memory_ratio"] >= 1.8
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
