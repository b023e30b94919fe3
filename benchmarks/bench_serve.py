"""Benchmark: serve artifacts — index compression and query throughput.

Three measurements back the ``repro.serve`` subsystem:

1. **Index size vs dense matrix.**  Resident bytes of the sparse top-k
   index (forward + reverse arrays) against the ``(n_s, n_t)`` float64
   matrix it replaces, plus the on-disk artifact size.  The acceptance bar
   is a >=10x memory reduction at n >= 1500.
2. **Query throughput.**  Queries/second through a loaded
   :class:`~repro.serve.service.AlignmentService` (serve mode — only the
   index in memory) for single-node and batched ``match`` / ``top_k``
   queries.
3. **Parity.**  Every sampled query is checked bit-identical against the
   dense matrix answers (``argmax`` / ``top_k_indices``).

Results land in ``BENCH_serve.json`` at the repo root plus a readable table
under ``benchmarks/results/``.

Run with::

    python benchmarks/bench_serve.py            # full size (n=2000)
    python benchmarks/bench_serve.py --quick    # smaller, CI-friendly
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

REPO_ROOT = Path(__file__).resolve().parent.parent
if str(REPO_ROOT / "src") not in sys.path:
    sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.core.result import AlignmentResult  # noqa: E402
from repro.serve import AlignmentService, load_artifact, save_artifact  # noqa: E402
from repro.similarity.matching import top_k_indices  # noqa: E402

JSON_PATH = REPO_ROOT / "BENCH_serve.json"
REPORT_PATH = REPO_ROOT / "benchmarks" / "results" / "bench_serve.txt"

INDEX_K = 10
QUERY_K = 5
N_SINGLE = 2000
N_BATCHED = 100
BATCH = 64


def make_matrix(n_s: int, n_t: int, seed: int = 0) -> np.ndarray:
    """A dense score matrix with hub structure (some columns dominate)."""
    rng = np.random.default_rng(seed)
    scores = rng.standard_normal((n_s, n_t))
    hubs = rng.choice(n_t, size=max(1, n_t // 50), replace=False)
    scores[:, hubs] += 1.5
    return scores


def bench_compression(matrix: np.ndarray, store: Path) -> dict:
    started = time.perf_counter()
    info = save_artifact(
        AlignmentResult(alignment_matrix=matrix),
        root=store,
        name="bench",
        index_k=INDEX_K,
    )
    save_s = time.perf_counter() - started

    started = time.perf_counter()
    artifact = load_artifact(store, info.artifact_id, mode="serve")
    load_s = time.perf_counter() - started

    index = artifact.index
    return {
        "artifact_id": info.artifact_id,
        "shape": [int(matrix.shape[0]), int(matrix.shape[1])],
        "index_k": INDEX_K,
        "dense_bytes": index.dense_nbytes,
        "index_bytes": index.nbytes,
        "memory_ratio": index.dense_nbytes / index.nbytes,
        "disk_bytes": info.disk_bytes,
        "save_s": save_s,
        "serve_load_s": load_s,
    }


def bench_queries(service: AlignmentService, aid: str, n_s: int) -> dict:
    rng = np.random.default_rng(1)
    timings = {}

    single_nodes = rng.permutation(n_s)[: min(N_SINGLE, n_s)]
    started = time.perf_counter()
    for node in single_nodes:
        service.match(aid, int(node))
    timings["match_single_qps"] = len(single_nodes) / (
        time.perf_counter() - started
    )

    batches = [rng.integers(0, n_s, size=BATCH) for _ in range(N_BATCHED)]
    started = time.perf_counter()
    for nodes in batches:
        service.match(aid, nodes)
    timings["match_batch_qps"] = N_BATCHED * BATCH / (time.perf_counter() - started)
    started = time.perf_counter()
    for nodes in batches:
        service.top_k(aid, nodes, QUERY_K)
    timings["topk_batch_qps"] = N_BATCHED * BATCH / (time.perf_counter() - started)
    return timings


def check_parity(
    service: AlignmentService, aid: str, matrix: np.ndarray, n_checks: int = 1000
) -> bool:
    rng = np.random.default_rng(2)
    rows = rng.integers(0, matrix.shape[0], size=n_checks)
    cols = rng.integers(0, matrix.shape[1], size=n_checks)
    ok = np.array_equal(service.match(aid, rows), matrix.argmax(axis=1)[rows])
    ok &= np.array_equal(
        service.top_k(aid, rows, QUERY_K), top_k_indices(matrix, QUERY_K)[rows]
    )
    ok &= np.array_equal(
        service.reverse_match(aid, cols), matrix.argmax(axis=0)[cols]
    )
    return bool(ok)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quick", action="store_true", help="smaller sizes")
    args = parser.parse_args(argv)

    n_s, n_t = (1500, 1500) if args.quick else (2000, 1600)
    matrix = make_matrix(n_s, n_t)

    store = Path(tempfile.mkdtemp(prefix="bench_serve_"))
    try:
        compression = bench_compression(matrix, store)
        service = AlignmentService()
        aid = service.load(store, compression["artifact_id"], mode="serve")
        parity = check_parity(service, aid, matrix)
        service.reset_stats()
        queries = bench_queries(service, aid, n_s)
        stats = service.stats()
    finally:
        shutil.rmtree(store, ignore_errors=True)

    lines = [
        "Serve artifacts: compression and query throughput",
        "=" * 52,
        "",
        f"[1] sparse top-{INDEX_K} index vs dense {n_s}x{n_t} float64 matrix:",
        f"    dense  {compression['dense_bytes'] / 1e6:8.2f} MB",
        f"    index  {compression['index_bytes'] / 1e6:8.2f} MB"
        f"  ({compression['memory_ratio']:.1f}x smaller)",
        f"    disk   {compression['disk_bytes'] / 1e6:8.2f} MB (npz, full artifact)",
        f"    save {compression['save_s']:.2f}s,"
        f" serve-mode load {compression['serve_load_s']:.3f}s",
        "",
        f"[2] query throughput (k={QUERY_K}):",
        f"    match, single node:  {queries['match_single_qps']:10.0f} q/s",
        f"    match, batches of {BATCH}: {queries['match_batch_qps']:10.0f} q/s",
        f"    top-k, batches of {BATCH}: {queries['topk_batch_qps']:10.0f} q/s",
        "",
        f"[3] parity with dense argmax/top-k over 1000 sampled nodes: {parity}",
    ]
    text = "\n".join(lines)
    print(text)

    payload = {
        "benchmark": "serve_artifacts_and_query_service",
        "command": "python benchmarks/bench_serve.py"
        + (" --quick" if args.quick else ""),
        "compression": compression,
        "queries_per_second": queries,
        "service_stats": {"queries": stats["queries"]},
        "parity_with_dense": parity,
    }
    JSON_PATH.write_text(json.dumps(payload, indent=2) + "\n")
    REPORT_PATH.parent.mkdir(parents=True, exist_ok=True)
    REPORT_PATH.write_text(text + "\n")
    print(f"\n[written to {JSON_PATH} and {REPORT_PATH}]")

    return 0 if parity and compression["memory_ratio"] >= 10.0 else 1


if __name__ == "__main__":
    sys.exit(main())
