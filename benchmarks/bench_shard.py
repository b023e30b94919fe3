"""Benchmark: partition–align–stitch vs single-shot alignment.

Three measurements back the ``repro.shard`` subsystem:

1. **Peak memory.**  ``tracemalloc`` peak of a full sharded alignment
   (partition + per-shard HTC jobs + stitch + refine) against the
   single-shot ``HTCAligner.align`` on the same pair.  Sharding bounds the
   quadratic scoring/refinement stages by the shard size, so the peak drops
   roughly with the square of the shard count.
2. **Wall clock.**  End-to-end seconds for both paths (shard jobs run
   serially, so the ratio is algorithmic — smaller quadratic stages
   against per-shard overheads — not parallelism).
3. **Accuracy.**  p@1 of the stitched sparse alignment against the
   single-shot dense matrix; the acceptance bar is a drop of at most
   ``P1_TOLERANCE``.

Results land in ``BENCH_shard.json`` at the repo root plus a readable table
under ``benchmarks/results/``.

Run with::

    python benchmarks/bench_shard.py            # ~4k-node pair
    python benchmarks/bench_shard.py --quick    # ~1k-node pair, CI-friendly
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

from repro.core import HTCAligner, HTCConfig  # noqa: E402
from repro.datasets.synthetic import tiny_pair  # noqa: E402
from repro.serve.index import DEFAULT_INDEX_K  # noqa: E402
from repro.shard import align_sharded  # noqa: E402

JSON_PATH = REPO_ROOT / "BENCH_shard.json"
REPORT_PATH = REPO_ROOT / "benchmarks" / "results" / "bench_shard.txt"

SHARD_COUNT = 4
SHARD_OVERLAP = 1

#: Maximum tolerated p@1 drop of sharded vs single-shot (documented in the
#: README "Scaling" section; the bench fails if it is exceeded).
P1_TOLERANCE = 0.10


def make_config() -> HTCConfig:
    """A reduced HTC config sized so the single-shot baseline stays runnable.

    The knobs only shrink the constant factors (orbits, epochs, refinement
    iterations); both paths share the exact same config, so the comparison
    is apples to apples.
    """
    return HTCConfig(
        embedding_dim=16,
        n_layers=2,
        epochs=5,
        orbits=range(4),
        n_neighbors=10,
        max_refinement_iterations=2,
        orbit_cache="off",  # no cross-run reuse: each path pays its own way
        random_state=0,
    )


def _measure(label: str, fn):
    """(result, peak_mb, seconds) of ``fn()`` under tracemalloc."""
    tracemalloc.start()
    started = time.perf_counter()
    result = fn()
    seconds = time.perf_counter() - started
    _, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    print(f"  {label}: {seconds:.1f}s, peak {peak / 1e6:.1f} MB")
    return result, peak / 1e6, seconds


def precision_at_1(predictions: np.ndarray, ground_truth: np.ndarray) -> float:
    mask = ground_truth >= 0
    return float((predictions[mask] == ground_truth[mask]).mean())


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true", help="smaller pair")
    parser.add_argument("--shards", type=int, default=SHARD_COUNT, help="shard count")
    args = parser.parse_args(argv)

    n_nodes = 1000 if args.quick else 4000
    pair = tiny_pair(n_nodes=n_nodes, random_state=0)
    config = make_config()
    print(
        f"pair: {pair.source.n_nodes}+{pair.target.n_nodes} nodes, "
        f"{pair.source.n_edges}+{pair.target.n_edges} edges, "
        f"{args.shards} shards"
    )

    single_result, single_peak_mb, single_s = _measure(
        "single-shot", lambda: HTCAligner(config).align(pair)
    )
    single_p1 = precision_at_1(
        single_result.alignment_matrix.argmax(axis=1), pair.ground_truth
    )
    del single_result

    stitched, sharded_peak_mb, sharded_s = _measure(
        "sharded",
        lambda: align_sharded(
            pair,
            config,
            shard_count=args.shards,
            shard_overlap=SHARD_OVERLAP,
            refine_iterations=3,
        ),
    )
    sharded_p1 = precision_at_1(
        stitched.match(np.arange(pair.source.n_nodes)), pair.ground_truth
    )

    memory_ratio = single_peak_mb / sharded_peak_mb
    speedup = single_s / sharded_s
    p1_drop = single_p1 - sharded_p1
    within_tolerance = p1_drop <= P1_TOLERANCE

    lines = [
        "Partition-align-stitch vs single-shot alignment",
        "=" * 52,
        "",
        f"pair: {n_nodes} nodes/side, {args.shards} shards "
        f"(overlap {SHARD_OVERLAP} hop), index k={DEFAULT_INDEX_K}",
        "",
        "[1] peak memory (tracemalloc):",
        f"    single-shot {single_peak_mb:8.1f} MB",
        f"    sharded     {sharded_peak_mb:8.1f} MB  ({memory_ratio:.1f}x smaller)",
        "",
        "[2] wall clock:",
        f"    single-shot {single_s:8.1f} s",
        f"    sharded     {sharded_s:8.1f} s  ({speedup:.1f}x faster)",
        "    sharded stages: "
        + ", ".join(f"{k} {v:.1f}s" for k, v in stitched.stage_times.items()),
        "",
        "[3] accuracy (p@1 on ground truth):",
        f"    single-shot {single_p1:.4f}",
        f"    sharded     {sharded_p1:.4f}  "
        f"(drop {p1_drop:+.4f}, tolerance {P1_TOLERANCE})",
        f"    conflicts resolved: {stitched.conflicts_resolved}, "
        f"multi-shard sources: {stitched.multi_shard_sources}",
    ]
    text = "\n".join(lines)
    print("\n" + text)

    payload = {
        "benchmark": "partition_align_stitch",
        "command": "python benchmarks/bench_shard.py"
        + (" --quick" if args.quick else ""),
        "n_nodes": n_nodes,
        "shard_count": args.shards,
        "shard_overlap": SHARD_OVERLAP,
        "index_k": DEFAULT_INDEX_K,
        "single_shot": {
            "peak_mb": single_peak_mb,
            "wall_s": single_s,
            "p_at_1": single_p1,
        },
        "sharded": {
            "peak_mb": sharded_peak_mb,
            "wall_s": sharded_s,
            "p_at_1": sharded_p1,
            "stage_times": {k: round(v, 3) for k, v in stitched.stage_times.items()},
            "conflicts_resolved": stitched.conflicts_resolved,
            "multi_shard_sources": stitched.multi_shard_sources,
        },
        "memory_ratio": memory_ratio,
        "speedup": speedup,
        "p1_drop": p1_drop,
        "p1_tolerance": P1_TOLERANCE,
        "within_tolerance": within_tolerance,
    }
    JSON_PATH.write_text(json.dumps(payload, indent=2) + "\n")
    REPORT_PATH.parent.mkdir(parents=True, exist_ok=True)
    REPORT_PATH.write_text(text + "\n")
    print(f"\n[written to {JSON_PATH} and {REPORT_PATH}]")

    ok = within_tolerance and memory_ratio > 1.0
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
