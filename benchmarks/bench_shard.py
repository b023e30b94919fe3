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
4. **Stitch-phase memory.**  ``tracemalloc`` peak of the in-memory
   :func:`~repro.shard.stitch.stitch_alignments` merge (all shard
   candidates concatenated at once) against the out-of-core
   :func:`~repro.shard.streaming.stitch_alignments_streaming` merge over
   the same per-shard serve indexes; the acceptance bar is a streaming
   peak below the size of the materialised global top-k index, with a
   bit-identical result.

Results land in ``BENCH_shard.json`` at the repo root plus a readable table
under ``benchmarks/results/``.

Run with::

    python benchmarks/bench_shard.py            # ~4k-node pair
    python benchmarks/bench_shard.py --quick    # ~1k-node pair, CI-friendly
"""

from __future__ import annotations

import argparse
import json
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

from repro.core import HTCAligner, HTCConfig  # noqa: E402
from repro.datasets.synthetic import tiny_pair  # noqa: E402
from repro.serve.index import SparseTopKIndex, build_index  # noqa: E402
from repro.shard import (  # noqa: E402
    align_sharded,
    build_shard_plan,
    stitch_alignments,
    stitch_alignments_streaming,
)

JSON_PATH = REPO_ROOT / "BENCH_shard.json"
REPORT_PATH = REPO_ROOT / "benchmarks" / "results" / "bench_shard.txt"

SHARD_COUNT = 4
SHARD_OVERLAP = 1
INDEX_K = 10

# Stitch-phase (measurement 4) workload: sized so the materialised global
# index dwarfs the streaming merge's constant working set (see
# ``bench_stitch_phase``); 16 shards keep the overlap multiplicity low.
STITCH_NODES_QUICK = 6000
STITCH_NODES_FULL = 8000
STITCH_SHARDS = 16
STITCH_K = 48
STITCH_ROW_WINDOW = 64

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
        orbit_backend="auto",
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


def bench_stitch_phase(quick: bool) -> dict:
    """Measurement 4: in-memory vs streaming stitch-phase peak memory.

    Both paths merge the same per-shard scores (synthetic matrices — the
    stitch is score-agnostic) into the same global top-k index.  The
    matrices are allocated *before* tracing starts, so each peak covers
    only the merge's own working set: the in-memory path concatenates
    every shard's candidate triples at once, while the streaming path
    reloads one spilled shard index at a time and merges window by window
    into memmap-backed outputs.

    The workload is sized independently of the alignment measurements:
    the streaming working set is bounded by ``row_window × k × shard
    membership`` (hub rows sit in many overlap rings), a constant in the
    node count, so a pair large enough to dominate fixed costs is needed
    before "peak below the materialised index size" is observable.
    """
    n_nodes = STITCH_NODES_QUICK if quick else STITCH_NODES_FULL
    pair = tiny_pair(n_nodes=n_nodes, random_state=0)
    plan = build_shard_plan(pair, STITCH_SHARDS, overlap=SHARD_OVERLAP)
    n_source, n_target = pair.source.n_nodes, pair.target.n_nodes
    matrices = []
    for shard_pair in plan.pairs:
        rng = np.random.default_rng(1000 + shard_pair.index)
        matrices.append(
            rng.standard_normal(
                (shard_pair.source_nodes.size, shard_pair.target_nodes.size)
            ).astype(np.float32)
        )

    stitched_memory, in_memory_peak_mb, memory_s = _measure(
        "stitch (in-memory)",
        lambda: stitch_alignments(plan, matrices, n_source, n_target, k=STITCH_K),
    )
    index_mb = stitched_memory.index.nbytes / 1e6

    # Spill per-shard serve indexes to disk first; the streaming stitch then
    # pulls them back one at a time through lazy callables, so at most one
    # shard index is resident at any point of the merge.
    spool = Path(tempfile.mkdtemp(prefix="bench-stitch-"))
    try:
        spilled = []
        for shard_pair, matrix in zip(plan.pairs, matrices):
            index = build_index(matrix, k=STITCH_K, reverse_k=STITCH_K)
            path = spool / f"shard_{shard_pair.index:03d}.npz"
            np.savez(path, **index.array_payload())
            spilled.append((path, index.meta_payload()))
        matrices.clear()

        def loader(path, meta):
            def load():
                with np.load(path) as data:
                    arrays = {name: data[name] for name in data.files}
                return SparseTopKIndex.from_payload(arrays, meta)

            return load

        sources = [loader(path, meta) for path, meta in spilled]
        stitched_streaming, streaming_peak_mb, streaming_s = _measure(
            "stitch (streaming)",
            lambda: stitch_alignments_streaming(
                plan,
                sources,
                n_source,
                n_target,
                k=STITCH_K,
                workdir=spool / "stream",
                row_window=STITCH_ROW_WINDOW,
            ),
        )
        mem_index = stitched_memory.index
        stream_index = stitched_streaming.index
        identical = (
            np.array_equal(mem_index.indices, stream_index.indices)
            and np.array_equal(mem_index.scores, stream_index.scores)
            and np.array_equal(mem_index.reverse_indices, stream_index.reverse_indices)
            and np.array_equal(mem_index.reverse_scores, stream_index.reverse_scores)
        )
        sources_all = np.arange(n_source)
        p1_memory = precision_at_1(stitched_memory.match(sources_all), pair.ground_truth)
        p1_streaming = precision_at_1(
            stitched_streaming.match(sources_all), pair.ground_truth
        )
        del stitched_streaming, stream_index
    finally:
        shutil.rmtree(spool, ignore_errors=True)

    return {
        "n_nodes": n_nodes,
        "n_shards": len(plan.pairs),
        "index_k": STITCH_K,
        "row_window": STITCH_ROW_WINDOW,
        "index_mb": index_mb,
        "in_memory_peak_mb": in_memory_peak_mb,
        "streaming_peak_mb": streaming_peak_mb,
        "memory_ratio": in_memory_peak_mb / streaming_peak_mb,
        "streaming_below_index": streaming_peak_mb < index_mb,
        "in_memory_s": memory_s,
        "streaming_s": streaming_s,
        "p_at_1_in_memory": p1_memory,
        "p_at_1_streaming": p1_streaming,
        "identical": identical and p1_memory == p1_streaming,
    }


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
            index_k=INDEX_K,
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

    stitch = bench_stitch_phase(args.quick)

    lines = [
        "Partition-align-stitch vs single-shot alignment",
        "=" * 52,
        "",
        f"pair: {n_nodes} nodes/side, {args.shards} shards "
        f"(overlap {SHARD_OVERLAP} hop), index k={INDEX_K}",
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
        "",
        "[4] stitch phase: in-memory vs streaming merge (tracemalloc,"
        f" {stitch['n_nodes']} nodes/side, {stitch['n_shards']} shards,"
        f" k={stitch['index_k']}, row window {stitch['row_window']}):",
        f"    global index size {stitch['index_mb']:8.1f} MB",
        f"    in-memory peak    {stitch['in_memory_peak_mb']:8.1f} MB",
        f"    streaming peak    {stitch['streaming_peak_mb']:8.1f} MB  "
        f"({stitch['memory_ratio']:.1f}x smaller, below index size: "
        f"{stitch['streaming_below_index']})",
        f"    identical result: {stitch['identical']} "
        f"(p@1 {stitch['p_at_1_streaming']:.4f} both paths)",
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
        "index_k": INDEX_K,
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
        "stitch_phase": stitch,
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

    ok = (
        within_tolerance
        and memory_ratio > 1.0
        and stitch["streaming_below_index"]
        and stitch["identical"]
    )
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
