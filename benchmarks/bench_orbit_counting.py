"""Micro-benchmark: orbit-counting backends across graph sizes.

Times the ``python`` (reference) and ``numpy`` (vectorized) backends of the
orbit engine — edge orbits, node orbits, and a warm-cache pass — on ER and
power-law synthetic graphs of increasing size, verifies the backends stay
bit-identical, and records the results in ``BENCH_orbits.json`` at the repo
root (plus a readable table under ``benchmarks/results/``).  This file is the
perf trajectory for the counting stage: future PRs should not regress the
recorded speedups.

Run with::

    python benchmarks/bench_orbit_counting.py            # full sweep
    python benchmarks/bench_orbit_counting.py --quick    # small graphs only
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

import numpy as np

REPO_ROOT = Path(__file__).resolve().parent.parent
if str(REPO_ROOT / "src") not in sys.path:
    sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.graph.generators import erdos_renyi_graph, powerlaw_cluster_graph  # noqa: E402
from repro.orbits import engine  # noqa: E402
from repro.orbits.cache import OrbitCache  # noqa: E402

#: (name, factory) per benchmark graph.
GRAPH_SPECS = (
    ("er_small", lambda: erdos_renyi_graph(150, 6.0, random_state=0)),
    ("er_2k_edges", lambda: erdos_renyi_graph(500, 8.0, random_state=7)),
    ("er_large", lambda: erdos_renyi_graph(1200, 10.0, random_state=1)),
    ("powerlaw_2k_edges", lambda: powerlaw_cluster_graph(700, 3, 0.5, random_state=2)),
)
QUICK_SPECS = GRAPH_SPECS[:2]

JSON_PATH = REPO_ROOT / "BENCH_orbits.json"
REPORT_PATH = REPO_ROOT / "benchmarks" / "results" / "bench_orbit_counting.txt"


def _time(function, repeats: int) -> float:
    """Best-of-``repeats`` wall-clock seconds for ``function()``."""
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        function()
        best = min(best, time.perf_counter() - start)
    return best


def bench_graph(name: str, factory, repeats: int) -> dict:
    """Benchmark both backends (and the cache) on one graph."""
    graph = factory()
    record = {"graph": name, "n_nodes": graph.n_nodes, "n_edges": graph.n_edges}

    timings = {}
    for backend in ("python", "numpy"):
        timings[backend] = {
            "edge_s": _time(lambda: engine.count_edge_orbits(graph, backend=backend),
                            repeats if backend == "numpy" else 1),
            "node_s": _time(lambda: engine.count_node_orbits(graph, backend=backend),
                            repeats if backend == "numpy" else 1),
        }
        timings[backend]["total_s"] = (
            timings[backend]["edge_s"] + timings[backend]["node_s"]
        )
    record["backends"] = timings
    record["speedup_edge"] = timings["python"]["edge_s"] / timings["numpy"]["edge_s"]
    record["speedup_node"] = timings["python"]["node_s"] / timings["numpy"]["node_s"]
    record["speedup_total"] = timings["python"]["total_s"] / timings["numpy"]["total_s"]

    # Warm-cache pass: the second lookup must skip counting entirely.
    cache = OrbitCache()
    engine.count_edge_orbits(graph, cache=cache)
    record["cached_edge_s"] = _time(
        lambda: engine.count_edge_orbits(graph, cache=cache), repeats
    )
    assert cache.stats()["hits"] >= 1

    reference = engine.count_edge_orbits(graph, backend="python")
    fast = engine.count_edge_orbits(graph, backend="numpy")
    record["identical"] = bool(
        reference.edges == fast.edges
        and np.array_equal(reference.counts, fast.counts)
        and np.array_equal(
            engine.count_node_orbits(graph, backend="python"),
            engine.count_node_orbits(graph, backend="numpy"),
        )
    )

    return record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true", help="small graphs only")
    parser.add_argument("--repeats", type=int, default=3, help="best-of repeats")
    args = parser.parse_args(argv)

    if "numpy" not in engine.available_backends():
        print(
            "vectorized backend unavailable (needs numpy >= 2.0 for "
            "np.bitwise_count); nothing to compare",
            file=sys.stderr,
        )
        return 0

    specs = QUICK_SPECS if args.quick else GRAPH_SPECS
    records = []
    lines = [
        "Orbit-counting backends (best-of-%d, seconds)" % args.repeats,
        f"{'graph':<20}{'nodes':>7}{'edges':>7}{'python':>10}{'numpy':>10}"
        f"{'speedup':>9}{'identical':>11}",
    ]
    for name, factory in specs:
        record = bench_graph(name, factory, args.repeats)
        records.append(record)
        lines.append(
            f"{record['graph']:<20}{record['n_nodes']:>7}{record['n_edges']:>7}"
            f"{record['backends']['python']['total_s']:>10.3f}"
            f"{record['backends']['numpy']['total_s']:>10.3f}"
            f"{record['speedup_total']:>8.1f}x"
            f"{str(record['identical']):>11}"
        )
        print(lines[-1])

    payload = {
        "benchmark": "orbit_counting_backends",
        "command": "python benchmarks/bench_orbit_counting.py"
        + (" --quick" if args.quick else ""),
        "repeats": args.repeats,
        "results": records,
    }
    JSON_PATH.write_text(json.dumps(payload, indent=2) + "\n")
    REPORT_PATH.parent.mkdir(parents=True, exist_ok=True)
    REPORT_PATH.write_text("\n".join(lines) + "\n")
    print(f"\n[written to {JSON_PATH} and {REPORT_PATH}]")

    failures = [r["graph"] for r in records if not r["identical"]]
    if failures:
        print(f"BACKEND MISMATCH on: {failures}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
