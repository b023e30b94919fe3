"""Micro-benchmark: the orbit counters across graph sizes.

Times the pure-Python reference counters (:mod:`repro.orbits.edge_orbits`,
:mod:`repro.orbits.node_orbits`; recorded as ``python``) and the vectorized
counters the engine runs (:mod:`repro.orbits.vectorized`; recorded as
``numpy``) — edge orbits, node orbits, and a warm engine-cache pass — on ER
and power-law synthetic graphs of increasing size, verifies the two stay
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
from repro.orbits import edge_orbits, engine, node_orbits, vectorized  # noqa: E402
from repro.orbits.cache import OrbitCache  # noqa: E402

#: (name, factory) per benchmark graph.
GRAPH_SPECS = (
    ("er_small", lambda: erdos_renyi_graph(150, 6.0, random_state=0)),
    ("er_2k_edges", lambda: erdos_renyi_graph(500, 8.0, random_state=7)),
    ("er_large", lambda: erdos_renyi_graph(1200, 10.0, random_state=1)),
    ("powerlaw_2k_edges", lambda: powerlaw_cluster_graph(700, 3, 0.5, random_state=2)),
)
QUICK_SPECS = GRAPH_SPECS[:2]

#: (edge counter, node counter) per name recorded in ``BENCH_orbits.json``.
COUNTERS = {
    "python": (edge_orbits.count_edge_orbits, node_orbits.count_node_orbits),
    "numpy": (vectorized.count_edge_orbits_numpy, vectorized.count_node_orbits_numpy),
}

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
    """Benchmark both counters (and the engine's cache) on one graph."""
    graph = factory()
    record = {"graph": name, "n_nodes": graph.n_nodes, "n_edges": graph.n_edges}

    timings = {}
    for label, (count_edges, count_nodes) in COUNTERS.items():
        runs = repeats if label == "numpy" else 1
        timings[label] = {
            "edge_s": _time(lambda: count_edges(graph), runs),
            "node_s": _time(lambda: count_nodes(graph), runs),
        }
        timings[label]["total_s"] = timings[label]["edge_s"] + timings[label]["node_s"]
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

    (reference_edges, reference_nodes), (fast_edges, fast_nodes) = (
        COUNTERS["python"],
        COUNTERS["numpy"],
    )
    reference, fast = reference_edges(graph), fast_edges(graph)
    record["identical"] = bool(
        reference.edges == fast.edges
        and np.array_equal(reference.counts, fast.counts)
        and np.array_equal(reference_nodes(graph), fast_nodes(graph))
    )

    return record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true", help="small graphs only")
    parser.add_argument("--repeats", type=int, default=3, help="best-of repeats")
    args = parser.parse_args(argv)

    if not hasattr(np, "bitwise_count"):
        print(
            "vectorized counters unavailable (needs numpy >= 2.0 for "
            "np.bitwise_count); nothing to compare",
            file=sys.stderr,
        )
        return 0

    specs = QUICK_SPECS if args.quick else GRAPH_SPECS
    records = []
    lines = [
        "Orbit counters (best-of-%d, seconds)" % args.repeats,
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
        print(f"COUNTER MISMATCH on: {failures}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
