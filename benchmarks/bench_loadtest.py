"""Load harness: open-loop arrival against the HTTP API, SLO-gated.

Where :mod:`bench_api` measures *capacity* (closed-loop clients that issue
the next request the moment the previous answer lands), this harness
measures *service under offered load*:

1. **Capacity probe** — a short closed-loop burst establishes what the
   server can absorb on this machine.
2. **Open-loop phase** — N keep-alive clients issue ``POST /match``
   requests on a fixed arrival schedule at ~60% of the probed capacity,
   capped at :data:`MAX_OFFERED_QPS`.
   Latency is measured from the *scheduled* send time, not the actual one,
   so queueing delay when the server falls behind is charged to the
   measurement (no coordinated omission).  Reported as sustained
   node-queries/second plus p50/p99 latency — the two numbers
   ``check_regression.py`` enforces as first-class SLOs (QPS floor, p99
   ceiling).
3. **Metrics agreement** — ``/metrics`` is scraped before, during and
   after the load.  Mid-load scrapes must parse and be monotone; the
   before/after deltas of ``api_requests_total`` and
   ``serve_queries_total`` must agree *exactly* with the client-side
   request and node counts.  The exposition page is only trustworthy if
   what the server says happened is what the clients measured.
4. **Instrumentation overhead** — the same in-process workload with stats
   recording active vs stubbed out, so the cost of the observability layer
   is a committed number, not a guess.

Results land in ``BENCH_loadtest.json`` at the repo root plus a readable
table under ``benchmarks/results/``.

Run with::

    python benchmarks/bench_loadtest.py            # full size
    python benchmarks/bench_loadtest.py --quick    # smaller, CI-friendly
"""

from __future__ import annotations

import argparse
import http.client
import json
import shutil
import socket
import sys
import tempfile
import threading
import time
from pathlib import Path

import numpy as np

REPO_ROOT = Path(__file__).resolve().parent.parent
if str(REPO_ROOT / "src") not in sys.path:
    sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.api.core import ApiState  # noqa: E402
from repro.api.http import BackgroundServer  # noqa: E402
from repro.obs.exposition import parse_prometheus_text  # noqa: E402
from repro.obs.metrics import MetricsRegistry  # noqa: E402
from repro.serve import AlignmentService, export_result  # noqa: E402

JSON_PATH = REPO_ROOT / "BENCH_loadtest.json"
REPORT_PATH = REPO_ROOT / "benchmarks" / "results" / "bench_loadtest.txt"

INDEX_K = 10
BATCH = 64
#: Fraction of probed capacity offered during the open-loop phase.
OFFERED_FRACTION = 0.6
#: Cap on the offered node-queries/s.  The client threads share the
#: server's process, so the open loop saturates on the client side (about
#: 140k node-q/s on a 2-cpu box) well below the closed-loop burst capacity
#: of a fast server; the cap also keeps two commits at the same offered load.
MAX_OFFERED_QPS = 100_000.0

MATCH_2XX = 'api_requests_total{endpoint="/match",status="2xx"}'
SERVE_MATCH = 'serve_queries_total{op="match"}'


def make_matrix(n_s: int, n_t: int, seed: int = 0) -> np.ndarray:
    rng = np.random.default_rng(seed)
    scores = rng.standard_normal((n_s, n_t))
    hubs = rng.choice(n_t, size=max(1, n_t // 50), replace=False)
    scores[:, hubs] += 1.5
    return scores


def _post(connection: http.client.HTTPConnection, path: str, body: dict):
    connection.request(
        "POST", path, json.dumps(body), {"Content-Type": "application/json"}
    )
    response = connection.getresponse()
    return response.status, json.loads(response.read())


def _connect(server) -> http.client.HTTPConnection:
    connection = http.client.HTTPConnection(server.host, server.port, timeout=60)
    connection.connect()
    connection.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    return connection


def scrape(server) -> dict:
    """One parsed ``/metrics`` scrape: ``{family: {series: value}}``."""
    connection = _connect(server)
    try:
        connection.request("GET", "/metrics")
        response = connection.getresponse()
        assert response.status == 200, f"/metrics returned {response.status}"
        content_type = response.headers.get("Content-Type", "")
        assert content_type.startswith("text/plain"), content_type
        return parse_prometheus_text(response.read().decode())
    finally:
        connection.close()


def _series(parsed: dict, family: str, series: str) -> float:
    return float(parsed.get(family, {}).get(series, 0.0))


def closed_loop(server, artifact_id: str, n_s: int, clients: int,
                requests_per_client: int) -> dict:
    """Capacity probe: every client fires as fast as answers come back."""
    latencies_per_client = [[] for _ in range(clients)]
    bodies = [
        {
            "artifact_id": artifact_id,
            "nodes": np.random.default_rng(100 + i)
            .integers(0, n_s, size=BATCH)
            .tolist(),
        }
        for i in range(clients)
    ]
    barrier = threading.Barrier(clients + 1)
    failures = []
    sent = [0] * clients

    def run_client(index: int) -> None:
        connection = _connect(server)
        latencies = latencies_per_client[index]
        try:
            _post(connection, "/match", bodies[index])  # warm the connection
            sent[index] += 1
            barrier.wait()
            for _ in range(requests_per_client):
                started = time.perf_counter()
                status, _ = _post(connection, "/match", bodies[index])
                latencies.append(time.perf_counter() - started)
                sent[index] += 1
                if status != 200:
                    failures.append(status)
        except Exception as error:  # noqa: BLE001 - recorded, fails the bench
            failures.append(repr(error))
        finally:
            connection.close()

    threads = [
        threading.Thread(target=run_client, args=(i,)) for i in range(clients)
    ]
    for thread in threads:
        thread.start()
    barrier.wait()
    started = time.perf_counter()
    for thread in threads:
        thread.join()
    elapsed = time.perf_counter() - started

    latencies = np.array(sorted(sum(latencies_per_client, [])))
    measured = clients * requests_per_client
    return {
        "backend": "stdlib",
        "clients": clients,
        "requests": measured,
        "requests_sent": int(sum(sent)),
        "batch": BATCH,
        "elapsed_s": elapsed,
        "requests_per_second": measured / elapsed,
        "sustained_qps": measured * BATCH / elapsed,
        "p50_ms": float(np.percentile(latencies, 50) * 1000),
        "p99_ms": float(np.percentile(latencies, 99) * 1000),
        "failures": len(failures),
    }


def open_loop(server, artifact_id: str, n_s: int, clients: int,
              target_qps: float, duration_s: float) -> dict:
    """Fixed arrival schedule at ``target_qps``; latency from scheduled time.

    Each client sends on an evenly spaced schedule (clients phase-offset
    against each other).  A client that falls behind sends immediately and
    the backlog shows up as latency — the open-loop analogue of queueing
    delay, which closed-loop benchmarks structurally cannot see.
    """
    target_rps = target_qps / BATCH
    interval = clients / target_rps
    per_client = max(1, int(round(duration_s * target_rps / clients)))
    latencies_per_client = [[] for _ in range(clients)]
    bodies = [
        {
            "artifact_id": artifact_id,
            "nodes": np.random.default_rng(300 + i)
            .integers(0, n_s, size=BATCH)
            .tolist(),
        }
        for i in range(clients)
    ]
    barrier = threading.Barrier(clients + 1)
    failures = []
    sent = [0] * clients

    def run_client(index: int) -> None:
        connection = _connect(server)
        latencies = latencies_per_client[index]
        try:
            _post(connection, "/match", bodies[index])  # warm the connection
            sent[index] += 1
            barrier.wait()
            epoch = time.perf_counter() + 0.05
            offset = (index / clients) * interval
            for j in range(per_client):
                scheduled = epoch + offset + j * interval
                now = time.perf_counter()
                if scheduled > now:
                    time.sleep(scheduled - now)
                status, _ = _post(connection, "/match", bodies[index])
                latencies.append(time.perf_counter() - scheduled)
                sent[index] += 1
                if status != 200:
                    failures.append(status)
        except Exception as error:  # noqa: BLE001 - recorded, fails the bench
            failures.append(repr(error))
        finally:
            connection.close()

    threads = [
        threading.Thread(target=run_client, args=(i,)) for i in range(clients)
    ]
    for thread in threads:
        thread.start()
    barrier.wait()
    started = time.perf_counter()
    for thread in threads:
        thread.join()
    elapsed = time.perf_counter() - started

    latencies = np.array(sorted(sum(latencies_per_client, [])))
    measured = clients * per_client
    achieved_qps = measured * BATCH / elapsed
    return {
        "backend": "stdlib",
        "clients": clients,
        "requests": measured,
        "requests_sent": int(sum(sent)),
        "batch": BATCH,
        "elapsed_s": elapsed,
        "target_qps": target_qps,
        "offered_fraction": OFFERED_FRACTION,
        "max_offered_qps": MAX_OFFERED_QPS,
        "sustained_qps": achieved_qps,
        "achieved_fraction": achieved_qps / target_qps,
        "p50_ms": float(np.percentile(latencies, 50) * 1000),
        "p99_ms": float(np.percentile(latencies, 99) * 1000),
        "failures": len(failures),
        "no_failures": len(failures) == 0,
    }


def bench_overhead(store, artifact_id: str, n_s: int, n_batches: int) -> dict:
    """In-process match throughput with stats recording active vs stubbed."""
    service = AlignmentService()
    service.load(store, artifact_id, mode="serve")
    batches = [
        np.random.default_rng(500 + i).integers(0, n_s, size=BATCH)
        for i in range(n_batches)
    ]

    def measure() -> float:
        best = 0.0
        for _ in range(3):
            started = time.perf_counter()
            for nodes in batches:
                service.match(artifact_id, nodes)
            best = max(best, n_batches * BATCH / (time.perf_counter() - started))
        return best

    instrumented_qps = measure()
    original_note = AlignmentService._note
    AlignmentService._note = lambda self, *args, **kwargs: None
    try:
        bare_qps = measure()
    finally:
        AlignmentService._note = original_note
    overhead_pct = max(0.0, 100.0 * (1.0 - instrumented_qps / bare_qps))
    return {
        "requests": n_batches,
        "batch": BATCH,
        "instrumented_qps": instrumented_qps,
        "bare_qps": bare_qps,
        "overhead_pct": overhead_pct,
    }


class MidLoadScraper:
    """Polls ``/metrics`` while load runs; checks parse + monotonicity."""

    def __init__(self, server, period_s: float = 0.25):
        self.server = server
        self.period_s = period_s
        self.samples = []
        self.errors = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _run(self) -> None:
        while not self._stop.is_set():
            try:
                parsed = scrape(self.server)
                self.samples.append(_series(parsed, "api_requests_total", MATCH_2XX))
            except Exception as error:  # noqa: BLE001 - recorded, fails check
                self.errors.append(repr(error))
            self._stop.wait(self.period_s)

    def __enter__(self) -> "MidLoadScraper":
        self._thread.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self._stop.set()
        self._thread.join(timeout=10)

    def verdict(self) -> dict:
        monotone = all(
            later >= earlier
            for earlier, later in zip(self.samples, self.samples[1:])
        )
        return {
            "scrapes": len(self.samples),
            "scrape_errors": len(self.errors),
            "monotone": monotone,
            "ok": monotone and not self.errors and len(self.samples) >= 2,
        }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quick", action="store_true", help="smaller sizes")
    args = parser.parse_args(argv)

    n_s, n_t = (800, 800) if args.quick else (1500, 1200)
    clients = 4 if args.quick else 8
    probe_requests = 60 if args.quick else 250
    duration_s = 3.0 if args.quick else 10.0
    overhead_batches = 200 if args.quick else 1000
    matrix = make_matrix(n_s, n_t)

    store = Path(tempfile.mkdtemp(prefix="bench_loadtest_"))
    try:
        info = export_result(matrix, root=store, name="loadtest", index_k=INDEX_K)
        artifact_id = info.artifact_id
        state = ApiState(root=store, metrics=MetricsRegistry("loadtest"))
        state.preload()
        with BackgroundServer(state) as server:
            # Baseline scrape before any counted traffic; the exposition
            # endpoint is un-instrumented, so scrapes never shift deltas.
            before = scrape(server)
            capacity = closed_loop(
                server, artifact_id, n_s, clients, probe_requests
            )
            target_qps = min(
                MAX_OFFERED_QPS, capacity["sustained_qps"] * OFFERED_FRACTION
            )
            with MidLoadScraper(server) as scraper:
                open_stats = open_loop(
                    server, artifact_id, n_s, clients, target_qps, duration_s
                )
            under_load = scraper.verdict()
            after = scrape(server)

        client_requests = capacity["requests_sent"] + open_stats["requests_sent"]
        client_nodes = client_requests * BATCH
        server_requests = _series(after, "api_requests_total", MATCH_2XX) - _series(
            before, "api_requests_total", MATCH_2XX
        )
        server_nodes = _series(after, "serve_queries_total", SERVE_MATCH) - _series(
            before, "serve_queries_total", SERVE_MATCH
        )
        required_series = {
            "api_request_seconds": 'api_request_seconds_count{endpoint="/match"}',
            "serve_batch_seconds": 'serve_batch_seconds_count{op="match"}',
        }
        series_present = {
            family: series in after.get(family, {})
            for family, series in required_series.items()
        }
        metrics_checks = {
            "client_requests": client_requests,
            "server_requests": int(server_requests),
            "client_nodes": client_nodes,
            "server_nodes": int(server_nodes),
            "requests_match": int(server_requests) == client_requests,
            "nodes_match": int(server_nodes) == client_nodes,
            "required_series_present": series_present,
            "scrape_under_load": under_load,
        }
        metrics_agree = bool(
            metrics_checks["requests_match"]
            and metrics_checks["nodes_match"]
            and all(series_present.values())
            and under_load["ok"]
        )

        overhead = bench_overhead(store, artifact_id, n_s, overhead_batches)
    finally:
        shutil.rmtree(store, ignore_errors=True)

    lines = [
        "Open-loop load harness: SLOs and metrics agreement",
        "=" * 58,
        "",
        f"[1] capacity probe ({clients} closed-loop clients, batches of "
        f"{BATCH}):",
        f"    sustained  {capacity['sustained_qps']:12.0f} node-queries/s",
        f"    latency    p50 {capacity['p50_ms']:7.2f} ms   "
        f"p99 {capacity['p99_ms']:7.2f} ms",
        "",
        f"[2] open loop at {OFFERED_FRACTION:.0%} of capacity, at most "
        f"{MAX_OFFERED_QPS:.0f} ({open_stats['target_qps']:.0f} node-q/s "
        "offered, "
        f"{open_stats['elapsed_s']:.1f}s):",
        f"    sustained  {open_stats['sustained_qps']:12.0f} node-queries/s "
        f"({open_stats['achieved_fraction']:.2f}x offered)",
        f"    latency    p50 {open_stats['p50_ms']:7.2f} ms   "
        f"p99 {open_stats['p99_ms']:7.2f} ms   (from scheduled send)",
        f"    failures   {open_stats['failures']}",
        "",
        f"[3] /metrics vs client-side counts: "
        f"requests {metrics_checks['server_requests']} == "
        f"{metrics_checks['client_requests']}, "
        f"nodes {metrics_checks['server_nodes']} == "
        f"{metrics_checks['client_nodes']} -> agree={metrics_agree}",
        f"    mid-load scrapes: {under_load['scrapes']} "
        f"(monotone={under_load['monotone']}, "
        f"errors={under_load['scrape_errors']})",
        "",
        f"[4] instrumentation overhead (in-process): "
        f"{overhead['instrumented_qps']:.0f} vs {overhead['bare_qps']:.0f} "
        f"node-q/s = {overhead['overhead_pct']:.1f}%",
    ]
    text = "\n".join(lines)
    print(text)

    payload = {
        "benchmark": "api_loadtest",
        "command": "python benchmarks/bench_loadtest.py"
        + (" --quick" if args.quick else ""),
        "shape": [n_s, n_t],
        "index_k": INDEX_K,
        "capacity": capacity,
        "open_loop": open_stats,
        "metrics_agree": metrics_agree,
        "metrics_checks": metrics_checks,
        "instrumentation_overhead": overhead,
    }
    JSON_PATH.write_text(json.dumps(payload, indent=2) + "\n")
    REPORT_PATH.parent.mkdir(parents=True, exist_ok=True)
    REPORT_PATH.write_text(text + "\n")
    print(f"\n[written to {JSON_PATH} and {REPORT_PATH}]")

    ok = (
        metrics_agree
        and open_stats["failures"] == 0
        and capacity["failures"] == 0
    )
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
