"""The serve-mixed workload: an exported artifact behind the stdlib HTTP server.

The server runs as ``python -m repro.cli serve --server stdlib --preload`` in
its own process.  This process is the load generator: an open loop at a
fixed rate over keep-alive connections, each request timed from when it was
*scheduled* to be sent.  Traffic is 80% ``/match`` for 1-8 Zipf-skewed
source nodes (interactive, cache-friendly) and 20% ``/top_k`` for 256
uniform nodes (batch, cache-hostile, dominated by index work and JSON).
Every answer is checked against the matrix the benchmark generated.
"""

from __future__ import annotations

import http.client
import json
import os
import socket
import subprocess
import sys
import tempfile
import threading
import time
from typing import List, Optional, Tuple

import numpy as np

from measure import median, open_loop_times, percentile, schedule, tail_percentile
from outcome import Outcome
from spans import Probe, Tracer, installed, peak_mb, reset_peak

N_SOURCE, N_TARGET = 3000, 2500
INDEX_K = 10
#: Fixed, so that two commits are always compared at the same offered load.
#: It is about a quarter of the mixed closed-loop capacity of a 2-cpu box
#: (about 1,450 req/s): at half, a neighbour stealing cpu time pushed the
#: open loop into queueing and moved the run's p50 by up to 3x.
RATE = 400.0
CONNECTIONS = 2
SMALL_SHARE = 0.8
SMALL_MAX_NODES = 8
LARGE_NODES = 256
TOP_K = 10
ZIPF_EXPONENT = 1.1
#: Added to each anchored source node's true target; with 2,500 standard
#: normal competitors about 19 in 20 true targets score highest.
PLANTED_BONUS = 5.0
SETUPS = 3
CAPACITY_SECONDS = 3.0
REPLAY_REQUESTS = 3000
READY_TIMEOUT = 60.0
REQUEST_TIMEOUT = 10.0

SERVE_PROBES = (
    Probe("export", "repro.serve.artifacts:export_result"),
    Probe("load", "repro.serve.service:AlignmentService.load"),
    Probe("dispatch", "repro.api.core:dispatch"),
    Probe("query", "repro.serve.service:AlignmentService.query"),
)


def score_matrix(seed: int) -> Tuple[np.ndarray, np.ndarray]:
    """A seeded score matrix with a planted ground truth (-1 = no anchor)."""
    rng = np.random.default_rng([seed, 0])
    scores = rng.standard_normal((N_SOURCE, N_TARGET))
    truth = np.full(N_SOURCE, -1, dtype=np.int64)
    anchored = rng.permutation(N_SOURCE)[:N_TARGET]
    truth[anchored] = rng.permutation(N_TARGET)
    scores[anchored, truth[anchored]] += PLANTED_BONUS
    return scores, truth


def reference_top_k(scores: np.ndarray, k: int) -> np.ndarray:
    """Top-k targets per row: score descending, then index ascending."""
    part = np.argpartition(-scores, k - 1, axis=1)[:, :k]
    values = np.take_along_axis(scores, part, axis=1)
    order = np.lexsort((part, -values), axis=1)
    return np.take_along_axis(part, order, axis=1)


def request_trace(seed: int, count: int, artifact_id: str) -> List[Tuple[str, bytes, np.ndarray]]:
    """``count`` requests as ``(path, json body, nodes)``, from the seed only."""
    rng = np.random.default_rng([seed, 1])
    large = rng.random(count) >= SMALL_SHARE
    sizes = rng.integers(1, SMALL_MAX_NODES + 1, size=count)
    popularity = 1.0 / np.arange(1, N_SOURCE + 1) ** ZIPF_EXPONENT
    by_rank = rng.permutation(N_SOURCE)
    picks = by_rank[rng.choice(N_SOURCE, size=int(sizes[~large].sum()),
                               p=popularity / popularity.sum())]
    trace, used = [], 0
    for is_large, size in zip(large, sizes):
        if is_large:
            nodes = rng.integers(0, N_SOURCE, size=LARGE_NODES)
            body = {"artifact_id": artifact_id, "nodes": nodes.tolist(), "k": TOP_K}
            trace.append(("/top_k", json.dumps(body).encode(), nodes))
        else:
            nodes = picks[used:used + size]
            used += size
            body = {"artifact_id": artifact_id, "nodes": nodes.tolist()}
            trace.append(("/match", json.dumps(body).encode(), nodes))
    return trace


def _free_port() -> int:
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


class Server:
    """``repro.cli serve`` in a child process; ``stop`` waits for it to end."""

    def __init__(self, store: str, src_dir: str, workdir: str) -> None:
        self.port = _free_port()
        self.log_path = os.path.join(workdir, f"server-{self.port}.log")
        env = dict(os.environ, PYTHONPATH=src_dir, TMPDIR=workdir)
        with open(self.log_path, "wb") as log:
            self.process = subprocess.Popen(
                [sys.executable, "-m", "repro.cli", "serve", "--artifact-root", store,
                 "--server", "stdlib", "--preload", "--host", "127.0.0.1",
                 "--port", str(self.port)],
                stdin=subprocess.DEVNULL, stdout=log, stderr=log, env=env, cwd=workdir,
            )

    def wait_ready(self) -> None:
        deadline = time.perf_counter() + READY_TIMEOUT
        while time.perf_counter() < deadline:
            if self.process.poll() is not None:
                raise RuntimeError(f"server exited with {self.process.returncode}: {self.log_tail()}")
            try:
                status, _ = self.get("/health")
                if status == 200:
                    return
            except OSError:
                pass
            time.sleep(0.01)
        raise RuntimeError(f"server not ready after {READY_TIMEOUT}s: {self.log_tail()}")

    def get(self, path: str) -> Tuple[int, bytes]:
        conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=REQUEST_TIMEOUT)
        try:
            conn.request("GET", path)
            response = conn.getresponse()
            return response.status, response.read()
        finally:
            conn.close()

    def log_tail(self) -> str:
        try:
            with open(self.log_path, "rb") as handle:
                return handle.read()[-2000:].decode(errors="replace")
        except OSError:
            return "<no log>"

    def stop(self) -> None:
        if self.process.poll() is None:
            self.process.terminate()
            try:
                self.process.wait(timeout=10)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()


def set_up(seed: int, src_dir: str, workdir: str):
    """Generate the matrix, export it, start the server: the timed set-up."""
    from repro.serve import artifacts

    scores, truth = score_matrix(seed)
    store = tempfile.mkdtemp(dir=workdir)
    info = artifacts.export_result(scores, None, root=store, name="bench", index_k=INDEX_K)
    server = Server(store, src_dir, workdir)
    try:
        server.wait_ready()
    except Exception:
        server.stop()
        raise
    return scores, truth, store, info.artifact_id, server


def _send(conn_box: list, port: int, path: str, body: bytes) -> Tuple[Optional[int], bytes]:
    """One POST on a keep-alive connection, reconnecting after an error."""
    try:
        if conn_box[0] is None:
            conn_box[0] = http.client.HTTPConnection("127.0.0.1", port, timeout=REQUEST_TIMEOUT)
        conn_box[0].request("POST", path, body, {"Content-Type": "application/json"})
        response = conn_box[0].getresponse()
        return response.status, response.read()
    except (OSError, http.client.HTTPException) as error:
        if conn_box[0] is not None:
            conn_box[0].close()
        conn_box[0] = None
        return None, repr(error).encode()


def open_loop(port: int, trace, rate: float) -> List[tuple]:
    """Send ``trace`` at ``rate`` req/s over :data:`CONNECTIONS` connections.

    Request ``i`` is due at ``start + i/rate`` and goes out on connection
    ``i % CONNECTIONS`` as soon as it is due and that connection is free.
    Returns ``(scheduled, sent, done, status, body)`` per request.
    """
    start = time.perf_counter() + 0.05
    due = schedule(rate, len(trace), start)
    records: List[Optional[tuple]] = [None] * len(trace)

    def connection(offset: int) -> None:
        box = [None]
        for i in range(offset, len(trace), CONNECTIONS):
            wait = due[i] - time.perf_counter()
            if wait > 0:
                time.sleep(wait)
            sent = time.perf_counter()
            status, body = _send(box, port, trace[i][0], trace[i][1])
            records[i] = (due[i], sent, time.perf_counter(), status, body)
        if box[0] is not None:
            box[0].close()

    threads = [threading.Thread(target=connection, args=(c,), daemon=True)
               for c in range(CONNECTIONS)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return records


def closed_loop(port: int, trace, seconds: float) -> Tuple[int, float]:
    """Each connection sends its next request when the last one returns."""
    stop_at = time.perf_counter() + seconds
    completed = [0] * CONNECTIONS

    def connection(offset: int) -> None:
        box, i = [None], offset
        while time.perf_counter() < stop_at:
            status, _ = _send(box, port, trace[i % len(trace)][0], trace[i % len(trace)][1])
            if status == 200:
                completed[offset] += 1
            i += CONNECTIONS
        if box[0] is not None:
            box[0].close()

    started = time.perf_counter()
    threads = [threading.Thread(target=connection, args=(c,), daemon=True)
               for c in range(CONNECTIONS)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return sum(completed), time.perf_counter() - started


def check_answers(out: Outcome, trace, records, argmax: np.ndarray, top_k: np.ndarray) -> None:
    """Count every non-200, transport error and wrong answer as a failure."""
    wrong = 0
    for (path, _, nodes), (_, _, _, status, body) in zip(trace, records):
        if status != 200:
            out.fail(f"{path}: status {status}: {body[:200]!r}")
            continue
        try:
            results = np.asarray(json.loads(body)["results"])
        except (ValueError, KeyError) as error:
            out.fail(f"{path}: unreadable answer ({error})")
            continue
        expected = argmax[nodes] if path == "/match" else top_k[nodes]
        if results.shape != expected.shape or not np.array_equal(results, expected):
            wrong += 1
            out.fail(f"{path}: wrong answer for nodes {nodes[:8].tolist()}")
    if wrong:
        out.notes.append(f"{wrong} wrong answers")


def served_p_at_1(trace, argmax: np.ndarray, truth: np.ndarray) -> float:
    """Share of anchored source nodes asked via /match whose answer is the true target."""
    asked = np.unique(np.concatenate([n for p, _, n in trace if p == "/match"]))
    asked = asked[truth[asked] >= 0]
    return float(np.mean(argmax[asked] == truth[asked]))


def _server_request_seconds(server: Server) -> Optional[Tuple[float, float]]:
    """Server-side (sum, count) of ``api_request_seconds`` for the query routes."""
    status, body = server.get("/metrics")
    if status != 200:
        return None
    total = count = 0.0
    seen = False
    for line in body.decode().splitlines():
        if not any(f'endpoint="{path}"' in line for path in ("/match", "/top_k")):
            continue
        if line.startswith("api_request_seconds_sum{"):
            total += float(line.rsplit(" ", 1)[1])
            seen = True
        elif line.startswith("api_request_seconds_count{"):
            count += float(line.rsplit(" ", 1)[1])
    return (total, count) if seen else None


def run_serve(seed: int, seconds: float, trace: bool, workdir: str, src_dir: str) -> Outcome:
    out = Outcome("serve-mixed")
    tracer = Tracer()
    setup_times, server = [], None
    try:
        for _ in range(1 if trace else SETUPS):
            if server is not None:
                server.stop()
            started = time.perf_counter()
            with installed(tracer, SERVE_PROBES[:1]) as absent:
                scores, truth, store, artifact_id, server = set_up(seed, src_dir, workdir)
            setup_times.append(time.perf_counter() - started)
        out.add("setup_s", median(setup_times), "s", len(setup_times))
        argmax = np.argmax(scores, axis=1)
        top_k = reference_top_k(scores, TOP_K)
        requests = request_trace(seed, max(1, int(RATE * seconds)), artifact_id)

        if trace:
            done, elapsed = closed_loop(server.port, requests, CAPACITY_SECONDS)
            out.add("serve.capacity_rps", done / elapsed, "1/s", done)
            before = _server_request_seconds(server)
        reset_ok = reset_peak(str(server.process.pid))
        records = open_loop(server.port, requests, RATE)
        server_peak = peak_mb(str(server.process.pid)) if reset_ok else None
        after = _server_request_seconds(server) if trace else None
    finally:
        if server is not None:
            server.stop()

    out.attempted += len(records)
    check_answers(out, requests, records, argmax, top_k)
    scheduled, sent, done_at = ([r[i] for r in records] for i in range(3))
    latency, lateness = open_loop_times(scheduled, sent, done_at)
    latency_ms = [1000.0 * x for x in latency]
    span = max(done_at) - min(scheduled)
    out.notes.append(f"offered {RATE:.0f} req/s, completed {len(records) / span:.1f} req/s over {span:.2f}s")
    tail = tail_percentile(latency_ms)
    if tail:
        out.notes.append(f"latency p{tail[0]:g} {tail[1]:.3f} ms ({tail[2]} samples beyond)")

    if not trace:
        out.add("op_p50_ms", median(latency_ms), "ms", len(latency_ms))
        out.add("peak_rss_mb", server_peak, "MB", 1,
                why_absent="peak-RSS reset of the server process unavailable")
        out.add("p_at_1", served_p_at_1(requests, argmax, truth), "ratio")
        return out

    # Per-layer numbers of the traced run.
    out.add("serve.p99_ms", percentile(latency_ms, 99.0), "ms", len(latency_ms))
    out.add("gen.late_ms_p99", 1000.0 * percentile(lateness, 99.0), "ms", len(lateness))
    if before is not None and after is not None and after[1] > before[1]:
        server_mean = (after[0] - before[0]) / (after[1] - before[1])
        client_mean = sum(d - s for s, d in zip(sent, done_at)) / len(sent)
        out.add("http.overhead_ms", 1000.0 * (client_mean - server_mean), "ms", len(sent))
    else:
        out.add("http.overhead_ms", None, "ms",
                why_absent="api_request_seconds not found in the server's /metrics")
    out.add("serve.export_s", tracer.total("export") if "export" not in absent else None,
            "s", 1, why_absent=absent.get("export", ""))
    out.add_spans(tracer.summary())
    _replay(out, store, requests[:REPLAY_REQUESTS])
    return out


def _replay(out: Outcome, store: str, requests) -> None:
    """Replay the trace in-process through dispatch, untraced then traced."""
    from repro.api import core as api_core

    bodies = [(path, json.loads(body)) for path, body, _ in requests]

    def replay(state) -> float:
        started = time.perf_counter()
        for path, body in bodies:
            status, _ = api_core.dispatch(state, "POST", path, body=body)
            if status != 200:
                out.fail(f"in-process {path}: status {status}")
        return time.perf_counter() - started

    plain = api_core.ApiState(root=store)
    plain.preload()
    untraced_s = replay(plain)

    tracer = Tracer()
    with installed(tracer, SERVE_PROBES[1:]) as absent:
        state = api_core.ApiState(root=store)
        state.preload()
        traced_s = replay(state)
    out.add("serve.load_s", tracer.total("load") if "load" not in absent else None, "s",
            len(tracer.named("load")), why_absent=absent.get("load", ""))
    kinds = ["small" if path == "/match" else "large" for path, _ in bodies]
    dispatches = tracer.named("dispatch")
    if "dispatch" in absent or len(dispatches) != len(kinds):
        reason = absent.get("dispatch", "dispatch spans do not match the replayed requests")
        for name in ("api.dispatch_small_us", "api.dispatch_large_us",
                     "serve.query_small_us", "serve.query_large_us"):
            out.add(name, None, "us", why_absent=reason)
    else:
        kind_of = {span["id"]: kind for span, kind in zip(dispatches, kinds)}
        for kind in ("small", "large"):
            durations = [1e6 * (s["end"] - s["start"]) for s in dispatches if kind_of[s["id"]] == kind]
            out.add(f"api.dispatch_{kind}_us", median(durations), "us", len(durations))
            queries = [1e6 * (s["end"] - s["start"]) for s in tracer.named("query")
                       if kind_of.get(s["parent"]) == kind]
            out.add(f"serve.query_{kind}_us", median(queries) if queries else None, "us",
                    len(queries), why_absent=absent.get("query", "no query spans under dispatch"))
    out.add_spans(tracer.summary())
    stats = state.service.stats()
    if "cache_hits" in stats and "cache_misses" in stats:
        lookups = stats["cache_hits"] + stats["cache_misses"]
        out.add("serve.cache_hit_ratio", stats["cache_hits"] / lookups if lookups else None,
                "ratio", lookups, why_absent="no cache lookups")
    else:
        out.add("serve.cache_hit_ratio", None, "ratio",
                why_absent="AlignmentService.stats() reports no cache counters")
    out.add("trace.overhead_pct", 100.0 * (traced_s / untraced_s - 1.0), "%", len(bodies))
