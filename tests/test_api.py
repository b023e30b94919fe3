"""The repro.api surface: models, dispatch, the HTTP server, listing, versions.

The end-to-end tests below run against the stdlib HTTP server over a real
socket: structured 4xx bodies, request framing, and bit-parity of HTTP
responses with direct ``AlignmentService`` calls.
"""

import http.client
import json
import shutil
import socket
import sqlite3
import threading

import numpy as np
import pytest

import repro.api.http as api_http
from repro.api.core import ApiState, dispatch
from repro.api.http import BackgroundServer
from repro.api.models import (
    API_SCHEMA_VERSION,
    QUERY_OPS,
    ApiValidationError,
    make_query_request,
    make_query_response,
    parse_query_request,
    response_payload,
)
from repro.serve import AlignmentService, export_result
from repro.serve.artifacts import (
    FILTER_FIELDS,
    MANIFEST_FILE,
    SCHEMA_VERSION,
    ArtifactSchemaError,
    find_artifacts,
    record_from_manifest,
)
from repro.serve.service import check_runtime_schema


@pytest.fixture(scope="module")
def store(tmp_path_factory):
    """One exported artifact in a store (module-scoped: exporting is slow)."""
    root = tmp_path_factory.mktemp("api_store")
    matrix = np.random.default_rng(7).standard_normal((20, 15))
    info = export_result(
        matrix,
        root=root,
        name="api-test",
        index_k=6,
        metadata={"dataset": "tiny", "method": "Degree"},
    )
    return root, info.artifact_id, matrix


# ----------------------------------------------------------------------
# the one wire validator
# ----------------------------------------------------------------------
class TestParseQueryRequest:
    def test_valid_match(self):
        request = parse_query_request({"artifact_id": "a", "op": "match", "nodes": [0, 1]})
        assert request.op == "match"
        assert request.k is None
        np.testing.assert_array_equal(request.nodes, [0, 1])
        assert request.nodes.dtype == np.intp

    def test_valid_top_k(self):
        request = parse_query_request(
            {"artifact_id": "a", "op": "top_k", "nodes": [3], "k": 5}
        )
        assert request.k == 5

    def test_empty_nodes_allowed(self):
        request = parse_query_request({"artifact_id": "a", "op": "match", "nodes": []})
        assert request.nodes.size == 0
        assert request.nodes.dtype == np.intp

    def test_force_op_fills_missing_op(self):
        request = parse_query_request(
            {"artifact_id": "a", "nodes": [1]}, force_op="match"
        )
        assert request.op == "match"

    def test_force_op_conflict_rejected(self):
        with pytest.raises(ApiValidationError) as excinfo:
            parse_query_request(
                {"artifact_id": "a", "op": "top_k", "nodes": [1], "k": 2},
                force_op="match",
            )
        assert any(e["loc"] == ["op"] for e in excinfo.value.detail)

    @pytest.mark.parametrize(
        "payload, loc",
        [
            ({"op": "match", "nodes": [0]}, ["artifact_id"]),
            ({"artifact_id": "", "op": "match", "nodes": [0]}, ["artifact_id"]),
            ({"artifact_id": "a", "op": "argmax", "nodes": [0]}, ["op"]),
            ({"artifact_id": "a", "op": "match"}, ["nodes"]),
            ({"artifact_id": "a", "op": "match", "nodes": 3}, ["nodes"]),
            ({"artifact_id": "a", "op": "match", "nodes": [0.5]}, ["nodes"]),
            ({"artifact_id": "a", "op": "match", "nodes": ["x"]}, ["nodes"]),
            ({"artifact_id": "a", "op": "match", "nodes": [[0], [1]]}, ["nodes"]),
            ({"artifact_id": "a", "op": "top_k", "nodes": [0]}, ["k"]),
            ({"artifact_id": "a", "op": "top_k", "nodes": [0], "k": 0}, ["k"]),
            ({"artifact_id": "a", "op": "top_k", "nodes": [0], "k": True}, ["k"]),
            ({"artifact_id": "a", "op": "top_k", "nodes": [0], "k": "3"}, ["k"]),
            ({"artifact_id": "a", "op": "match", "nodes": [0], "k": 3}, ["k"]),
            ({"artifact_id": "a", "op": "match", "nodes": [0], "extra": 1}, ["extra"]),
        ],
    )
    def test_rejections_carry_locs(self, payload, loc):
        with pytest.raises(ApiValidationError) as excinfo:
            parse_query_request(payload)
        assert loc in [e["loc"] for e in excinfo.value.detail]

    def test_non_mapping_body(self):
        with pytest.raises(ApiValidationError):
            parse_query_request([1, 2, 3])

    def test_error_body_is_versioned(self):
        try:
            parse_query_request({"artifact_id": "a", "op": "match", "nodes": [0.5]})
        except ApiValidationError as error:
            body = error.body()
        assert body["schema_version"] == API_SCHEMA_VERSION
        assert body["error"]["code"] == "validation_error"
        assert body["error"]["detail"]


# ----------------------------------------------------------------------
# the shared service.query entry point
# ----------------------------------------------------------------------
class TestServiceQuery:
    def test_wrappers_and_query_agree(self, store):
        root, artifact_id, matrix = store
        service = AlignmentService()
        service.load(root, artifact_id)
        nodes = np.arange(matrix.shape[0])
        via_query = service.query(
            make_query_request(artifact_id, "match", nodes)
        ).results
        np.testing.assert_array_equal(via_query, service.match(artifact_id, nodes))
        np.testing.assert_array_equal(via_query, matrix.argmax(axis=1))
        top = service.query(make_query_request(artifact_id, "top_k", [0, 1], 3))
        np.testing.assert_array_equal(top.results, service.top_k(artifact_id, [0, 1], 3))
        assert top.k == 3
        assert top.score_dtype == "float64"

    def test_query_accepts_wire_mapping(self, store):
        root, artifact_id, _ = store
        service = AlignmentService()
        service.load(root, artifact_id)
        response = service.query(
            {"artifact_id": artifact_id, "op": "reverse_match", "nodes": [0, 2]}
        )
        np.testing.assert_array_equal(
            response.results, service.reverse_match(artifact_id, [0, 2])
        )

    def test_legacy_exception_types_preserved(self, store):
        root, artifact_id, _ = store
        service = AlignmentService()
        service.load(root, artifact_id)
        with pytest.raises(KeyError):
            service.query(make_query_request("nope", "match", [0]))
        with pytest.raises(IndexError):
            service.query(make_query_request(artifact_id, "match", [10_000]))
        with pytest.raises(ValueError):
            service.query(make_query_request(artifact_id, "top_k", [0]))  # no k

    def test_describe_and_stats_carry_versions(self, store):
        root, artifact_id, _ = store
        service = AlignmentService()
        service.load(root, artifact_id)
        description = service.describe(artifact_id)
        assert description["schema_version"] == API_SCHEMA_VERSION
        assert description["engine_version"]
        assert description["score_dtype"] == "float64"
        assert description["artifact_schema_version"] == list(SCHEMA_VERSION)
        stats = service.stats()
        assert stats["schema_version"] == API_SCHEMA_VERSION
        assert stats["engine_version"]


class TestRuntimeSchemaGuard:
    def _manifest(self, version):
        return {"artifact_id": "x", "schema_version": version}

    def test_current_schema_accepted(self):
        check_runtime_schema(self._manifest(list(SCHEMA_VERSION)))

    def test_newer_minor_accepted(self):
        check_runtime_schema(self._manifest([SCHEMA_VERSION[0], SCHEMA_VERSION[1] + 5]))

    def test_future_major_refused_naming_both_versions(self):
        future = [SCHEMA_VERSION[0] + 1, 0]
        with pytest.raises(ArtifactSchemaError) as excinfo:
            check_runtime_schema(self._manifest(future))
        message = str(excinfo.value)
        assert str(future) in message
        assert str(list(SCHEMA_VERSION)) in message

    def test_malformed_version_refused(self):
        with pytest.raises(ArtifactSchemaError):
            check_runtime_schema(self._manifest("2"))
        with pytest.raises(ArtifactSchemaError):
            check_runtime_schema({"artifact_id": "x"})


# ----------------------------------------------------------------------
# transport-agnostic dispatch (no sockets)
# ----------------------------------------------------------------------
class TestDispatch:
    def test_health(self, store):
        root, artifact_id, _ = store
        status, payload = dispatch(ApiState(root=root), "GET", "/health")
        assert status == 200
        assert payload["status"] == "ok"
        assert payload["schema_version"] == API_SCHEMA_VERSION

    def test_artifacts_listing_and_filters(self, store):
        root, artifact_id, _ = store
        state = ApiState(root=root)
        status, payload = dispatch(state, "GET", "/artifacts")
        assert status == 200
        assert payload["source"] == "store"
        assert artifact_id in [a["artifact_id"] for a in payload["artifacts"]]
        status, payload = dispatch(
            state, "GET", "/artifacts", params={"dataset": "tiny", "limit": "1"}
        )
        assert status == 200 and payload["n_artifacts"] == 1
        status, payload = dispatch(
            state, "GET", "/artifacts", params={"dataset": "other"}
        )
        assert status == 200 and payload["n_artifacts"] == 0
        status, payload = dispatch(
            state, "GET", "/artifacts", params={"bogus": "1"}
        )
        assert status == 422
        assert payload["error"]["detail"] == [
            {
                "loc": ["bogus"],
                "msg": "unknown filter; expected any of "
                f"{list(FILTER_FIELDS)}",
            }
        ]
        status, payload = dispatch(
            state, "GET", "/artifacts", params={"limit": "many"}
        )
        assert status == 422
        assert [e["loc"] for e in payload["error"]["detail"]] == [["limit"]]
        status, payload = dispatch(
            state, "GET", "/artifacts", params={"offset": "-3"}
        )
        assert status == 422
        assert [e["loc"] for e in payload["error"]["detail"]] == [["offset"]]

    def test_artifacts_pagination(self, store):
        root, artifact_id, _ = store
        state = ApiState(root=root)
        status, payload = dispatch(state, "GET", "/artifacts")
        assert status == 200
        assert payload["total"] == payload["n_artifacts"] == len(payload["artifacts"])
        assert payload["limit"] is None and payload["offset"] is None
        # Paging past the single stored artifact: total is unaffected.
        status, payload = dispatch(
            state, "GET", "/artifacts", params={"limit": "5", "offset": "1"}
        )
        assert status == 200
        assert payload["n_artifacts"] == 0 and payload["total"] == 1
        assert payload["limit"] == 5 and payload["offset"] == 1

    def test_artifact_get(self, store):
        root, artifact_id, _ = store
        state = ApiState(root=root)
        status, payload = dispatch(state, "GET", f"/artifacts/{artifact_id}")
        assert status == 200
        assert payload["dataset"] == "tiny"
        status, payload = dispatch(state, "GET", "/artifacts/nope")
        assert status == 404
        assert payload["error"]["code"] == "not_found"

    def test_query_routes_auto_load(self, store):
        root, artifact_id, matrix = store
        state = ApiState(root=root)  # nothing hosted yet: auto-load on demand
        status, payload = dispatch(
            state, "POST", "/match", body={"artifact_id": artifact_id, "nodes": [0, 1]}
        )
        assert status == 200
        assert payload["results"] == matrix.argmax(axis=1)[:2].tolist()

    def test_reverse_route_switches_on_k(self, store):
        root, artifact_id, _ = store
        state = ApiState(root=root)
        status, payload = dispatch(
            state, "POST", "/reverse", body={"artifact_id": artifact_id, "nodes": [0]}
        )
        assert status == 200 and payload["op"] == "reverse_match"
        status, payload = dispatch(
            state,
            "POST",
            "/reverse",
            body={"artifact_id": artifact_id, "nodes": [0], "k": 2},
        )
        assert status == 200 and payload["op"] == "reverse_top_k"

    def test_structured_errors(self, store):
        root, artifact_id, _ = store
        state = ApiState(root=root)
        cases = [
            ({"artifact_id": artifact_id, "nodes": [10_000]}, 400, "bad_request"),
            ({"artifact_id": artifact_id, "nodes": [0.5]}, 422, "validation_error"),
            ({"artifact_id": "nope", "nodes": [0]}, 404, "not_found"),
        ]
        for body, expected_status, expected_code in cases:
            status, payload = dispatch(state, "POST", "/match", body=body)
            assert status == expected_status
            assert payload["error"]["code"] == expected_code
            assert payload["schema_version"] == API_SCHEMA_VERSION

    def test_unknown_route(self, store):
        root, _, _ = store
        status, payload = dispatch(ApiState(root=root), "GET", "/bogus")
        assert status == 404
        status, payload = dispatch(ApiState(root=root), "POST", "/bogus", body={})
        assert status == 404

    def test_stats_key_set_of_schema_5_0(self, store):
        root, artifact_id, _ = store
        state = ApiState(root=root)
        dispatch(state, "POST", "/match", body={"artifact_id": artifact_id, "nodes": [0]})
        status, payload = dispatch(state, "GET", "/stats")
        assert status == 200
        assert API_SCHEMA_VERSION == payload["schema_version"] == "5.0"
        assert set(payload) == {
            "schema_version",
            "engine_version",
            "artifacts",
            "queries",
            "batches",
            "total_latency_s",
            "avg_batch_latency_ms",
            "queries_per_second",
            "per_op",
            "latency",
        }
        assert set(payload["latency"]) == {"match"}
        assert set(payload["latency"]["match"]) == {"batch"}

    @pytest.mark.parametrize(
        "path, body",
        [
            ("/match", {"nodes": [0, 1]}),
            ("/top_k", {"nodes": [0, 1], "k": 3}),
            ("/reverse", {"nodes": [0, 1]}),
            ("/query", {"op": "match", "nodes": [0, 1]}),
        ],
    )
    def test_query_reply_key_set_of_schema_5_0(self, store, path, body):
        root, artifact_id, _ = store
        status, payload = dispatch(
            ApiState(root=root), "POST", path, body={"artifact_id": artifact_id, **body}
        )
        assert status == 200
        assert set(payload) == {
            "schema_version",
            "engine_version",
            "artifact_id",
            "op",
            "k",
            "score_dtype",
            "n_nodes",
            "results",
        }
        assert payload["schema_version"] == "5.0"

    def test_artifact_get_has_no_orbit_backend(self, store):
        root, artifact_id, _ = store
        state = ApiState(root=root)
        body = {"artifact_id": artifact_id, "nodes": [0]}
        dispatch(state, "POST", "/match", body=body)
        status, payload = dispatch(state, "GET", f"/artifacts/{artifact_id}")
        assert status == 200 and payload["hosted"]
        assert "orbit_backend" not in payload
        assert "orbit_backend" not in payload["metadata"]

    def test_stateless_service_without_root(self):
        state = ApiState()  # no store at all
        status, payload = dispatch(state, "GET", "/artifacts")
        assert status == 200 and payload["source"] == "hosted"
        status, payload = dispatch(
            state, "GET", "/artifacts", params={"dataset": "tiny"}
        )
        assert status == 400  # filters need a store


# ----------------------------------------------------------------------
# GET /backends: removed in schema 3.0
# ----------------------------------------------------------------------
class TestRemovedBackendsEndpoint:
    def test_backends_is_a_structured_404(self):
        status, payload = dispatch(ApiState(), "GET", "/backends")
        assert status == 404
        assert payload["error"]["code"] == "not_found"
        assert payload["schema_version"] == API_SCHEMA_VERSION

    def test_counted_under_the_catch_all_endpoint_label(self):
        from repro.obs.metrics import MetricsRegistry

        state = ApiState(metrics=MetricsRegistry("api-test"))
        dispatch(state, "GET", "/backends")
        counter = state.metrics.counter(
            "api_requests_total", endpoint="other", status="4xx"
        )
        assert counter.value == 1
        labels = {
            dict(items).get("endpoint") for _, items, _ in state.metrics.collect()
        }
        assert "/backends" not in labels

    def test_transport_parity_on_stdlib_socket(self):
        state = ApiState()
        direct_status, direct_payload = dispatch(state, "GET", "/backends")
        with BackgroundServer(state) as server:
            status, payload = _http(server, "GET", "/backends")
        assert (status, payload) == (
            direct_status,
            json.loads(json.dumps(direct_payload)),
        )


# ----------------------------------------------------------------------
# real sockets: the stdlib server
# ----------------------------------------------------------------------
def _http(server, method, path, body=None):
    connection = http.client.HTTPConnection(server.host, server.port, timeout=10)
    try:
        payload = json.dumps(body) if body is not None else None
        headers = {"Content-Type": "application/json"} if body is not None else {}
        connection.request(method, path, payload, headers)
        response = connection.getresponse()
        return response.status, json.loads(response.read())
    finally:
        connection.close()


class TestHTTPServer:
    def test_bit_parity_with_direct_service_all_ops(self, store):
        root, artifact_id, _ = store
        state = ApiState(root=root)
        direct = AlignmentService()
        direct.load(root, artifact_id)
        nodes = [0, 1, 2, 7]
        reverse_nodes = [0, 3, 9]
        with BackgroundServer(state) as server:
            for op, ids, k in [
                ("match", nodes, None),
                ("top_k", nodes, 4),
                ("reverse_match", reverse_nodes, None),
                ("reverse_top_k", reverse_nodes, 3),
            ]:
                body = {"artifact_id": artifact_id, "op": op, "nodes": ids}
                if k is not None:
                    body["k"] = k
                status, payload = _http(server, "POST", "/query", body)
                assert status == 200, payload
                expected = (
                    getattr(direct, op)(artifact_id, ids)
                    if k is None
                    else getattr(direct, op)(artifact_id, ids, k)
                )
                assert payload["results"] == np.asarray(expected).tolist()
                assert payload["op"] == op
                assert payload["schema_version"] == API_SCHEMA_VERSION

    def test_structured_errors_over_http(self, store):
        root, artifact_id, _ = store
        with BackgroundServer(ApiState(root=root)) as server:
            status, payload = _http(
                server, "POST", "/match",
                {"artifact_id": artifact_id, "nodes": [10_000]},
            )
            assert (status, payload["error"]["code"]) == (400, "bad_request")
            status, payload = _http(
                server, "POST", "/match",
                {"artifact_id": artifact_id, "nodes": [0.25]},
            )
            assert (status, payload["error"]["code"]) == (422, "validation_error")
            status, payload = _http(
                server, "POST", "/match", {"artifact_id": "nope", "nodes": [0]}
            )
            assert (status, payload["error"]["code"]) == (404, "not_found")

    def test_malformed_json_is_structured_400(self, store):
        root, _, _ = store
        with BackgroundServer(ApiState(root=root)) as server:
            connection = http.client.HTTPConnection(server.host, server.port, timeout=10)
            try:
                connection.request(
                    "POST", "/match", "{not json", {"Content-Type": "application/json"}
                )
                response = connection.getresponse()
                payload = json.loads(response.read())
            finally:
                connection.close()
            assert response.status == 400
            assert payload["error"]["code"] == "validation_error"

    def test_get_endpoints_over_http(self, store):
        root, artifact_id, _ = store
        with BackgroundServer(ApiState(root=root)) as server:
            status, payload = _http(server, "GET", "/health")
            assert status == 200 and payload["status"] == "ok"
            status, payload = _http(server, "GET", "/artifacts?dataset=tiny")
            assert status == 200 and payload["n_artifacts"] == 1
            status, payload = _http(server, "GET", f"/artifacts/{artifact_id}")
            assert status == 200 and payload["method"] == "Degree"
            status, payload = _http(server, "GET", "/stats")
            assert status == 200 and "queries" in payload
            status, payload = _http(server, "GET", "/backends")
            assert (status, payload["error"]["code"]) == (404, "not_found")
            status, payload = _http(server, "GET", "/artifacts?limit=1&offset=0")
            assert status == 200 and payload["total"] >= 1

    def test_concurrent_http_clients(self, store):
        root, artifact_id, matrix = store
        expected = matrix.argmax(axis=1)[:3].tolist()
        failures = []
        with BackgroundServer(ApiState(root=root)) as server:
            def client(_):
                for _ in range(5):
                    status, payload = _http(
                        server, "POST", "/match",
                        {"artifact_id": artifact_id, "nodes": [0, 1, 2]},
                    )
                    if status != 200 or payload["results"] != expected:
                        failures.append(payload)

            threads = [threading.Thread(target=client, args=(i,)) for i in range(6)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
        assert not failures


# ----------------------------------------------------------------------
# request framing: raw bytes on one keep-alive connection
# ----------------------------------------------------------------------
def _raw_exchange(server, request: bytes) -> bytes:
    """Send ``request`` and read until the server closes the connection."""
    with socket.create_connection((server.host, server.port), timeout=10) as sock:
        sock.sendall(request)
        chunks = []
        while True:
            try:
                chunk = sock.recv(65536)
            except ConnectionResetError:  # closed with our bytes unread
                chunk = b""
            if not chunk:
                return b"".join(chunks)
            chunks.append(chunk)


def _split_response(data: bytes):
    """``(status, headers, json body, trailing bytes)`` of the first response."""
    head, _, rest = data.partition(b"\r\n\r\n")
    lines = head.decode("latin-1").split("\r\n")
    status = int(lines[0].split()[1])
    headers = dict(
        (name.strip().lower(), value.strip())
        for name, value in (line.split(":", 1) for line in lines[1:])
    )
    length = int(headers["content-length"])
    return status, headers, json.loads(rest[:length]), rest[length:]


_FOLLOW_UP = b"GET /health HTTP/1.1\r\nHost: test\r\n\r\n"


class TestRequestFraming:
    @pytest.mark.parametrize("length", [b"twelve", b"-1"])
    def test_bad_content_length_is_structured_400(self, length):
        request = (
            b"POST /match HTTP/1.1\r\nHost: test\r\n"
            b"Content-Type: application/json\r\nContent-Length: " + length
            + b"\r\n\r\n{}" + _FOLLOW_UP
        )
        with BackgroundServer(ApiState()) as server:
            data = _raw_exchange(server, request)
        status, headers, payload, trailing = _split_response(data)
        assert status == 400
        assert payload["error"]["code"] == "validation_error"
        assert "Content-Length" in payload["error"]["message"]
        # The body was not read, so the connection closes after the error.
        assert headers["connection"] == "close"
        assert trailing == b""

    def test_oversized_body_closes_connection(self, monkeypatch):
        monkeypatch.setattr(api_http, "MAX_BODY_BYTES", 16)
        body = json.dumps({"artifact_id": "a" * 40, "nodes": [0]}).encode()
        request = (
            b"POST /match HTTP/1.1\r\nHost: test\r\n"
            b"Content-Type: application/json\r\n"
            b"Content-Length: " + str(len(body)).encode() + b"\r\n\r\n"
            + body + _FOLLOW_UP
        )
        with BackgroundServer(ApiState()) as server:
            data = _raw_exchange(server, request)
        status, headers, payload, trailing = _split_response(data)
        assert status == 413
        assert payload["error"]["code"] == "validation_error"
        assert headers["connection"] == "close"
        # The unread body is never parsed as a next request.
        assert trailing == b""

    def test_non_utf8_body_is_structured_400(self):
        request = (
            b"POST /match HTTP/1.1\r\nHost: test\r\nContent-Length: 1\r\n"
            b"Connection: close\r\n\r\n\x80"
        )
        with BackgroundServer(ApiState()) as server:
            data = _raw_exchange(server, request)
        status, _, payload, _ = _split_response(data)
        assert status == 400
        assert payload["error"]["code"] == "validation_error"

    def test_well_framed_requests_keep_the_connection(self, store):
        root, artifact_id, matrix = store
        body = json.dumps({"artifact_id": artifact_id, "nodes": [0]}).encode()
        request = (
            b"POST /match HTTP/1.1\r\nHost: test\r\n"
            b"Content-Length: " + str(len(body)).encode() + b"\r\n\r\n" + body
            + b"GET /health HTTP/1.1\r\nHost: test\r\nConnection: close\r\n\r\n"
        )
        with BackgroundServer(ApiState(root=root)) as server:
            data = _raw_exchange(server, request)
        status, _, payload, trailing = _split_response(data)
        assert status == 200
        assert payload["results"] == [int(matrix[0].argmax())]
        status, _, payload, trailing = _split_response(trailing)
        assert (status, payload["status"], trailing) == (200, "ok", b"")


# ----------------------------------------------------------------------
# the store listing: the manifests on disk, read on every request
# ----------------------------------------------------------------------
def _make_manifest(artifact_id, dataset="tiny", method="HTC", created=1.0):
    return {
        "artifact_id": artifact_id,
        "name": artifact_id.rsplit("-", 1)[0],
        "kind": "alignment",
        "content_hash": f"hash-{artifact_id}",
        "dtype": "float64",
        "schema_version": [1, 1],
        "created_unix": created,
        "index": {"shape": [10, 8], "k": 4},
        "metadata": {"dataset": dataset, "method": method},
    }


def _write_manifest(root, manifest):
    directory = root / manifest["artifact_id"]
    directory.mkdir(parents=True)
    (directory / MANIFEST_FILE).write_text(json.dumps(manifest))


class TestStoreListing:
    def test_find_filters_and_order(self, tmp_path):
        _write_manifest(tmp_path, _make_manifest("a-1", method="HTC", created=1.0))
        _write_manifest(tmp_path, _make_manifest("b-1", method="IsoRank", created=3.0))
        _write_manifest(tmp_path, _make_manifest("c-1", method="HTC", created=3.0))
        undated = _make_manifest("d-1", method="HTC")
        del undated["created_unix"]
        _write_manifest(tmp_path, undated)
        # Newest first, ids ascending within one timestamp, undated last.
        ids = [r["artifact_id"] for r in find_artifacts(tmp_path)]
        assert ids == ["b-1", "c-1", "a-1", "d-1"]
        ids = [r["artifact_id"] for r in find_artifacts(tmp_path, method="HTC")]
        assert ids == ["c-1", "a-1", "d-1"]
        assert find_artifacts(tmp_path, dataset="other") == []
        record = find_artifacts(tmp_path, name="a")[0]
        assert record["n_source"] == 10 and record["index_k"] == 4
        assert record["metadata"] == {"dataset": "tiny", "method": "HTC"}
        assert record["path"] == str(tmp_path / "a-1")
        with pytest.raises(ValueError):
            find_artifacts(tmp_path, bogus="x")

    def test_listing_follows_the_directories(self, tmp_path):
        root = tmp_path / "store"
        ids = [
            export_result(
                np.random.default_rng(seed).standard_normal((8, 6)),
                root=root,
                name=f"art{seed}",
                index_k=3,
            ).artifact_id
            for seed in range(2)
        ]
        state = ApiState(root=root)
        shutil.rmtree(root / ids[0])
        status, payload = dispatch(state, "GET", "/artifacts")
        assert status == 200 and payload["total"] == 1
        assert [a["artifact_id"] for a in payload["artifacts"]] == [ids[1]]
        status, _ = dispatch(state, "GET", f"/artifacts/{ids[0]}")
        assert status == 404
        # A valid artifact directory copied in is listed with no extra step.
        elsewhere = tmp_path / "elsewhere"
        copied = export_result(
            np.random.default_rng(9).standard_normal((8, 6)),
            root=elsewhere,
            name="copied",
            index_k=3,
        ).artifact_id
        shutil.copytree(elsewhere / copied, root / copied)
        status, payload = dispatch(state, "GET", "/artifacts")
        assert sorted(a["artifact_id"] for a in payload["artifacts"]) == sorted(
            [ids[1], copied]
        )
        status, payload = dispatch(state, "GET", f"/artifacts/{copied}")
        assert status == 200 and payload["n_source"] == 8

    def test_record_from_manifest_hashes_config(self):
        manifest = _make_manifest("a-1")
        manifest["config"] = {"epochs": 4}
        record = record_from_manifest(manifest)
        assert record["config_hash"]
        assert record["schema_version"] == "1.1"


# Six manifests in which every filter field of "a-1" is shared by some of the
# others and not by all, so each filter selects a different subset.
_LISTED = [
    # artifact_id, kind, content_hash, dataset, method, config, dtype, created
    ("a-1", "alignment", "h-shared", "tiny", "HTC", {"epochs": 4}, "float64", 1.0),
    ("a-2", "index", "h-a2", "econ", "IsoRank", {"epochs": 8}, "float32", 0.5),
    ("b-1", "alignment", "h-b1", "tiny", "IsoRank", {"epochs": 4}, "float32", 5.0),
    ("c-1", "index", "h-c1", "econ", "HTC", None, "float64", 5.0),
    ("d-1", "alignment", "h-shared", "econ", "Degree", {"epochs": 4}, "float64", 2.0),
    ("e-1", "alignment", "h-e1", "tiny", "HTC", None, "float32", None),
]
# Newest first, ids ascending within one timestamp, undated last.
_LISTED_ORDER = ["b-1", "c-1", "d-1", "a-1", "a-2", "e-1"]


@pytest.fixture
def listed_store(tmp_path):
    for artifact_id, kind, content, dataset, method, config, dtype, created in _LISTED:
        manifest = _make_manifest(artifact_id, dataset=dataset, method=method)
        manifest.update(kind=kind, content_hash=content, dtype=dtype)
        if config is not None:
            manifest["config"] = config
        if created is None:
            del manifest["created_unix"]
        else:
            manifest["created_unix"] = created
        _write_manifest(tmp_path, manifest)
    return tmp_path


def _listed_ids(payload):
    return [a["artifact_id"] for a in payload["artifacts"]]


class TestStoreListingQueries:
    """``GET /artifacts`` filters, pages and records, read from the
    manifests on every request."""

    @pytest.mark.parametrize(
        "field, expected",
        [
            ("name", ["a-1", "a-2"]),
            ("kind", ["b-1", "d-1", "a-1", "e-1"]),
            ("content_hash", ["d-1", "a-1"]),
            ("dataset", ["b-1", "a-1", "e-1"]),
            ("method", ["c-1", "a-1", "e-1"]),
            ("config_hash", ["b-1", "d-1", "a-1"]),
            ("dtype", ["c-1", "d-1", "a-1"]),
        ],
    )
    def test_each_filter_field_selects_its_matches(
        self, listed_store, field, expected
    ):
        state = ApiState(root=listed_store)
        _, record = dispatch(state, "GET", "/artifacts/a-1")
        status, payload = dispatch(
            state, "GET", "/artifacts", params={field: record[field]}
        )
        assert status == 200 and payload["source"] == "store"
        assert _listed_ids(payload) == expected
        assert payload["total"] == payload["n_artifacts"] == len(expected)
        assert all(a[field] == record[field] for a in payload["artifacts"])

    def test_filters_combine_as_and(self, listed_store):
        state = ApiState(root=listed_store)
        _, payload = dispatch(
            state, "GET", "/artifacts", params={"dataset": "tiny", "method": "HTC"}
        )
        assert _listed_ids(payload) == ["a-1", "e-1"]
        _, payload = dispatch(
            state, "GET", "/artifacts", params={"kind": "index", "dtype": "float64"}
        )
        assert _listed_ids(payload) == ["c-1"]
        _, payload = dispatch(
            state, "GET", "/artifacts", params={"kind": "index", "dataset": "tiny"}
        )
        assert payload["total"] == 0 and payload["artifacts"] == []

    @pytest.mark.parametrize("limit", [1, 2, 4, 10])
    def test_pages_tile_the_listing(self, listed_store, limit):
        state = ApiState(root=listed_store)
        ids, offset = [], 0
        while True:
            status, payload = dispatch(
                state,
                "GET",
                "/artifacts",
                params={"limit": str(limit), "offset": str(offset)},
            )
            assert status == 200 and payload["total"] == len(_LISTED)
            assert payload["limit"] == limit and payload["offset"] == offset
            assert payload["n_artifacts"] == len(payload["artifacts"]) <= limit
            if not payload["artifacts"]:
                break
            ids += _listed_ids(payload)
            offset += limit
        assert ids == _LISTED_ORDER

    def test_get_answers_the_listed_record(self, listed_store):
        state = ApiState(root=listed_store)
        _, listing = dispatch(state, "GET", "/artifacts")
        assert _listed_ids(listing) == _LISTED_ORDER
        for record in listing["artifacts"]:
            status, payload = dispatch(
                state, "GET", f"/artifacts/{record['artifact_id']}"
            )
            assert status == 200
            assert payload == {"hosted": False, **record}

    def test_leftover_catalog_database_is_ignored(self, listed_store):
        # Stores written before the listing read the manifests may still
        # hold the SQLite catalog file: it is a file, so it is never listed.
        with sqlite3.connect(listed_store / "catalog.sqlite") as connection:
            connection.execute("CREATE TABLE artifacts (artifact_id TEXT)")
            connection.execute("INSERT INTO artifacts VALUES ('ghost-1')")
        connection.close()
        state = ApiState(root=listed_store)
        _, payload = dispatch(state, "GET", "/artifacts")
        assert _listed_ids(payload) == _LISTED_ORDER
        for artifact_id in ("catalog.sqlite", "ghost-1"):
            status, _ = dispatch(state, "GET", f"/artifacts/{artifact_id}")
            assert status == 404

    @pytest.mark.parametrize(
        "manifest_text",
        [
            "{not json",
            json.dumps({**_make_manifest("z-1"), "schema_version": [99, 0]}),
        ],
        ids=["corrupt", "newer-major-schema"],
    )
    def test_unreadable_manifest_is_neither_listed_nor_got(
        self, listed_store, manifest_text
    ):
        (listed_store / "z-1").mkdir()
        (listed_store / "z-1" / MANIFEST_FILE).write_text(manifest_text)
        state = ApiState(root=listed_store)
        _, payload = dispatch(state, "GET", "/artifacts")
        assert _listed_ids(payload) == _LISTED_ORDER
        status, payload = dispatch(state, "GET", "/artifacts/z-1")
        assert status == 404
        assert payload["error"]["code"] == "not_found"

    def test_listing_during_concurrent_exports(self, tmp_path):
        # Exports write their arrays first and rename the manifest into
        # place last, so a listing taken mid-export never fails and never
        # shows a partial artifact.
        root = tmp_path / "store"
        state = ApiState(root=root)
        errors, exported = [], []

        def writer(index):
            try:
                for j in range(3):
                    matrix = np.random.default_rng(10 * index + j).standard_normal(
                        (6, 5)
                    )
                    info = export_result(
                        matrix, root=root, name=f"w{index}-{j}", index_k=2
                    )
                    exported.append(info.artifact_id)
            except Exception as error:  # noqa: BLE001 - collected for assert
                errors.append(error)

        def reader():
            try:
                for _ in range(20):
                    status, payload = dispatch(state, "GET", "/artifacts")
                    assert status == 200
                    for record in payload["artifacts"]:
                        assert record["n_source"] == 6 and record["index_k"] == 2
            except Exception as error:  # noqa: BLE001 - collected for assert
                errors.append(error)

        threads = [threading.Thread(target=writer, args=(i,)) for i in range(4)]
        threads += [threading.Thread(target=reader) for _ in range(3)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors
        _, payload = dispatch(state, "GET", "/artifacts")
        assert payload["total"] == 12
        assert sorted(_listed_ids(payload)) == sorted(exported)


class TestIdsStayInsideTheStore:
    """An artifact id names one directory under the store root, nothing
    else: ids that would resolve outside it are unknown artifacts."""

    @pytest.fixture
    def stores(self, tmp_path):
        root = tmp_path / "store"
        root.mkdir()
        matrix = np.random.default_rng(5).standard_normal((8, 6))
        outside = export_result(
            matrix, root=tmp_path / "other", name="outside", index_k=3
        )
        return root, outside

    def test_post_with_an_outside_id_is_404_and_hosts_nothing(self, stores):
        root, outside = stores
        state = ApiState(root=root)
        for artifact_id in (
            str(outside.path.resolve()),
            f"../other/{outside.artifact_id}",
        ):
            status, payload = dispatch(
                state, "POST", "/match", body={"artifact_id": artifact_id, "nodes": [0]}
            )
            assert status == 404, artifact_id
            assert payload["error"]["code"] == "not_found"
        assert state.service.artifact_ids() == []

    def test_get_parent_directory_is_404(self, stores):
        root, outside = stores
        # A manifest one level up: resolving ".." would read it.
        shutil.copy(outside.path / MANIFEST_FILE, root.parent / MANIFEST_FILE)
        status, payload = dispatch(ApiState(root=root), "GET", "/artifacts/..")
        assert status == 404
        assert payload["error"]["code"] == "not_found"


class TestPackageSurface:
    def test_lazy_exports_resolve(self):
        import repro.api

        assert callable(repro.api.dispatch)
        assert callable(repro.api.make_server)
        assert repro.api.ApiState is ApiState
        with pytest.raises(AttributeError):
            repro.api.not_a_thing

    def test_ops_match_service_surface(self):
        for op in QUERY_OPS:
            assert callable(getattr(AlignmentService, op))

    def test_response_payload_roundtrips_json(self, store):
        root, artifact_id, _ = store
        service = AlignmentService()
        service.load(root, artifact_id)
        response = service.query(make_query_request(artifact_id, "top_k", [0, 1], 2))
        payload = response_payload(response)
        assert json.loads(json.dumps(payload)) == payload

    def test_make_query_response_counts_nodes(self):
        request = make_query_request("a", "match", np.array([1, 2, 3]))
        response = make_query_response(request, np.array([4, 5, 6]), "float32")
        assert response.n_nodes == 3
        assert response.score_dtype == "float32"
        assert response.k is None
