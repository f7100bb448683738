"""End-to-end tests of the JSON HTTP API on an ephemeral port.

The server runs in a background thread over a temporary directory bucket
(:class:`LocalObjectStore`), exactly as ``airphant serve --bucket ...`` does;
requests go through the real socket with ``urllib``.
"""

import http.client
import json
import threading
import urllib.error
import urllib.request

import pytest

from repro.service import AirphantService, ServiceConfig, create_server
from repro.storage.local import LocalObjectStore

CORPUS = b"\n".join(
    [
        b"error disk full on node1",
        b"info service started on node1",
        b"error timeout connecting to node2",
        b"warn retry after error on node3",
        b"info heartbeat ok node2",
    ]
)


@pytest.fixture
def server(tmp_path):
    store = LocalObjectStore(str(tmp_path / "bucket"))
    store.put("corpora/logs.txt", CORPUS)
    service = AirphantService(store, ServiceConfig(query_cache_size=8))
    server = create_server(service, host="127.0.0.1", port=0)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        yield server
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=5)


def _get(server, path):
    try:
        with urllib.request.urlopen(f"{server.url}{path}", timeout=10) as response:
            return response.status, json.loads(response.read())
    except urllib.error.HTTPError as error:
        return error.code, json.loads(error.read())


def _post(server, path, body):
    data = body if isinstance(body, bytes) else json.dumps(body).encode("utf-8")
    request = urllib.request.Request(
        f"{server.url}{path}",
        data=data,
        headers={"Content-Type": "application/json"},
        method="POST",
    )
    try:
        with urllib.request.urlopen(request, timeout=10) as response:
            return response.status, json.loads(response.read())
    except urllib.error.HTTPError as error:
        return error.code, json.loads(error.read())


def _build_index(server, name="logs-index"):
    return _post(
        server, f"/indexes/{name}/build", {"blobs": ["corpora/logs.txt"], "num_bins": 64}
    )


class TestHealthz:
    def test_healthz_reports_status_and_catalog(self, server):
        status, payload = _get(server, "/healthz")
        assert status == 200
        assert payload["status"] == "ok"
        assert payload["indexes"] == 0
        assert payload["config"]["query_cache_size"] == 8

    def test_healthz_counts_built_indexes(self, server):
        _build_index(server)
        status, payload = _get(server, "/healthz")
        assert status == 200
        assert payload["indexes"] == 1

    def test_query_string_is_ignored_by_routing(self, server):
        status, payload = _get(server, "/healthz?verbose=1")
        assert status == 200
        assert payload["status"] == "ok"


class TestIndexes:
    def test_empty_bucket_lists_nothing(self, server):
        status, payload = _get(server, "/indexes")
        assert status == 200
        assert payload == {"indexes": []}

    def test_build_then_list(self, server):
        status, built = _build_index(server)
        assert status == 200
        assert built["name"] == "logs-index"
        assert built["num_documents"] == 5
        assert built["storage_bytes"] > 0

        status, payload = _get(server, "/indexes")
        assert status == 200
        assert [info["name"] for info in payload["indexes"]] == ["logs-index"]

    def test_get_single_index(self, server):
        _build_index(server)
        status, payload = _get(server, "/indexes/logs-index")
        assert status == 200
        assert payload["num_documents"] == 5

    def test_get_unknown_index_is_404(self, server):
        status, payload = _get(server, "/indexes/missing")
        assert status == 404
        assert payload["error"] == "index_not_found"
        assert payload["status"] == 404

    def test_build_with_missing_blob_is_404(self, server):
        status, payload = _post(
            server, "/indexes/x/build", {"blobs": ["corpora/nothere.txt"]}
        )
        assert status == 404
        assert payload["error"] == "blob_not_found"

    def test_build_without_blobs_is_400(self, server):
        status, payload = _post(server, "/indexes/x/build", {"num_bins": 64})
        assert status == 400
        assert payload["error"] == "bad_build_request"


class TestSearch:
    def test_keyword_search_end_to_end(self, server):
        _build_index(server)
        status, payload = _post(
            server, "/search", {"index": "logs-index", "query": "error", "top_k": 10}
        )
        assert status == 200
        assert payload["mode"] == "keyword"
        assert payload["num_results"] == 3
        assert all("error" in doc["text"] for doc in payload["documents"])
        assert payload["false_positive_count"] >= 0
        assert payload["latency"]["round_trips"] >= 2
        assert "total_ms" in payload["latency"]

    def test_boolean_search(self, server):
        _build_index(server)
        status, payload = _post(
            server,
            "/search",
            {"index": "logs-index", "query": "error AND (disk OR timeout)", "mode": "boolean"},
        )
        assert status == 200
        assert payload["num_results"] == 2

    def test_regex_search(self, server):
        _build_index(server)
        status, payload = _post(
            server,
            "/search",
            {"index": "logs-index", "query": r"error .* node\d", "mode": "regex"},
        )
        assert status == 200
        assert payload["num_results"] >= 1
        assert all("error" in doc["text"] for doc in payload["documents"])

    def test_include_text_false_returns_references_only(self, server):
        _build_index(server)
        status, payload = _post(
            server,
            "/search",
            {"index": "logs-index", "query": "error", "include_text": False},
        )
        assert status == 200
        assert payload["num_results"] == 3
        for doc in payload["documents"]:
            assert "text" not in doc
            assert doc["blob"] == "corpora/logs.txt"

    def test_ranked_search_end_to_end(self, server):
        _build_index(server)
        status, payload = _post(
            server,
            "/search",
            {"index": "logs-index", "query": "error", "mode": "topk_bm25", "top_k": 2},
        )
        assert status == 200
        assert payload["mode"] == "topk_bm25"
        assert payload["num_results"] == 2
        scores = [doc["score"] for doc in payload["documents"]]
        assert all(0.0 <= score <= 1.0 for score in scores)
        assert scores == sorted(scores, reverse=True)
        assert all("error" in doc["text"] for doc in payload["documents"])

    def test_ranked_search_defaults_k_when_omitted(self, server):
        _build_index(server)
        status, payload = _post(
            server, "/search", {"index": "logs-index", "query": "error", "mode": "topk_bm25"}
        )
        assert status == 200
        # All three matches fit under the default k of 10.
        assert payload["num_results"] == 3

    def test_ranked_search_accepts_weights(self, server):
        _build_index(server)
        status, payload = _post(
            server,
            "/search",
            {
                "index": "logs-index",
                "query": "error timeout",
                "mode": "topk_bm25",
                "weights": {"timeout": 3.0},
            },
        )
        assert status == 200
        assert payload["documents"][0]["text"] == "error timeout connecting to node2"

    def test_bad_weights_are_400(self, server):
        _build_index(server)
        status, payload = _post(
            server,
            "/search",
            {
                "index": "logs-index",
                "query": "error",
                "mode": "topk_bm25",
                "weights": {"error": -2.0},
            },
        )
        assert status == 400
        assert payload["error"] == "bad_request"

    def test_ranked_search_without_stats_blob_is_typed_400(self, server, tmp_path):
        _build_index(server)
        (tmp_path / "bucket" / "logs-index" / "stats.json").unlink()
        status, payload = _post(
            server, "/search", {"index": "logs-index", "query": "error", "mode": "topk_bm25"}
        )
        assert status == 400
        assert payload["error"] == "ranking_unavailable"
        assert "rebuild" in payload["message"]

    def test_search_unknown_index_is_404(self, server):
        status, payload = _post(server, "/search", {"index": "missing", "query": "error"})
        assert status == 404
        assert payload["error"] == "index_not_found"

    def test_bad_mode_is_400(self, server):
        _build_index(server)
        status, payload = _post(
            server, "/search", {"index": "logs-index", "query": "x", "mode": "fuzzy"}
        )
        assert status == 400
        assert payload["error"] == "bad_request"

    def test_malformed_json_body_is_400(self, server):
        status, payload = _post(server, "/search", b"{not json")
        assert status == 400
        assert payload["error"] == "bad_request"

    def test_malformed_boolean_query_is_400(self, server):
        _build_index(server)
        status, payload = _post(
            server,
            "/search",
            {"index": "logs-index", "query": "error AND (disk", "mode": "boolean"},
        )
        assert status == 400
        assert payload["error"] == "bad_query"

    def test_unknown_route_is_404(self, server):
        status, payload = _get(server, "/nothing/here")
        assert status == 404
        assert payload["error"] == "not_found"

    def test_non_string_query_is_400(self, server):
        _build_index(server)
        status, payload = _post(server, "/search", {"index": "logs-index", "query": 5})
        assert status == 400
        assert payload["error"] == "bad_request"

    def test_keep_alive_survives_an_early_error_response(self, server):
        # A POST whose body is never consumed by the handler (404 before the
        # body is read) must not desync the next request on the same
        # persistent connection.
        _build_index(server)
        connection = http.client.HTTPConnection("127.0.0.1", server.port, timeout=10)
        try:
            body = json.dumps({"query": "error", "padding": "x" * 4096})
            connection.request(
                "POST", "/searches", body=body, headers={"Content-Type": "application/json"}
            )
            response = connection.getresponse()
            assert response.status == 404
            response.read()
            connection.request(
                "POST",
                "/search",
                body=json.dumps({"index": "logs-index", "query": "error"}),
                headers={"Content-Type": "application/json"},
            )
            response = connection.getresponse()
            assert response.status == 200
            assert json.loads(response.read())["num_results"] == 3
        finally:
            connection.close()

    def test_every_response_is_one_write(self, server, monkeypatch):
        # Status line, headers and body leave in one write, error answers
        # included: two writes on a keep-alive connection meet Nagle and the
        # client's delayed ACK.
        from repro.service.http import AirphantRequestHandler

        _build_index(server)
        writes = []

        class CountingWriter:
            def __init__(self, inner):
                self._inner = inner

            def write(self, data):
                writes.append(bytes(data))
                return self._inner.write(data)

            def __getattr__(self, name):
                return getattr(self._inner, name)

        setup = AirphantRequestHandler.setup

        def counting_setup(handler):
            setup(handler)
            handler.wfile = CountingWriter(handler.wfile)

        monkeypatch.setattr(AirphantRequestHandler, "setup", counting_setup)
        connection = http.client.HTTPConnection("127.0.0.1", server.port, timeout=10)
        exchanges = [
            ("GET", "/healthz", None, 200),
            ("POST", "/search", json.dumps({"index": "logs-index", "query": "error"}), 200),
            ("GET", "/metrics", None, 200),
            ("GET", "/nothing/here", None, 404),
            ("POST", "/search", "{not json", 400),
            ("POST", "/searches", json.dumps({"padding": "x" * 4096}), 404),
        ]
        try:
            for method, path, body, status in exchanges:
                connection.request(method, path, body=body)
                response = connection.getresponse()
                assert response.status == status
                assert len(response.read()) == int(response.headers["Content-Length"])
        finally:
            connection.close()
        assert len(writes) == len(exchanges)
        assert all(write.startswith(b"HTTP/1.1 ") for write in writes)

    def test_concurrent_requests(self, server):
        _build_index(server)
        results = []

        def query():
            results.append(
                _post(server, "/search", {"index": "logs-index", "query": "error"})
            )

        threads = [threading.Thread(target=query) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=10)
        assert len(results) == 8
        assert all(status == 200 and payload["num_results"] == 3 for status, payload in results)


class TestStoreFailures:
    """Backend failures must surface as typed JSON errors, not 500s."""

    @pytest.fixture
    def flaky_server(self, tmp_path):
        from repro.storage.faults import FlakyStore
        from repro.storage.local import LocalObjectStore
        from repro.storage.resilient import ResilientStore

        inner = LocalObjectStore(str(tmp_path / "bucket"))
        inner.put("corpora/logs.txt", CORPUS)
        flaky = FlakyStore(inner)
        store = ResilientStore(flaky, retries=1, backoff_ms=0.0)
        service = AirphantService(store, ServiceConfig(query_cache_size=8))
        server = create_server(service, host="127.0.0.1", port=0)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        try:
            yield server, flaky
        finally:
            server.shutdown()
            server.server_close()
            thread.join(timeout=5)

    def test_retry_exhaustion_surfaces_as_503_store_unavailable(self, flaky_server):
        server, flaky = flaky_server
        status, _ = _build_index(server)
        assert status == 200
        # From now on every read fails; 1 retry cannot save the query.
        flaky.error_rate = 1.0
        status, payload = _post(
            server, "/search", {"index": "logs-index", "query": "error"}
        )
        assert status == 503
        assert payload["error"] == "store_unavailable"
        assert payload["status"] == 503
        assert "attempt" in payload["message"]

    def test_transient_faults_are_retried_transparently(self, flaky_server):
        server, flaky = flaky_server
        assert _build_index(server)[0] == 200
        # Exactly one fault per wave of reads: a single retry always rescues.
        flaky.script(["error"])
        status, payload = _post(
            server, "/search", {"index": "logs-index", "query": "error"}
        )
        assert status == 200
        assert payload["num_results"] == 3

    def test_healthz_reports_resilient_store(self, flaky_server):
        server, _ = flaky_server
        status, payload = _get(server, "/healthz")
        assert status == 200
        assert payload["store"]["type"] == "ResilientStore"

    def test_listing_during_outage_is_typed_503(self, flaky_server):
        """GET /indexes honours the same error contract as POST /search."""
        server, flaky = flaky_server
        assert _build_index(server)[0] == 200

        def listing_fails(prefix=""):
            from repro.storage.base import TransientStoreError

            raise TransientStoreError("injected listing outage")

        flaky.list_blobs = listing_fails
        status, payload = _get(server, "/indexes")
        assert status == 503
        assert payload["error"] == "store_unavailable"

    def test_healthz_degrades_instead_of_failing_during_outage(self, flaky_server):
        server, flaky = flaky_server

        def listing_fails(prefix=""):
            from repro.storage.base import TransientStoreError

            raise TransientStoreError("injected listing outage")

        flaky.list_blobs = listing_fails
        status, payload = _get(server, "/healthz")
        assert status == 200
        assert payload["status"] == "degraded"
        assert "outage" in payload["store_error"]
        assert "indexes" not in payload

    def test_missing_container_is_typed_404_and_degraded_health(self, flaky_server):
        """An s3:// URI naming a nonexistent bucket answers 404 on listing;
        that must be a typed error / degraded health, never a 500."""
        server, flaky = flaky_server

        def listing_404(prefix=""):
            from repro.storage.base import BlobNotFoundError

            raise BlobNotFoundError("<list>")

        flaky.list_blobs = listing_404
        status, payload = _get(server, "/indexes")
        assert status == 404
        assert payload["error"] == "store_not_found"
        status, payload = _get(server, "/healthz")
        assert status == 200
        assert payload["status"] == "degraded"


class TestTracesEndpoints:
    def test_explain_trace_is_retained_and_served(self, server):
        _build_index(server)
        status, body = _post(
            server, "/search", {"query": "error", "index": "logs-index", "explain": True}
        )
        assert status == 200
        trace_id = body["trace"]["trace_id"]
        status, listing = _get(server, "/traces")
        assert status == 200
        assert any(entry["trace_id"] == trace_id for entry in listing["traces"])
        status, payload = _get(server, f"/traces/{trace_id}")
        assert status == 200
        assert payload["trace_id"] == trace_id
        assert payload["spans"]["name"] == "query"
        assert payload["summary"]["totals"]["requests"] > 0

    def test_plain_search_attaches_no_trace(self, server):
        _build_index(server)
        status, body = _post(server, "/search", {"query": "error", "index": "logs-index"})
        assert status == 200
        assert "trace" not in body

    def test_unknown_trace_is_404(self, server):
        status, payload = _get(server, "/traces/deadbeefdeadbeef")
        assert status == 404
        assert payload["error"] == "trace_not_found"

    def test_bad_limit_is_400(self, server):
        for limit in ("0", "junk"):
            status, payload = _get(server, f"/traces?limit={limit}")
            assert status == 400
            assert payload["error"] == "bad_request"

    def test_traces_404_when_tracing_disabled(self, tmp_path):
        store = LocalObjectStore(str(tmp_path / "bucket"))
        service = AirphantService(store, ServiceConfig(tracing_enabled=False))
        server = create_server(service)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        try:
            status, payload = _get(server, "/traces")
            assert status == 404
            assert payload["error"] == "tracing_disabled"
        finally:
            server.shutdown()
            server.server_close()
            thread.join(timeout=5)


class TestJsonRequestLog:
    def _capture_server(self, tmp_path, monkeypatch):
        import io

        store = LocalObjectStore(str(tmp_path / "bucket"))
        store.put("corpora/logs.txt", CORPUS)
        service = AirphantService(store)
        buffer = io.StringIO()
        monkeypatch.setattr("sys.stderr", buffer)
        server = create_server(service, quiet=False, log_format="json")
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        return server, thread, buffer

    @staticmethod
    def _wait_lines(buffer, count, timeout=5.0):
        import time

        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            lines = [line for line in buffer.getvalue().splitlines() if line.strip()]
            if len(lines) >= count:
                return lines
            time.sleep(0.01)
        return [line for line in buffer.getvalue().splitlines() if line.strip()]

    def test_one_structured_line_per_request(self, tmp_path, monkeypatch):
        server, thread, buffer = self._capture_server(tmp_path, monkeypatch)
        try:
            _get(server, "/healthz")
            _post(server, "/search", {"query": "error", "index": "missing"})
        finally:
            server.shutdown()
            server.server_close()
            thread.join(timeout=5)
        lines = self._wait_lines(buffer, 2)
        records = [json.loads(line) for line in lines]
        assert [r["event"] for r in records] == ["request", "request"]
        # Each line is written after its response, on the handler's own thread,
        # so the two may land in either order.
        health, search = sorted(records, key=lambda r: r["method"])
        assert health["method"] == "GET"
        assert health["path"] == "/healthz"
        assert health["status"] == 200
        assert health["duration_ms"] >= 0
        assert "trace_id" not in health
        # The search line correlates with the query's trace even on errors.
        assert search["method"] == "POST"
        assert search["path"] == "/search"
        assert search["status"] == 404
        assert len(search["trace_id"]) == 16

    def test_unknown_log_format_is_rejected(self, tmp_path):
        store = LocalObjectStore(str(tmp_path / "bucket"))
        service = AirphantService(store)
        with pytest.raises(ValueError, match="log_format"):
            create_server(service, log_format="xml")
