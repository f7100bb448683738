"""End-to-end tests of the JSON HTTP API on an ephemeral port.

The server runs in a background thread over a temporary directory bucket
(:class:`LocalObjectStore`), exactly as ``airphant serve --bucket ...`` does;
requests go through the real socket with ``urllib``.
"""

import http.client
import json
import struct
import threading
import urllib.error
import urllib.request
from dataclasses import replace

import numpy as np
import pytest

from repro.index.compaction import decode_header, encode_header
from repro.index.store_layout import open_headers
from repro.service import AirphantService, ServiceConfig, create_server
from repro.service.config import READ_CACHE_BYTES
from repro.storage.connections import ConnectionPool
from repro.storage.local import LocalObjectStore

from harness.legacy_header import JSON_STATS_BLOB, V2_STATS_BLOB, retire_format

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
    service = AirphantService(store, ServiceConfig())
    server = create_server(service, host="127.0.0.1", port=0)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        yield server
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=5)
        # Ends the ingest worker a test's append started, which would keep
        # the store, and its fetch pool, alive for the rest of the session.
        service.close()


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


def _codec(header: bytes, version: int) -> bytes:
    """``header`` declaring superpost codec ``version`` instead of 2."""
    return header.replace(b'"codec_version":2', b'"codec_version":%d' % version)


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
        assert payload["config"]["read_cache_bytes"] == READ_CACHE_BYTES

    def test_healthz_counts_built_indexes(self, server):
        _build_index(server)
        status, payload = _get(server, "/healthz")
        assert status == 200
        assert payload["indexes"] == 1

    def test_query_string_is_ignored_by_routing(self, server):
        status, payload = _get(server, "/healthz?verbose=1")
        assert status == 200
        assert payload["status"] == "ok"


class TestServerClose:
    def test_a_kept_alive_connection_is_not_answered_after_the_close(self, tmp_path):
        service = AirphantService(LocalObjectStore(str(tmp_path / "bucket")), ServiceConfig())
        server = create_server(service, host="127.0.0.1", port=0)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        pool = ConnectionPool(server.url)
        try:
            status, _, _ = pool.request("GET", f"{server.url}/healthz", 5.0)
            assert status == 200  # the connection is now idle in the pool
            server.shutdown()
            server.server_close()
            thread.join(timeout=5)
            with pytest.raises((OSError, http.client.HTTPException)):
                pool.request("GET", f"{server.url}/healthz", 5.0)
        finally:
            pool.close()
            service.close()


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

    def test_build_format_field_is_an_unknown_build_field(self, server):
        # Every build writes the v2 codec: there is no format to pick.
        status, payload = _post(
            server, "/indexes/x/build", {"blobs": ["corpora/logs.txt"], "format": "v1"}
        )
        assert status == 400
        assert payload == {
            "status": 400,
            "error": "bad_build_request",
            "message": "unknown build field(s): format",
        }
        assert _get(server, "/indexes/x")[0] == 404


    def test_build_partitioner_field_is_an_unknown_build_field(self, server):
        # Every sharded build routes by document hash: there is no partitioner to pick.
        status, payload = _post(
            server,
            "/indexes/x/build",
            {"blobs": ["corpora/logs.txt"], "num_shards": 2, "partitioner": "round-robin"},
        )
        assert status == 400
        assert payload == {
            "status": 400,
            "error": "bad_build_request",
            "message": "unknown build field(s): partitioner",
        }
        assert _get(server, "/indexes/x")[0] == 404

    def test_build_body_sketch_parameters_carry_to_the_deltas(self, server):
        status, _ = _post(
            server,
            "/indexes/x/build",
            {"blobs": ["corpora/logs.txt"], "num_bins": 500, "seed": 5},
        )
        assert status == 200
        assert _post(server, "/indexes/x/docs", {"documents": ["error fresh one"]})[0] == 200
        status, flushed = _post(server, "/indexes/x/flush", {})
        assert status == 200
        store = server.service.store
        for build in ("x", flushed["delta"]):
            metadata = open_headers(store, [build]).builds[0].header.metadata_of()
            assert (metadata.num_bins, metadata.seed) == (500, 5), build


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

    def test_ranked_search_without_stats_blob_is_typed_409(self, server, tmp_path):
        _build_index(server)
        (tmp_path / "bucket" / "logs-index" / "stats.json").unlink()
        status, payload = _post(
            server, "/search", {"index": "logs-index", "query": "error", "mode": "topk_bm25"}
        )
        assert status == 409
        assert payload["error"] == "index_format"
        assert "logs-index/stats.json" in payload["message"]
        assert "rebuild" in payload["message"]
        status, payload = _post(server, "/search", {"index": "logs-index", "query": "error"})
        assert status == 200 and payload["num_results"] > 0

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

    @pytest.mark.parametrize(
        "method, path, body",
        [("POST", "/search", b'{"index": "logs-index", "query": "error"}'), ("GET", "/healthz", b"")],
        ids=["search", "healthz"],
    )
    @pytest.mark.parametrize("length", ["abc", "-1", "12x"])
    def test_malformed_content_length_is_400_and_closes(self, server, method, path, body, length):
        _build_index(server)
        connection = http.client.HTTPConnection("127.0.0.1", server.port, timeout=10)
        try:
            connection.putrequest(method, path)
            connection.putheader("Content-Length", length)
            connection.endheaders(body)
            response = connection.getresponse()
            assert response.status == 400
            assert response.headers["Connection"] == "close"
            assert json.loads(response.read()) == {
                "status": 400,
                "error": "bad_request",
                "message": f"invalid Content-Length: {length!r}",
            }
        finally:
            connection.close()
        # The server is still answering.
        assert _get(server, "/healthz")[0] == 200

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


class TestCorruptIndex:
    """Stored bytes that do not decode are the store's fault: a typed 502
    naming the blob — never a 500, a 400 that blames the client, or a 404;
    a layout this engine no longer reads is a typed 409."""

    def _search(self, server, index="logs-index"):
        return _post(server, "/search", {"index": index, "query": "error"})

    def test_truncated_header_is_502_index_corrupt(self, server, tmp_path):
        _build_index(server)
        header = tmp_path / "bucket" / "logs-index" / "header.json"
        header.write_bytes(header.read_bytes()[:40])
        status, payload = self._search(server)
        assert (status, payload["error"]) == (502, "index_corrupt")
        assert "logs-index/header.json" in payload["message"]

    def test_garbled_superposts_are_502_index_corrupt(self, server, tmp_path):
        _build_index(server)
        blob = tmp_path / "bucket" / "logs-index" / "superposts.bin"
        blob.write_bytes(b"\xff" * len(blob.read_bytes()))  # every varint runs off the end
        status, payload = self._search(server)
        assert (status, payload["error"]) == (502, "index_corrupt")
        assert "logs-index/superposts.bin" in payload["message"]

    def test_a_split_that_does_not_add_up_to_its_runs_is_502_index_corrupt(
        self, server, tmp_path
    ):
        # A sharded header's runs are their shards' shares added up: a share
        # 2**32 too long wraps a u32 run back to its length, and is corrupt.
        bucket = tmp_path / "bucket"
        with AirphantService(LocalObjectStore(str(bucket)), ServiceConfig()) as builder:
            builder.build_index("split", ["corpora/logs.txt"], num_shards=2)
        path = bucket / "split" / "header.json"
        header = decode_header(path.read_bytes())
        assert header.mht.offsets.itemsize == 4
        common = header.shards.common_lengths.astype(np.uint64)
        common[0, 0] += 1 << 32
        path.write_bytes(
            encode_header(replace(header, shards=replace(header.shards, common_lengths=common)))
        )
        status, payload = self._search(server, "split")
        assert (status, payload["error"]) == (502, "index_corrupt")
        assert "split/header.json" in payload["message"]

    @pytest.mark.parametrize(
        "kept", [lambda n: 1, lambda n: n // 2, lambda n: n - 1], ids=["byte", "half", "trailer"]
    )
    def test_a_truncated_stats_blob_is_502_index_corrupt(self, server, tmp_path, kept):
        # The statistics are the store's bytes, not the request: a stats blob
        # that does not decode is corrupt, never a 400 bad_query.
        _build_index(server)
        blob = tmp_path / "bucket" / "logs-index" / "stats.json"
        data = blob.read_bytes()
        blob.write_bytes(data[: kept(len(data))])
        ranked = {"index": "logs-index", "query": "error", "mode": "topk_bm25", "top_k": 2}
        status, payload = _post(server, "/search", ranked)
        assert (status, payload["error"]) == (502, "index_corrupt")
        assert "logs-index/stats.json" in payload["message"]
        # Membership queries never read the statistics.
        status, payload = self._search(server)
        assert (status, payload["num_results"]) == (200, 3)

    @pytest.mark.parametrize(
        "blob, forge",
        [
            ("shards.json", lambda header: b'{"shards":[{}]}'),
            ("shards.json", lambda header: b"not json"),
            ("header.json", lambda header: b"AIRPSHD\n" + bytes(16)),
            ("header.json", lambda header: b'{"magic":"airphant-header","format_version":2}'),
            ("header.json", lambda header: _codec(header, 1)),
            ("header.json", lambda header: _codec(header, 9)),
            ("header.json", lambda header: header[:8] + struct.pack("<I", 4) + header[12:]),
            ("stats.json", lambda header: JSON_STATS_BLOB),
            ("stats.json", lambda header: V2_STATS_BLOB),
            # A sharded build whose statistics are kept per shard, none at the build.
            ("stats.json", None),
        ],
        ids=[
            "shards.json", "shards.json-bytes", "container", "json-header", "codec-v1",
            "codec-v9", "container-v4", "json-stats", "stats-v2", "shard-stats",
        ],
    )
    def test_a_retired_format_is_a_typed_error(self, server, tmp_path, blob, forge):
        # Whatever it holds, a format this engine does not read is not read:
        # the index is rebuilt from its corpus, and the answer says so.  The
        # index is built by another node: the server opens it cold.
        bucket = tmp_path / "bucket"
        store = LocalObjectStore(str(bucket))
        with AirphantService(store, ServiceConfig()) as builder:
            builder.build_index("broken", ["corpora/logs.txt"], num_shards=1 if forge else 2)
        header = (bucket / "broken" / "header.json").read_bytes()
        if forge is None:
            retire_format(store, "broken", "shard-stats")
        else:
            if blob == "shards.json":
                (bucket / "broken" / "header.json").unlink()
            (bucket / "broken" / blob).write_bytes(forge(header))
        ranked = {"index": "broken", "query": "error", "mode": "topk_bm25", "top_k": 2}
        status, answer = _post(server, "/search", ranked)
        assert "rebuild" in answer["message"]
        assert (status, answer["error"]) == (409, "index_format")
        assert f"broken/{blob}" in answer["message"]
        if blob != "stats.json":
            return
        # Only ranking needs the statistics: membership still answers.
        status, answer = self._search(server, "broken")
        assert (status, answer["num_results"]) == (200, 3)


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
        service = AirphantService(store, ServiceConfig())
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
