"""Service-level tests for deletes, updates, and ingest backpressure.

Read-your-writes for the mutable lifecycle at every searcher tier the
facade composes: the memtable, a flushed delta, the (optionally sharded)
base, and a cluster router — plus the typed 429 overload
answer and the HTTP wire format of ``/docs/delete`` and ``/docs/update``.
"""

from __future__ import annotations

import json
import threading
import urllib.error
import urllib.request

import pytest

from repro.parsing.documents import Posting
from repro.service.api import SearchRequest, ServiceError
from repro.service.config import ServiceConfig
from repro.service.facade import AirphantService
from repro.service.http import create_server
from repro.storage.memory import InMemoryObjectStore

CORPUS = b"error disk full\ninfo service ok\nwarn slow response\n"

BASE_REF = Posting(blob="corpus/base.txt", offset=0, length=15)


def _service(store=None, num_shards: int = 1, **config) -> AirphantService:
    store = store if store is not None else InMemoryObjectStore()
    if not store.exists("corpus/base.txt"):
        store.put("corpus/base.txt", CORPUS)
    service = AirphantService(store, ServiceConfig(ingest_interval_s=0, **config))
    service.build_index("live", ["corpus/base.txt"], num_shards=num_shards)
    return service


def _texts(service, query, mode="keyword", top_k=None, index="live") -> set[str]:
    result = service.search(
        SearchRequest(index=index, query=query, mode=mode, top_k=top_k)
    )
    return {d["text"] for d in result.to_dict()["documents"]}


class TestDeleteReadYourWrites:
    def test_base_tier(self):
        service = _service()
        service.delete_documents("live", [BASE_REF])
        assert "error disk full" not in _texts(service, "error")
        service.close()

    def test_sharded_base_tier(self):
        service = _service(num_shards=3)
        service.delete_documents("live", [BASE_REF])
        assert "error disk full" not in _texts(service, "error")
        assert "error disk full" not in _texts(service, "error OR info", mode="boolean")
        service.close()

    def test_memtable_tier(self):
        service = _service()
        refs = service.append_documents("live", ["error fresh event"])["refs"]
        service.delete_documents("live", [Posting(**refs[0])])
        assert "error fresh event" not in _texts(service, "fresh")
        service.close()

    def test_delta_tier(self):
        service = _service()
        refs = service.append_documents("live", ["error fresh event"])["refs"]
        service.flush_index("live")
        service.delete_documents("live", [Posting(**refs[0])])
        assert "error fresh event" not in _texts(service, "fresh")
        service.close()

    def test_every_query_mode_filters(self):
        service = _service()
        service.delete_documents("live", [BASE_REF])
        assert "error disk full" not in _texts(service, "error")
        assert "error disk full" not in _texts(service, "error OR warn", mode="boolean")
        assert "error disk full" not in _texts(service, "error .*full", mode="regex")
        assert "error disk full" not in _texts(
            service, "error", mode="topk_bm25", top_k=5
        )
        service.close()

    def test_delete_survives_service_reopen(self):
        store = InMemoryObjectStore()
        service = _service(store)
        service.delete_documents("live", [BASE_REF])
        service.close()
        reopened = AirphantService(store, ServiceConfig(ingest_interval_s=0))
        result = reopened.search(SearchRequest(index="live", query="error"))
        assert "error disk full" not in {
            d["text"] for d in result.to_dict()["documents"]
        }
        reopened.close()

    def test_facade_errors(self):
        service = _service()
        with pytest.raises(ServiceError) as excinfo:
            service.delete_documents("live", [])
        assert excinfo.value.status == 400
        with pytest.raises(ServiceError) as excinfo:
            service.delete_documents("ghost", [BASE_REF])
        assert excinfo.value.status == 404
        service.close()


class TestUpdateReadYourWrites:
    def test_update_swaps_text_at_query_time(self):
        service = _service()
        outcome = service.update_document("live", BASE_REF, "error replacement text")
        assert outcome["ref"]["blob"].startswith("live/ingest/upd-")
        visible = _texts(service, "error")
        assert "error replacement text" in visible
        assert "error disk full" not in visible
        service.close()

    def test_update_then_flush_then_compact_stays_replaced(self):
        service = _service()
        service.update_document("live", BASE_REF, "error replacement text")
        service.flush_index("live")
        assert "error disk full" not in _texts(service, "error")
        service.compact_index("live")
        visible = _texts(service, "error")
        assert "error replacement text" in visible
        assert "error disk full" not in visible
        service.close()

    def test_update_errors(self):
        service = _service()
        with pytest.raises(ServiceError) as excinfo:
            service.update_document("live", BASE_REF, "bad\nnewline")
        assert excinfo.value.status == 400
        service.close()


class TestRankingUnderDeletes:
    def test_bm25_equals_rebuild_over_survivors(self):
        from repro.core.config import SketchConfig
        from repro.index.builder import AirphantBuilder
        from repro.parsing.corpus import LineDelimitedCorpusParser
        from repro.search.searcher import AirphantSearcher

        store = InMemoryObjectStore()
        service = _service(store)
        service.delete_documents("live", [BASE_REF])
        live = service.search(
            SearchRequest(index="live", query="error", mode="topk_bm25", top_k=5)
        )

        survivors = [
            d
            for d in LineDelimitedCorpusParser().parse(store, ["corpus/base.txt"])
            if d.ref != BASE_REF
        ]
        AirphantBuilder(store, config=SketchConfig(num_bins=64)).build_from_documents(
            survivors, index_name="reference"
        )
        reference = AirphantSearcher.open(store, index_name="reference")
        expected = reference.search_topk("error", k=5)
        live_ranked = [
            ((d["blob"], d["offset"], d["length"]), round(d["score"], 12))
            for d in live.to_dict()["documents"]
        ]
        expected_ranked = [
            ((d.blob, d.offset, d.length), round(s, 12))
            for d, s in zip(expected.documents, expected.scores)
        ]
        assert live_ranked == expected_ranked
        reference.close()
        service.close()


class TestBackpressure:
    def test_overload_is_a_typed_429(self):
        service = _service(ingest_max_memtable_docs=1, ingest_overload_wait_s=0.0)
        service.append_documents("live", ["error fresh one"])
        with pytest.raises(ServiceError) as excinfo:
            service.append_documents("live", ["error fresh two"])
        assert excinfo.value.status == 429
        assert excinfo.value.info.error == "ingest_overloaded"
        service.close()

    def test_bounded_wait_rides_out_a_flush(self):
        service = _service(ingest_max_memtable_docs=1, ingest_overload_wait_s=5.0)
        service.append_documents("live", ["error fresh one"])
        flusher = threading.Timer(0.05, service.flush_index, args=("live",))
        flusher.start()
        # The append blocks briefly, the flush drains the memtable, and the
        # append then succeeds within the wait budget instead of failing.
        outcome = service.append_documents("live", ["error fresh two"])
        assert outcome["appended"] == 1
        flusher.join()
        service.close()

    def test_updates_respect_backpressure(self):
        service = _service(ingest_max_memtable_docs=1, ingest_overload_wait_s=0.0)
        service.append_documents("live", ["error fresh one"])
        with pytest.raises(ServiceError) as excinfo:
            service.update_document("live", BASE_REF, "error replacement")
        assert excinfo.value.status == 429
        service.close()

    def test_deletes_are_never_backpressured(self):
        # Deletes shrink the memtable; refusing them during overload would
        # wedge the system in exactly the state it needs deletes to escape.
        service = _service(ingest_max_memtable_docs=1, ingest_overload_wait_s=0.0)
        refs = service.append_documents("live", ["error fresh one"])["refs"]
        outcome = service.delete_documents("live", [Posting(**refs[0])])
        assert outcome["deleted"] == 1
        service.close()


class TestClusterTier:
    def test_routed_answers_filter_deletes(self):
        store = InMemoryObjectStore()
        store.put("corpus/base.txt", CORPUS)
        local = AirphantService(store, ServiceConfig(ingest_interval_s=0))
        local.build_index("live", ["corpus/base.txt"], num_shards=2)
        servers = []
        for _ in range(2):
            node = AirphantService(
                store, ServiceConfig(ingest_interval_s=0, probe_interval_s=0)
            )
            server = create_server(node)
            threading.Thread(target=server.serve_forever, daemon=True).start()
            servers.append(server)
        router = AirphantService(
            store,
            ServiceConfig(
                ingest_interval_s=0,
                probe_interval_s=0,
                peers=tuple(server.url for server in servers),
            ),
        )
        try:
            local.delete_documents("live", [BASE_REF])
            result = router.search(SearchRequest(index="live", query="error"))
            texts = {d["text"] for d in result.to_dict()["documents"]}
            # The peer answers the routed query from the shared store's WAL
            # manifest, so the routed answer filters the delete committed
            # through a *different* service instance.
            assert "error disk full" not in texts
        finally:
            router.close()
            local.close()
            for server in servers:
                server.shutdown()
                server.server_close()


@pytest.fixture
def server():
    store = InMemoryObjectStore()
    store.put("corpus/base.txt", CORPUS)
    service = AirphantService(store, ServiceConfig(ingest_interval_s=0))
    service.build_index("live", ["corpus/base.txt"])
    server = create_server(service, host="127.0.0.1", port=0)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        yield server
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=5)


def _post(server, path, body):
    request = urllib.request.Request(
        f"{server.url}{path}",
        data=json.dumps(body).encode("utf-8"),
        headers={"Content-Type": "application/json"},
        method="POST",
    )
    try:
        with urllib.request.urlopen(request, timeout=10) as response:
            return response.status, json.loads(response.read())
    except urllib.error.HTTPError as error:
        return error.code, json.loads(error.read())


class TestLifecycleHTTP:
    def test_delete_route(self, server):
        ref = {"blob": BASE_REF.blob, "offset": BASE_REF.offset, "length": BASE_REF.length}
        status, body = _post(server, "/indexes/live/docs/delete", {"refs": [ref]})
        assert status == 200
        assert body["deleted"] == 1
        status, result = _post(
            server, "/search", {"index": "live", "query": "error"}
        )
        assert "error disk full" not in {d["text"] for d in result["documents"]}

    def test_update_route(self, server):
        ref = {"blob": BASE_REF.blob, "offset": BASE_REF.offset, "length": BASE_REF.length}
        status, body = _post(
            server,
            "/indexes/live/docs/update",
            {"ref": ref, "document": "error replacement text"},
        )
        assert status == 200
        assert body["ref"]["blob"].startswith("live/ingest/upd-")
        status, result = _post(
            server, "/search", {"index": "live", "query": "replacement"}
        )
        assert {d["text"] for d in result["documents"]} == {"error replacement text"}

    def test_delete_route_rejects_bad_bodies(self, server):
        for body in (
            {},
            {"refs": []},
            {"refs": "nope"},
            {"refs": [{"blob": "b"}]},
            {"refs": [{"blob": "b", "offset": -1, "length": 3}]},
            {"refs": [{"blob": "b", "offset": 0, "length": 0}]},
            {"refs": [{"blob": "b", "offset": 0, "length": 3, "extra": 1}]},
            {"refs": [{"blob": "b", "offset": 0, "length": 3}], "extra": 1},
        ):
            status, payload = _post(server, "/indexes/live/docs/delete", body)
            assert status == 400, body
            assert payload["error"] == "bad_ingest_request"

    def test_update_route_rejects_bad_bodies(self, server):
        ref = {"blob": "b", "offset": 0, "length": 3}
        for body in (
            {},
            {"ref": ref},
            {"document": "text"},
            {"ref": "nope", "document": "text"},
            {"ref": ref, "document": 7},
            {"ref": ref, "document": "text", "extra": 1},
        ):
            status, payload = _post(server, "/indexes/live/docs/update", body)
            assert status == 400, body
            assert payload["error"] == "bad_ingest_request"

    def test_overload_maps_to_http_429(self):
        store = InMemoryObjectStore()
        store.put("corpus/base.txt", CORPUS)
        service = AirphantService(
            store,
            ServiceConfig(
                ingest_interval_s=0,
                ingest_max_memtable_docs=1,
                ingest_overload_wait_s=0.0,
            ),
        )
        service.build_index("live", ["corpus/base.txt"])
        server = create_server(service, host="127.0.0.1", port=0)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        try:
            status, _ = _post(
                server, "/indexes/live/docs", {"documents": ["error fresh one"]}
            )
            assert status == 200
            status, body = _post(
                server, "/indexes/live/docs", {"documents": ["error fresh two"]}
            )
            assert status == 429
            assert body["error"] == "ingest_overloaded"
        finally:
            server.shutdown()
            server.server_close()
            thread.join(timeout=5)
