"""Service-level ingestion: facade methods, HTTP endpoints, consistency.

The acceptance contract under test: a document appended through the service
is returned by keyword, Boolean, and regex search *before* any flush; it
survives a simulated crash (a new service over the same store replays the
WAL); and the flush/compaction lifecycle is observable through ``/healthz``
and ``/metrics``.
"""

from __future__ import annotations

import json
import threading
import time
import urllib.error
import urllib.request

import pytest
from harness.prometheus import parse_prometheus
from harness.stores import RecordingStore

from repro.core.config import SketchConfig
from repro.index.builder import AirphantBuilder
from repro.index.store_layout import open_headers
from repro.index.updates import AppendOnlyIndexManager
from repro.observability import MetricsRegistry
from repro.parsing.documents import Document, Posting
from repro.service import (
    AirphantService,
    SearchRequest,
    ServiceConfig,
    ServiceError,
    create_server,
)
from repro.storage.memory import InMemoryObjectStore
from repro.workloads.logs import generate_log_corpus

CORPUS = b"error disk full\ninfo service ok\nwarn slow response\n"

#: No background worker: tests drive flush/compaction deterministically.
MANUAL = ServiceConfig(ingest_interval_s=0)


def _service(store=None, config: ServiceConfig = MANUAL) -> AirphantService:
    store = store if store is not None else InMemoryObjectStore()
    # A private registry per service keeps metric assertions exact (the
    # process-wide default accumulates across tests).
    service = AirphantService(store, config, metrics=MetricsRegistry())
    store.put("corpus/base.txt", CORPUS)
    service.build_index("idx", ["corpus/base.txt"], sketch_config=SketchConfig(num_bins=64))
    return service


def _texts(service: AirphantService, query: str, mode: str = "keyword") -> set[str]:
    request = SearchRequest(query=query, index="idx", mode=mode)
    return {d.text for d in service.execute(request).documents}


class TestReadYourWrites:
    def test_appended_documents_visible_in_every_mode_before_flush(self):
        service = _service()
        service.append_documents("idx", ["error fresh event", "warn fresh alarm"])
        assert "error fresh event" in _texts(service, "error")
        assert "error fresh event" in _texts(service, "error AND fresh", "boolean")
        assert {"error fresh event", "warn fresh alarm"} <= _texts(
            service, "error OR warn", "boolean"
        )
        assert _texts(service, "fresh .*event", "regex") == {"error fresh event"}
        # lookup_postings is the unfiltered term-index operation: the base
        # sketch may contribute false positives, but both memtable postings
        # (exact, pointing into the WAL segment) must be present.
        postings, _ = service.lookup_postings("idx", "fresh")
        assert sum(p.blob.startswith("idx/ingest/seg-") for p in postings) == 2
        service.close()

    def test_base_and_memtable_results_merge_without_duplicates(self):
        service = _service()
        service.append_documents("idx", ["error fresh event"])
        result = service.execute(SearchRequest(query="error", index="idx"))
        refs = [d.ref for d in result.documents]
        assert len(refs) == len(set(refs))
        assert {d.text for d in result.documents} == {
            "error disk full",
            "error fresh event",
        }
        service.close()

    def test_visibility_survives_flush_and_compact(self):
        service = _service()
        service.append_documents("idx", ["error fresh event"])
        flushed = service.flush_index("idx")
        assert flushed["flushed"] == 1
        assert "error fresh event" in _texts(service, "fresh")
        compacted = service.compact_index("idx")
        assert compacted["compacted"] is True
        assert "error fresh event" in _texts(service, "fresh")
        assert _texts(service, "fresh .*event", "regex") == {"error fresh event"}
        service.close()


class TestDurability:
    def test_unflushed_documents_survive_a_simulated_crash(self):
        store = InMemoryObjectStore()
        service = _service(store)
        service.append_documents("idx", ["error fresh event"])
        # Simulated crash: the service vanishes without flush or close; a
        # new process opens the same store and must replay the WAL.
        del service
        reopened = AirphantService(store, MANUAL)
        assert "error fresh event" in _texts(reopened, "fresh")
        assert "error fresh event" in _texts(reopened, "error AND fresh", "boolean")
        assert _texts(reopened, "fresh .*event", "regex") == {"error fresh event"}
        health = reopened.health()
        assert health["ingest"]["wal_segments_active"] == 1
        assert health["ingest"]["memtable_documents"] == 1
        # Flushing on the reopened node drains the replayed WAL.
        reopened.flush_index("idx")
        assert reopened.health()["ingest"]["wal_segments_active"] == 0
        assert "error fresh event" in _texts(reopened, "fresh")
        reopened.close()

    def test_rebuild_discards_live_state(self):
        store = InMemoryObjectStore()
        service = _service(store)
        service.append_documents("idx", ["error fresh event"])
        service.flush_index("idx")
        service.append_documents("idx", ["warn stale leftover"])
        # Rebuilding the index from the base corpus is authoritative.
        service.build_index("idx", ["corpus/base.txt"], sketch_config=SketchConfig(num_bins=64))
        assert _texts(service, "fresh") == set()
        assert _texts(service, "leftover") == set()
        # The old base and delta are retired (one swap of grace for readers
        # that hold the old manifest), not referenced; so is the old WAL,
        # whose segments the old delta points into.
        manifest = AppendOnlyIndexManager(store, "idx").manifest()
        assert manifest.all_indexes == ["idx/gen-00000001"]
        assert set(manifest.retired) == {"idx", "idx/delta-0000"}
        assert (manifest.retired_floor, manifest.floor) == (0, manifest.reserved_end)
        assert not manifest.has_wal
        assert len(store.list_blobs(prefix="idx/ingest/seg-")) == 2
        # The discarded predecessor's occupancy gauges go with it: no
        # phantom memtable documents on a freshly rebuilt index.
        gauge = service.metrics.gauge("airphant_memtable_documents", label_names=("index",))
        assert gauge.series() == {}
        # Post-rebuild deltas never reuse a retired prefix: numbering stays
        # monotonic across the rebuild.
        appended = service.append_documents("idx", ["info post rebuild"])
        flushed = service.flush_index("idx")
        assert flushed["delta"] == "idx/delta-0001"
        # The next swap purges the old WAL with the old builds; the WAL it
        # retires in turn keeps its grace.
        service.build_index("idx", ["corpus/base.txt"], sketch_config=SketchConfig(num_bins=64))
        assert store.list_blobs(prefix="idx/ingest/") == [appended["wal_segment"]]
        assert store.list_blobs(prefix="idx/delta-0000/") == []
        service.close()

    def test_read_only_store_append_is_a_typed_400(self, monkeypatch):
        from repro.storage.base import ReadOnlyStoreError

        service = _service()
        monkeypatch.setattr(
            service.store,
            "put",
            lambda *a, **k: (_ for _ in ()).throw(ReadOnlyStoreError("static export")),
        )
        with pytest.raises(ServiceError) as excinfo:
            service.append_documents("idx", ["doc one"])
        assert excinfo.value.status == 400
        assert excinfo.value.info.error == "store_read_only"
        service.close()

    def test_compact_of_a_plain_index_does_not_register_live_state(self):
        service = _service()
        outcome = service.compact_index("idx")
        assert outcome == {"index": "idx", "compacted": False, "deltas_folded": 0}
        # No LiveIndex was created and no background worker started just to
        # answer a no-op.
        summary = service.ingest.summary()
        assert summary["live_indexes"] == 0
        assert not summary["worker_running"]
        service.close()


class TestValidation:
    def test_append_to_unknown_index_is_404(self):
        service = _service()
        with pytest.raises(ServiceError) as excinfo:
            service.append_documents("nope", ["doc"])
        assert excinfo.value.status == 404
        service.close()

    def test_bad_documents_are_400(self):
        service = _service()
        with pytest.raises(ServiceError) as excinfo:
            service.append_documents("idx", ["with\nnewline"])
        assert excinfo.value.status == 400
        with pytest.raises(ServiceError) as excinfo:
            service.append_documents("idx", [])
        assert excinfo.value.status == 400
        service.close()

    def test_flush_and_compact_require_an_existing_index(self):
        service = _service()
        for method in (service.flush_index, service.compact_index):
            with pytest.raises(ServiceError) as excinfo:
                method("nope")
            assert excinfo.value.status == 404
        service.close()


class TestBackgroundWorker:
    def test_policy_flush_and_compaction_happen_without_manual_calls(self):
        config = ServiceConfig(
            ingest_interval_s=0.02, ingest_flush_docs=2, ingest_compact_deltas=1
        )
        service = _service(config=config)
        service.append_documents("idx", ["error fresh one", "warn fresh two"])
        deadline = time.monotonic() + 10.0
        while time.monotonic() < deadline:
            summary = service.ingest.summary()
            if summary["memtable_documents"] == 0 and summary["delta_indexes"] == 0:
                break
            time.sleep(0.02)
        summary = service.ingest.summary()
        assert summary["memtable_documents"] == 0, "worker never flushed"
        assert summary["delta_indexes"] == 0, "worker never compacted"
        assert summary["worker_running"]
        # The compacted documents are served from the new base generation.
        assert "error fresh one" in _texts(service, "fresh")
        service.close()
        assert not service.ingest.summary()["worker_running"]


class TestHTTPEndpoints:
    @pytest.fixture
    def server(self):
        service = _service()
        http_server = create_server(service)
        thread = threading.Thread(target=http_server.serve_forever, daemon=True)
        thread.start()
        try:
            yield http_server
        finally:
            http_server.shutdown()
            http_server.server_close()
            thread.join(timeout=5)
            service.close()

    def _post(self, url: str, payload: dict | None = None) -> dict:
        body = json.dumps(payload).encode("utf-8") if payload is not None else b""
        request = urllib.request.Request(url, data=body, method="POST")
        with urllib.request.urlopen(request, timeout=10.0) as response:
            return json.loads(response.read())

    def _get(self, url: str) -> bytes:
        with urllib.request.urlopen(url, timeout=10.0) as response:
            return response.read()

    def test_docs_flush_compact_flow_over_http(self, server):
        base = server.url
        appended = self._post(
            f"{base}/indexes/idx/docs", {"documents": ["error fresh event"]}
        )
        assert appended["appended"] == 1
        assert appended["wal_segment"].startswith("idx/ingest/seg-")

        searched = self._post(
            f"{base}/search", {"index": "idx", "query": "fresh", "mode": "keyword"}
        )
        assert [hit["text"] for hit in searched["documents"]] == ["error fresh event"]

        health = json.loads(self._get(f"{base}/healthz"))
        assert health["ingest"]["memtable_documents"] == 1
        assert health["ingest"]["wal_segments_active"] == 1

        flushed = self._post(f"{base}/indexes/idx/flush")
        assert flushed["flushed"] == 1
        compacted = self._post(f"{base}/indexes/idx/compact")
        assert compacted["compacted"] is True
        assert compacted["generation"] >= 1

        searched = self._post(
            f"{base}/search", {"index": "idx", "query": "fresh", "mode": "regex"}
        )
        assert [hit["text"] for hit in searched["documents"]] == ["error fresh event"]

        families = parse_prometheus(self._get(f"{base}/metrics").decode("utf-8"))
        assert families["airphant_ingest_documents_total"].value(index="idx") == 1
        assert families["airphant_ingest_flushes_total"].total() >= 1
        assert families["airphant_ingest_compactions_total"].value(index="idx") == 1
        assert families["airphant_wal_segments_total"].value(index="idx") == 1
        assert families["airphant_memtable_documents"].value(index="idx") == 0
        assert families["airphant_ingest_flush_seconds"].histogram_count() >= 1
        # The per-index query labels and the occupancy gauges ride along.
        assert families["airphant_queries_total"].value(mode="keyword", index="idx") >= 1
        assert families["airphant_open_indexes"].value() >= 1
        assert families["airphant_read_cache_bytes_used"].kind == "gauge"

    def test_bad_ingest_bodies_are_rejected(self, server):
        base = server.url
        for payload in ({}, {"documents": []}, {"documents": [1]}, {"docs": ["x"]}):
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                self._post(f"{base}/indexes/idx/docs", payload)
            assert excinfo.value.code == 400
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            self._post(f"{base}/indexes/nope/docs", {"documents": ["x"]})
        assert excinfo.value.code == 404


def _recorded(store, build: str) -> tuple[int, float, int]:
    """``(B, F₀, seed)`` as build ``build``'s header records them."""
    metadata = open_headers(store, [build]).builds[0].header.metadata_of()
    return metadata.num_bins, metadata.target_false_positives, metadata.seed


def _blobs(store, build: str) -> dict[str, bytes]:
    return {name: store.get(name) for name in store.list_blobs(prefix=f"{build}/")}


class TestSketchParameters:
    """A live index builds its deltas and compactions under the bin budget,
    accuracy target and seed its base was built with, not the defaults."""

    CONFIG = SketchConfig(num_bins=3000, seed=5)

    def test_deltas_and_compactions_keep_the_base_parameters(self):
        store = InMemoryObjectStore()
        corpus = generate_log_corpus(store, "hdfs", 400, seed=8)
        service = AirphantService(store, MANUAL, metrics=MetricsRegistry())
        service.build_index("logs", corpus.blob_names, sketch_config=self.CONFIG)
        texts = ["ERROR fresh disk full", "INFO fresh block report", "WARN fresh slow"]
        refs = [Posting(**ref) for ref in service.append_documents("logs", texts)["refs"]]
        delta = service.flush_index("logs")["delta"]
        condemned = {corpus.documents[7].ref, refs[1]}
        service.delete_documents("logs", sorted(condemned))
        generation = service.compact_index("logs")["base"]
        service.close()

        for build in ("logs", delta, generation):
            assert _recorded(store, build) == (3000, 1.0, 5), build
        appended = [Document(ref, text) for ref, text in zip(refs, texts)]
        survivors = [d for d in corpus.documents + appended if d.ref not in condemned]
        fresh = InMemoryObjectStore()
        AirphantBuilder(fresh, config=self.CONFIG).build_from_documents(
            survivors, index_name=generation, corpus_name="compacted"
        )
        assert _blobs(store, generation) == _blobs(fresh, generation)

    def test_a_manager_without_config_reads_the_base_header_once(self):
        backend = InMemoryObjectStore()
        corpus = generate_log_corpus(backend, "hdfs", 200, seed=9)
        AirphantBuilder(backend, config=self.CONFIG).build_from_documents(
            corpus.documents, index_name="logs"
        )
        store = RecordingStore(backend)
        manager = AppendOnlyIndexManager(store, "logs")
        batches = generate_log_corpus(InMemoryObjectStore(), "hdfs", 20, seed=10).documents
        deltas = [manager.append(batches[:10]), manager.append(batches[10:])]
        header_reads = [call for call in store.calls if call[1].endswith("header.json")]
        assert [call[1] for call in header_reads if call[0] != "put"] == ["logs/header.json"]
        compacted = manager.compact()
        for build in [*deltas, compacted]:
            assert _recorded(backend, build.index_name) == (3000, 1.0, 5)
        # The compaction opened the new base: appending to it reads no header.
        store.calls.clear()
        later = manager.append(batches[:3])
        reads = [call for call in store.calls if call[0] != "put"]
        assert not [call for call in reads if call[1].endswith("header.json")]
        assert _recorded(backend, later.index_name) == (3000, 1.0, 5)

    def test_a_managers_own_config_wins(self):
        store = InMemoryObjectStore()
        corpus = generate_log_corpus(store, "hdfs", 100, seed=11)
        AirphantBuilder(store, config=self.CONFIG).build_from_documents(
            corpus.documents, index_name="logs"
        )
        manager = AppendOnlyIndexManager(store, "logs", config=SketchConfig(num_bins=700, seed=2))
        delta = manager.append(corpus.documents[:5])
        assert _recorded(store, delta.index_name) == (700, 1.0, 2)
