"""The block cache is on by default, and never serves a retired index's bytes.

A cached ``(blob, offset, length)`` range is valid because blobs are
immutable while the searcher that cached them is open.  Every event that
changes what an index *is* — a flush, a compaction, a snapshot restore, an
in-place rebuild over a different corpus — retires the searcher and its
cache.  After each one, a warm service must answer byte-for-byte what a
fresh, uncached service over the same bucket answers, the
``airphant_read_cache_bytes_used`` gauge must fall when the retired searcher
goes, and a shard-restricted view (the routed cluster path) must answer a
warm repeat exactly as it answered cold.
"""

from __future__ import annotations

import pytest
from harness.prometheus import parse_prometheus

from repro.core.config import SketchConfig
from repro.observability import MetricsRegistry
from repro.service import AirphantService, SearchRequest, ServiceConfig
from repro.service.config import READ_CACHE_BYTES
from repro.storage.memory import InMemoryObjectStore
from repro.workloads.logs import generate_log_corpus

CONFIG = SketchConfig(num_bins=256, target_false_positives=1.0, seed=7)
INDEX = "idx"
QUERIES = (
    SearchRequest(query="ERROR", index=INDEX),
    SearchRequest(query="INFO block", index=INDEX, top_k=5),
    SearchRequest(query="ERROR OR WARN", index=INDEX, mode="boolean"),
    SearchRequest(query="INFO block", index=INDEX, mode="topk_bm25", top_k=5),
)
APPENDED = ["ERROR freshly appended disk failure", "INFO block freshly appended report"]


def _service(store, **config) -> AirphantService:
    return AirphantService(
        store, ServiceConfig(ingest_interval_s=0, **config), metrics=MetricsRegistry()
    )


def _uncached_answers(store, queries=QUERIES) -> list[dict]:
    """What a fresh node with no block cache at all answers."""
    with _service(store, read_cache_bytes=0) as fresh:
        return _answers(fresh, queries)


def _answers(service: AirphantService, queries=QUERIES) -> list[dict]:
    """Every query's response minus its latency (the one field a cache moves)."""
    answers = []
    for request in queries:
        payload = service.search(request).to_dict()
        payload.pop("latency")
        answers.append(payload)
    return answers


def _cache_bytes_used(service: AirphantService) -> float:
    families = parse_prometheus(service.metrics.to_prometheus())
    return families["airphant_read_cache_bytes_used"].value()


@pytest.fixture
def built():
    """``(store, service, corpus blob)``: one plain index, its block cache warm."""
    store = InMemoryObjectStore()
    corpus = generate_log_corpus(store, "hdfs", 200, seed=5)
    service = _service(store)
    service.build_index(INDEX, corpus.blob_names, sketch_config=CONFIG)
    _answers(service)
    assert service.catalog.open(INDEX).pipeline.cache_bytes == READ_CACHE_BYTES
    assert _cache_bytes_used(service) > 0
    yield store, service, corpus.blob_names[0]
    service.close()


def _assert_fresh_after(store, service, event) -> None:
    """Run ``event``; the cache must empty, and warm answers equal a fresh node's."""
    before = _cache_bytes_used(service)
    event()
    assert _cache_bytes_used(service) < before
    first = _answers(service)
    warm = _answers(service)
    assert service.catalog.open(INDEX).pipeline.stats.cache_hits > 0
    assert first == warm == _uncached_answers(store)


def test_a_flush_retires_the_cached_bytes(built):
    store, service, _ = built

    def flush():
        service.append_documents(INDEX, APPENDED)
        assert service.flush_index(INDEX)["delta"]

    _assert_fresh_after(store, service, flush)


def test_a_compaction_retires_the_cached_bytes(built):
    store, service, _ = built
    for text in APPENDED:
        service.append_documents(INDEX, [text])
        service.flush_index(INDEX)
    _answers(service)
    _assert_fresh_after(store, service, lambda: service.compact_index(INDEX)["compacted"])


def test_a_snapshot_restore_retires_the_cached_bytes(built):
    store, service, _ = built
    service.create_snapshot(INDEX, "before")
    service.append_documents(INDEX, APPENDED)
    service.flush_index(INDEX)
    _answers(service)
    _assert_fresh_after(store, service, lambda: service.restore_snapshot(INDEX, "before"))


def test_an_in_place_rebuild_over_another_corpus_retires_the_cached_bytes(built):
    store, service, blob = built

    def rebuild():
        # The same corpus blob rewritten with INFO and WARN swapped: every
        # document keeps its (blob, offset, length) but not its text, and the
        # rebuilt superposts land at the same blob names.
        text = store.get(blob).decode("utf-8")
        swapped = "WARN".join(part.replace("WARN", "INFO") for part in text.split("INFO"))
        store.put(blob, swapped.encode("utf-8"))
        service.build_index(INDEX, [blob], sketch_config=CONFIG)

    _assert_fresh_after(store, service, rebuild)


def test_a_shard_restricted_view_answers_a_warm_repeat_as_it_answered_cold():
    store = InMemoryObjectStore()
    corpus = generate_log_corpus(store, "hdfs", 200, seed=5)
    with _service(store) as service:
        service.build_index(INDEX, corpus.blob_names, sketch_config=CONFIG, num_shards=4)
        views = [
            SearchRequest(query="ERROR", index=INDEX, shards=(1, 3)),
            SearchRequest(query="INFO block", index=INDEX, mode="topk_bm25", top_k=5, shards=(0,)),
        ]
        cold = [service.search(request) for request in views]
        warm = [service.search(request) for request in views]
        assert [response.latency.round_trips for response in warm] == [0, 0]
        assert _answers(service, views) == [
            {key: value for key, value in response.to_dict().items() if key != "latency"}
            for response in cold
        ]
        # The views warmed the whole index's cache with their subsets' bytes;
        # the whole index still answers exactly as a fresh node does.
        whole = _answers(service)
    assert whole == _uncached_answers(store)
