"""The read cache holds decoded superposts: warm queries decode nothing.

A superpost read carries its build's decoder
(:attr:`~repro.storage.base.RangeRead.decode`); the pipeline decodes each
missed range once and caches the frozen :class:`~repro.core.superpost.Superpost`,
so a warm repeat of a query resolves from the cached lists.  What a cache may
never change is the answer — byte for byte, ranked scores included — nor
what the pipeline reads and counts.
"""

from __future__ import annotations

from dataclasses import replace

import pytest

import repro.index.compaction as compaction_module
from repro.core.config import SketchConfig
from repro.core.superpost import Superpost
from repro.observability import MetricsRegistry
from repro.search.searcher import AirphantSearcher
from repro.service import AirphantService, SearchRequest, ServiceConfig
from repro.storage.base import RangeRead
from repro.storage.faults import FlakyStore
from repro.storage.latency import AffineLatencyModel
from repro.storage.memory import InMemoryObjectStore
from repro.storage.pipeline import ReadPipeline
from repro.storage.simulated import SimulatedCloudStore
from repro.workloads.logs import generate_log_corpus

CONFIG = SketchConfig(num_bins=256, target_false_positives=1.0, seed=7)
INDEX = "idx"
QUERIES = (
    SearchRequest(query="ERROR", index=INDEX),
    SearchRequest(query="INFO block", index=INDEX, top_k=5),
    SearchRequest(query="ERROR OR WARN", index=INDEX, mode="boolean"),
    SearchRequest(query="INFO AND block", index=INDEX, mode="boolean"),
    SearchRequest(query="INFO block", index=INDEX, mode="topk_bm25", top_k=5),
    SearchRequest(query="ERROR DataXceiver", index=INDEX, mode="topk_bm25", top_k=3),
)
KEYWORD, AND = QUERIES[0], QUERIES[3]


def _service(store, **config) -> AirphantService:
    return AirphantService(
        store, ServiceConfig(ingest_interval_s=0, **config), metrics=MetricsRegistry()
    )


def _answers(service: AirphantService, queries=QUERIES) -> list[dict]:
    """Every response minus its latency (the one field a cache moves)."""
    answers = []
    for request in queries:
        payload = service.search(request).to_dict()
        payload.pop("latency")
        answers.append(payload)
    return answers


def _store(num_shards: int = 1) -> InMemoryObjectStore:
    store = InMemoryObjectStore()
    corpus = generate_log_corpus(store, "hdfs", 300, seed=5)
    with _service(store) as service:
        service.build_index(
            INDEX, corpus.blob_names, sketch_config=CONFIG, num_shards=num_shards
        )
    return store


def _assert_cache_changes_no_answer(store, queries=QUERIES) -> None:
    with _service(store, read_cache_bytes=0) as uncached:
        expected = _answers(uncached, queries)
    with _service(store) as cached:
        cold, warm = _answers(cached, queries), _answers(cached, queries)
        assert cached.catalog.open(INDEX).pipeline.stats.cache_hits > 0
    assert cold == warm == expected


class _DecodeCounter:
    """Counts every superpost the query path decodes."""

    def __init__(self, monkeypatch) -> None:
        self.calls = 0
        decode = compaction_module.decode_superpost

        def counted(*args, **kwargs) -> Superpost:
            self.calls += 1
            return decode(*args, **kwargs)

        monkeypatch.setattr(compaction_module, "decode_superpost", counted)

    def during(self, action) -> int:
        before = self.calls
        action()
        return self.calls - before


class TestCacheOnEqualsCacheOff:
    def test_a_plain_index(self):
        _assert_cache_changes_no_answer(_store())

    def test_a_four_shard_index(self):
        _assert_cache_changes_no_answer(_store(num_shards=4))

    def test_a_base_and_a_delta(self):
        store = _store()
        with _service(store) as service:
            service.append_documents(INDEX, ["ERROR appended disk failure", "INFO block appended"])
            assert service.flush_index(INDEX)["delta"]
            assert len(service.catalog.open(INDEX).opened) == 2
        _assert_cache_changes_no_answer(store)

    def test_a_single_word_search_under_a_flaky_store(self, monkeypatch):
        """Every wave goes through the pipeline, whatever the store: over a
        simulated store with stragglers, a one-word search answers the same
        with the cache on or off, and only its uncached repeats decode."""
        backend = _store()
        counter = _DecodeCounter(monkeypatch)
        answers = []
        for cache_bytes in (0, 1 << 20):
            flaky = FlakyStore(backend, slow_rate=0.3, slow_ms=1.0, seed=3)
            model = AffineLatencyModel(straggler_probability=0.3, straggler_multiplier=20.0)
            searcher = AirphantSearcher.open(
                SimulatedCloudStore(flaky, model),
                index_name=INDEX,
                read_cache_bytes=cache_bytes,
            )
            (member,) = searcher.opened
            reads = member.plan(["error"]).reads
            layers = len({(read.blob, read.offset, read.length) for read in reads})
            assert layers >= 2
            observed = []
            decoded = [
                counter.during(lambda: observed.append(searcher.search("error")))
                for _ in range(2)
            ]
            assert decoded == ([layers, layers] if cache_bytes == 0 else [layers, 0])
            answers += [
                (
                    [document.text for document in result.documents],
                    list(result.candidate_postings),
                    result.false_positive_count,
                )
                for result in observed
            ]
            assert flaky.injected_slow > 0
            searcher.close()
        assert answers[0][0] and all(answer == answers[0] for answer in answers)


class TestDecodeCount:
    def test_a_warm_repeat_decodes_nothing(self, monkeypatch):
        store = _store()
        counter = _DecodeCounter(monkeypatch)
        with _service(store) as service:
            for request in (KEYWORD, AND):
                assert counter.during(lambda: service.search(request)) > 0
                assert counter.during(lambda: service.search(request)) == 0

    def test_without_a_cache_every_repeat_decodes_every_superpost(self, monkeypatch):
        store = _store()
        counter = _DecodeCounter(monkeypatch)
        with _service(store) as cached:
            first = [counter.during(lambda: cached.search(r)) for r in (KEYWORD, AND)]
        with _service(store, read_cache_bytes=0) as uncached:
            for request, expected in zip((KEYWORD, AND), first):
                plan = uncached.catalog.open(INDEX).opened[0].plan(
                    request.query.split(" AND ") if request.mode == "boolean" else [request.query]
                )
                assert expected == len({(r.blob, r.offset, r.length) for r in plan.reads})
                for _ in range(3):
                    assert counter.during(lambda: uncached.search(request)) == expected

    def test_pipeline_stats_are_those_of_the_byte_cache(self, monkeypatch):
        """Replaying the same reads through a byte cache counts exactly the same."""
        store = _store(num_shards=4)
        with _service(store) as service:
            pipeline = service.catalog.open(INDEX).pipeline
            batches: list[list] = []
            fetch, fetch_ranges = pipeline.fetch, pipeline.fetch_ranges

            def recording(requests):
                batches.append(list(requests))
                return fetch(requests)

            def recording_ranges(ranges):
                # Documents are read as plain byte ranges: replayed as reads.
                batches.append([RangeRead(*key) for key in ranges])
                return fetch_ranges(ranges)

            monkeypatch.setattr(pipeline, "fetch", recording)
            monkeypatch.setattr(pipeline, "fetch_ranges", recording_ranges)
            for _ in range(2):
                _answers(service)
            decoded = pipeline.stats.to_dict()
            replica = ReadPipeline(store, cache_bytes=pipeline.cache_bytes, metrics=MetricsRegistry())
            for batch in batches:
                replica.fetch([replace(read, decode=None) for read in batch])
        assert any(read.decode is not None for batch in batches for read in batch)
        assert decoded["cache_hits"] > 0
        assert replica.stats.to_dict() == decoded


def test_a_tiny_budget_evicts_and_the_charged_total_stays_within_it():
    store = _store(num_shards=4)
    # A cached entry is a decoded run — a bin's four shard shares unioned, up
    # to 7 344 bytes charged here — so the budget holds one, never all.
    budget = 8000
    misses, answers = {}, {}
    for cache_bytes in (budget, 1 << 20):
        with _service(store, read_cache_bytes=cache_bytes) as service:
            pipeline = service.catalog.open(INDEX).pipeline
            answers[cache_bytes] = []
            for request in QUERIES + QUERIES:
                answers[cache_bytes] += _answers(service, [request])
                entries = list(pipeline._cache.values())
                charged = sum(e.nbytes if isinstance(e, Superpost) else len(e) for e in entries)
                assert pipeline.cached_bytes == charged <= cache_bytes
            assert any(isinstance(entry, Superpost) for entry in entries)
            misses[cache_bytes] = pipeline.stats.cache_misses
    assert misses[budget] > misses[1 << 20]  # the tiny budget evicted
    assert answers[budget] == answers[1 << 20]


@pytest.mark.parametrize("cache_bytes", [0, 1 << 20])
def test_superpost_reads_arrive_decoded_and_are_cached_frozen(cache_bytes):
    store = _store()
    searcher = AirphantSearcher.open(store, index_name=INDEX, read_cache_bytes=cache_bytes)
    (member,) = searcher.opened
    plan = member.plan(["error", "INFO"])
    payloads = searcher.pipeline.fetch(list(plan.reads)).payloads
    assert payloads and all(isinstance(payload, Superpost) for payload in payloads)
    cached = list(searcher.pipeline._cache.values())
    assert len(cached) == (len(set(plan.reads)) if cache_bytes else 0)
    assert all(not superpost._key.flags.writeable for superpost in cached)
    assert searcher.pipeline.cached_bytes == sum(superpost.nbytes for superpost in cached)
    searcher.close()
