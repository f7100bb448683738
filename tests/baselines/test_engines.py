"""Behavioural tests of the five benchmark engines.

Every engine must return exactly the documents containing the query keywords
(after its own false-positive filtering); they differ only in the latency
profile of their term index.
"""

import pytest

from repro.baselines.airphant import AirphantEngine
from repro.baselines.elastic_like import ElasticLikeEngine
from repro.baselines.hashtable import HashTableEngine
from repro.baselines.lucene_like import LuceneLikeEngine
from repro.baselines.sqlite_like import SQLiteLikeEngine
from repro.core.config import SketchConfig

ENGINE_FACTORIES = {
    "Lucene": lambda store: LuceneLikeEngine(store, index_name="t/lucene", cache_bytes=0),
    "Elasticsearch": lambda store: ElasticLikeEngine(
        store, index_name="t/elastic", cache_bytes=0, hydration_chunk_bytes=1024
    ),
    "SQLite": lambda store: SQLiteLikeEngine(store, index_name="t/sqlite", cache_bytes=0),
    "HashTable": lambda store: HashTableEngine(
        store, index_name="t/hashtable", config=SketchConfig(num_bins=64, seed=1)
    ),
    "Airphant": lambda store: AirphantEngine(
        store, index_name="t/airphant", config=SketchConfig(num_bins=64, seed=1)
    ),
}


@pytest.fixture(params=sorted(ENGINE_FACTORIES))
def engine(request, sim_store, small_documents):
    built = ENGINE_FACTORIES[request.param](sim_store)
    built.build(small_documents)
    built.initialize()
    return built


class TestEngineCorrectness:
    def test_single_keyword_results_are_exact(self, engine, small_documents):
        result = engine.search("error")
        expected = {d.text for d in small_documents if "error" in d.text.split()}
        assert {d.text for d in result.documents} == expected

    def test_multi_keyword_conjunction(self, engine, small_documents):
        result = engine.search("error timeout")
        expected = {
            d.text
            for d in small_documents
            if {"error", "timeout"} <= set(d.text.split())
        }
        assert {d.text for d in result.documents} == expected

    def test_unknown_keyword_returns_nothing(self, engine):
        assert engine.search("notaword").documents == []

    def test_top_k_limits_results(self, engine):
        result = engine.search("error", top_k=2)
        assert len(result.documents) == 2

    def test_lookup_postings_contains_all_true_postings(self, engine, small_documents):
        postings, latency = engine.lookup_postings("info")
        expected = {d.ref for d in small_documents if "info" in d.text.split()}
        assert expected <= set(postings)
        assert latency.retrieval_ms == 0.0

    def test_lookup_postings_of_unknown_word(self, engine):
        postings, _ = engine.lookup_postings("notaword")
        # Hash-based engines may return false positives; exact engines return
        # nothing.  Either way, no crash and a list comes back.
        assert isinstance(postings, list)

    def test_index_storage_is_persisted(self, engine):
        assert engine.index_storage_bytes() > 0

    def test_search_before_initialize_raises(self, sim_store, small_documents):
        fresh = LuceneLikeEngine(sim_store, index_name="t2/lucene")
        fresh.build(small_documents)
        with pytest.raises(RuntimeError):
            fresh.lookup_postings("error")


class TestEngineLatencyShape:
    def test_latencies_are_positive(self, engine):
        result = engine.search("error")
        assert result.latency_ms > 0
        assert result.latency.lookup_ms > 0

    def test_hashtable_is_single_layer_airphant(self, sim_store, small_documents):
        engine = HashTableEngine(
            sim_store, index_name="t3/hashtable", config=SketchConfig(num_bins=64, seed=1)
        )
        engine.build(small_documents)
        assert engine.built_index is not None
        assert engine.built_index.metadata.num_layers == 1

    def test_airphant_lookup_has_fewer_round_trips_than_lucene(
        self, sim_store, small_documents
    ):
        lucene = LuceneLikeEngine(sim_store, index_name="rt/lucene", cache_bytes=0)
        lucene.build(small_documents)
        lucene.initialize()
        airphant = AirphantEngine(
            sim_store, index_name="rt/airphant", config=SketchConfig(num_bins=64, seed=1)
        )
        airphant.build(small_documents)
        airphant.initialize()
        _, lucene_latency = lucene.lookup_postings("error")
        _, airphant_latency = airphant.lookup_postings("error")
        assert airphant_latency.round_trips <= lucene_latency.round_trips

    def test_elasticsearch_pays_snapshot_hydration(self, sim_store, small_documents):
        elastic = ElasticLikeEngine(
            sim_store,
            index_name="hy/elastic",
            cache_bytes=0,
            hydration_chunk_bytes=512,
            hydration_cache_chunks=1,
        )
        elastic.build(small_documents)
        elastic.initialize()
        lucene = LuceneLikeEngine(sim_store, index_name="hy/lucene", cache_bytes=0)
        lucene.build(small_documents)
        lucene.initialize()
        _, elastic_latency = elastic.lookup_postings("error")
        _, lucene_latency = lucene.lookup_postings("error")
        assert elastic_latency.bytes_fetched > lucene_latency.bytes_fetched


class TestEngineReadsUncached:
    def test_a_repeated_query_pays_its_reads_again(self, sim_store, small_documents):
        """The figures compare per-query I/O: the engine keeps no cache."""
        engine = AirphantEngine(
            sim_store, index_name="t/uncached", config=SketchConfig(num_bins=64, seed=1)
        )
        engine.build(small_documents)
        engine.initialize()
        first = engine.search("error")
        second = engine.search("error")
        assert engine._searcher is not None
        assert engine._searcher.pipeline.stats.cache_hits == 0
        assert second.latency.round_trips == first.latency.round_trips == 2
        assert second.latency.bytes_fetched == first.latency.bytes_fetched > 0
