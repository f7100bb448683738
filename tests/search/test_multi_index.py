"""Tests for multi-index search and the read pipeline's block cache."""

import pytest

from repro.core.config import SketchConfig
from repro.index.builder import AirphantBuilder
from repro.parsing.corpus import LineDelimitedCorpusParser
from repro.search.searcher import AirphantSearcher


@pytest.fixture
def two_indexes(sim_store):
    """Two corpora in the same bucket, each with its own index."""
    sim_store.put("corpus/part1.txt", b"error disk alpha\ninfo start alpha\nerror net beta")
    sim_store.put("corpus/part2.txt", b"error cpu gamma\nwarn disk gamma\ninfo stop delta")
    parser = LineDelimitedCorpusParser()
    config = SketchConfig(num_bins=64, seed=2)
    builder = AirphantBuilder(sim_store, config=config)
    builder.build_from_documents(
        list(parser.parse(sim_store, ["corpus/part1.txt"])), index_name="part1-index"
    )
    builder.build_from_documents(
        list(parser.parse(sim_store, ["corpus/part2.txt"])), index_name="part2-index"
    )
    return ["part1-index", "part2-index"]


class TestMultiIndexSearcher:
    def test_requires_at_least_one_index(self, sim_store):
        with pytest.raises(ValueError):
            AirphantSearcher(sim_store, [])

    def test_merges_results_across_indexes(self, sim_store, two_indexes):
        searcher = AirphantSearcher.open(sim_store, two_indexes)
        result = searcher.search("error")
        assert {doc.text for doc in result.documents} == {
            "error disk alpha",
            "error net beta",
            "error cpu gamma",
        }

    def test_word_unique_to_one_index_found(self, sim_store, two_indexes):
        searcher = AirphantSearcher.open(sim_store, two_indexes)
        assert [doc.text for doc in searcher.search("delta").documents] == ["info stop delta"]

    def test_deduplicates_documents(self, sim_store, two_indexes):
        # Index the same blob under two indexes: results must not repeat.
        parser = LineDelimitedCorpusParser()
        builder = AirphantBuilder(sim_store, config=SketchConfig(num_bins=64, seed=3))
        documents = list(parser.parse(sim_store, ["corpus/part1.txt"]))
        builder.build_from_documents(documents, index_name="dup-index")
        searcher = AirphantSearcher.open(sim_store, ["part1-index", "dup-index"])
        result = searcher.search("alpha")
        refs = [doc.ref for doc in result.documents]
        assert len(refs) == len(set(refs)) == 2

    def test_top_k_applies_after_merge(self, sim_store, two_indexes):
        searcher = AirphantSearcher.open(sim_store, two_indexes)
        assert len(searcher.search("error", top_k=2).documents) == 2

    def test_latency_charges_parallel_indexes(self, sim_store, two_indexes):
        searcher = AirphantSearcher.open(sim_store, two_indexes)
        result = searcher.search("error")
        per_index = [
            searcher.with_members([member]).search("error")
            for member in searcher.searchers
        ]
        assert result.latency.lookup_ms == pytest.approx(
            max(r.latency.lookup_ms for r in per_index), rel=0.5
        )

    def test_init_latency_is_max_of_indexes(self, sim_store, two_indexes):
        searcher = AirphantSearcher(sim_store, two_indexes)
        init = searcher.initialize()
        assert init > 0
        assert searcher.index_names == two_indexes

    def test_boolean_search_merges_across_indexes(self, sim_store, two_indexes):
        searcher = AirphantSearcher.open(sim_store, two_indexes)
        result = searcher.search_boolean("disk OR stop")
        assert {doc.text for doc in result.documents} == {
            "error disk alpha",
            "warn disk gamma",
            "info stop delta",
        }

    def test_lookup_postings_merges_and_deduplicates(self, sim_store, two_indexes):
        searcher = AirphantSearcher.open(sim_store, two_indexes)
        postings, latency = searcher.lookup_postings("error")
        assert len(postings) == len(set(postings)) >= 3
        assert latency.round_trips == 1  # one lookup batch, however many indexes


class TestBlockCache:
    """The opened index's one block cache: a repeated word costs no store read."""

    def test_a_repeated_query_costs_no_store_read(self, sim_store, built_small_index):
        searcher = AirphantSearcher.open(
            sim_store, index_name=built_small_index.index_name, read_cache_bytes=1 << 20
        )
        first = searcher.search("error")
        sim_store.metrics.reset()
        second = searcher.search("error")
        assert sim_store.metrics.round_trips == 0
        assert second.latency.total_ms == 0.0
        assert searcher.pipeline.stats.cache_hits > 0
        assert [d.text for d in second.documents] == [d.text for d in first.documents]

    def test_a_repeated_word_costs_no_lookup_read(self, sim_store, built_small_index):
        searcher = AirphantSearcher.open(
            sim_store, index_name=built_small_index.index_name, read_cache_bytes=1 << 20
        )
        searcher.search("error")
        postings, latency = searcher.lookup_postings("error")
        assert postings and latency.round_trips == 0 and latency.lookup_ms == 0.0

    def test_cache_disabled_by_default(self, sim_store, built_small_index):
        searcher = AirphantSearcher.open(sim_store, index_name=built_small_index.index_name)
        searcher.search("error")
        second = searcher.search("error")
        assert second.latency.round_trips == 2
        assert searcher.pipeline.stats.cache_hits == 0
        assert searcher.pipeline.cached_bytes == 0

    def test_cache_eviction_respects_the_byte_budget(self, sim_store, built_small_index):
        searcher = AirphantSearcher.open(
            sim_store, index_name=built_small_index.index_name, read_cache_bytes=256
        )
        for word in ["error", "info", "warn", "debug"]:
            searcher.search(word)
        assert 0 < searcher.pipeline.cached_bytes <= 256

    def test_cached_results_stay_correct(self, sim_store, built_small_index, small_documents):
        searcher = AirphantSearcher.open(
            sim_store, index_name=built_small_index.index_name, read_cache_bytes=1 << 20
        )
        expected = {d.text for d in small_documents if "info" in d.text.split()}
        for _ in range(3):
            assert {d.text for d in searcher.search("info").documents} == expected
