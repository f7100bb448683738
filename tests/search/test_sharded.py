"""Equivalence and behaviour tests for sharded index members.

The acceptance bar for sharding: a sharded build (N >= 4) must answer
keyword, Boolean, and regex queries — directly, through the service facade,
and over ``POST /search`` — identically to a single-shard index built over
the same corpus.
"""

import json
import threading
import urllib.request

import pytest

from repro.core.config import SketchConfig
from repro.index.builder import AirphantBuilder
from repro.search.member import MAX_SHARDED_CONCURRENCY, IndexMember
from repro.search.regexsearch import RegexSearcher
from repro.search.searcher import AirphantSearcher
from repro.service import AirphantService, SearchRequest, ServiceConfig
from repro.service.http import create_server
from repro.workloads.logs import generate_log_corpus


@pytest.fixture
def corpus(sim_store):
    return generate_log_corpus(sim_store, "hdfs", num_documents=400, seed=13)


@pytest.fixture
def searchers(sim_store, corpus):
    config = SketchConfig(num_bins=512, target_false_positives=1.0, seed=7)
    AirphantBuilder(sim_store, config=config).build_from_documents(
        corpus.documents, index_name="single"
    )
    AirphantBuilder(sim_store, config=config, num_shards=4).build_from_documents(
        corpus.documents, index_name="sharded"
    )
    single = AirphantSearcher.open(sim_store, index_name="single")
    sharded = AirphantSearcher.open(sim_store, index_name="sharded")
    return single, sharded


def member(searcher) -> IndexMember:
    """The one index member behind a single-index searcher."""
    (only,) = searcher.searchers
    return only


def doc_keys(result):
    return {(d.blob, d.offset, d.length) for d in result.documents}


class TestShardedEquivalence:
    def test_opens_all_shards(self, searchers):
        single, sharded = searchers
        assert member(single).num_shards == 1
        assert member(sharded).num_shards == 4
        assert member(sharded).shard_manifest is not None
        assert sharded.is_initialized

    def test_merged_metadata_covers_whole_corpus(self, searchers, corpus):
        single, sharded = searchers
        assert member(sharded).metadata.num_documents == len(corpus.documents)
        assert (
            member(sharded).metadata.num_documents
            == member(single).metadata.num_documents
        )

    def test_keyword_queries_match_single_shard(self, searchers):
        single, sharded = searchers
        for query in ["ERROR", "block", "ERROR WRITE_BLOCK", "nonexistentzzz"]:
            assert doc_keys(sharded.search(query)) == doc_keys(single.search(query))

    def test_boolean_queries_match_single_shard(self, searchers):
        single, sharded = searchers
        for query in [
            "ERROR AND block",
            "WRITE_BLOCK OR READ_BLOCK",
            "ERROR AND (WRITE_BLOCK OR nonexistentzzz)",
        ]:
            assert doc_keys(sharded.search_boolean(query)) == doc_keys(
                single.search_boolean(query)
            )

    def test_regex_queries_match_single_shard(self, searchers):
        single, sharded = searchers
        pattern = r"ERROR\s+\S+"
        single_result = RegexSearcher(single).search(pattern)
        sharded_result = RegexSearcher(sharded).search(pattern)
        assert doc_keys(sharded_result) == doc_keys(single_result)

    def test_lookup_postings_match_single_shard(self, searchers):
        single, sharded = searchers
        postings_single, _ = single.lookup_postings("ERROR")
        postings_sharded, _ = sharded.lookup_postings("ERROR")
        assert set(postings_single) == set(postings_sharded)

    def test_query_is_still_two_round_trip_waves(self, searchers):
        _, sharded = searchers
        result = sharded.search_boolean("ERROR AND (block OR WRITE_BLOCK)")
        # One coalesced superpost batch across all 4 shards + one document batch.
        assert result.latency.round_trips == 2

    def test_top_k_limits_results(self, searchers):
        _, sharded = searchers
        result = sharded.search("ERROR", top_k=3)
        assert len(result.documents) == 3

    def test_no_false_positives_in_final_results(self, searchers):
        _, sharded = searchers
        for document in sharded.search("ERROR").documents:
            assert "ERROR" in document.text.split()

    def test_query_cache_works_across_shards(self, sim_store, corpus):
        config = SketchConfig(num_bins=512, seed=7)
        AirphantBuilder(sim_store, config=config, num_shards=4).build_from_documents(
            corpus.documents, index_name="cached"
        )
        searcher = AirphantSearcher.open(sim_store, index_name="cached", query_cache_size=8)
        first = searcher.search("ERROR")
        second = searcher.search("ERROR")
        assert doc_keys(first) == doc_keys(second)
        assert member(searcher).cache_hits == 1
        assert second.latency.lookup_ms == 0.0  # postings memoized, no superpost fetch

    def test_uninitialized_query_raises(self, sim_store, searchers):
        searcher = AirphantSearcher(sim_store, index_name="sharded")
        with pytest.raises(RuntimeError):
            searcher.search("ERROR")


class TestShardedThroughService:
    @pytest.fixture
    def service(self, sim_store, corpus):
        service = AirphantService(sim_store, ServiceConfig(coalesce_gap=128))
        config = SketchConfig(num_bins=512, seed=7)
        service.build_index("single", list(corpus.blob_names), sketch_config=config)
        service.build_index(
            "sharded", list(corpus.blob_names), sketch_config=config, num_shards=4
        )
        return service

    def test_index_info_exposes_shard_stats(self, service, corpus):
        info = service.index_info("sharded")
        assert info.num_shards == 4
        assert len(info.shards) == 4
        assert sum(shard.num_documents for shard in info.shards) == len(corpus.documents)
        assert service.index_info("single").num_shards == 1

    def test_catalog_hides_shard_sub_indexes(self, service):
        names = service.catalog.names()
        assert "sharded" in names
        assert not any("/shard-" in name for name in names)
        assert not service.catalog.contains("sharded/shard-0000")

    @pytest.mark.parametrize(
        ("mode", "query"),
        [
            ("keyword", "ERROR block"),
            ("boolean", "ERROR AND (WRITE_BLOCK OR READ_BLOCK)"),
            ("regex", r"ERROR\s+\S+block"),
        ],
    )
    def test_all_modes_match_single_shard(self, service, mode, query):
        single = service.search(SearchRequest(query=query, index="single", mode=mode))
        sharded = service.search(SearchRequest(query=query, index="sharded", mode=mode))
        assert {(d.blob, d.offset) for d in single.documents} == {
            (d.blob, d.offset) for d in sharded.documents
        }

    def test_post_search_works_unchanged_on_sharded_index(self, service):
        server = create_server(service)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        try:
            results = {}
            for index in ("single", "sharded"):
                body = json.dumps({"index": index, "query": "ERROR"}).encode()
                request = urllib.request.Request(f"{server.url}/search", data=body)
                with urllib.request.urlopen(request) as response:
                    payload = json.loads(response.read())
                results[index] = {
                    (d["blob"], d["offset"]) for d in payload["documents"]
                }
            assert results["single"] == results["sharded"]
        finally:
            server.shutdown()
            server.server_close()

    def test_service_close_releases_searchers(self, service):
        service.search(SearchRequest(query="ERROR", index="sharded"))
        assert service.catalog.is_open("sharded")
        service.close()
        assert not service.catalog.is_open("sharded")
        # Still usable afterwards: the index simply reopens.
        response = service.search(SearchRequest(query="ERROR", index="sharded"))
        assert response.num_results > 0


class TestShardRestriction:
    """restrict(): the node-side half of the cluster scatter-gather."""

    def test_disjoint_subsets_partition_the_results(self, searchers):
        _, sharded = searchers
        full = doc_keys(sharded.search("ERROR"))
        union = set()
        for ordinals in [(0, 2), (1, 3)]:
            subset = doc_keys(sharded.restrict(ordinals).search("ERROR"))
            assert union.isdisjoint(subset)
            union |= subset
        assert union == full

    def test_single_ordinal_views_cover_all_modes(self, searchers):
        single, sharded = searchers
        for query, run in [
            ("ERROR", lambda s: s.search("ERROR")),
            ("ERROR AND block", lambda s: s.search_boolean("ERROR AND block")),
        ]:
            expected = doc_keys(run(single))
            union = set()
            for ordinal in range(member(sharded).num_shards):
                union |= doc_keys(run(sharded.restrict([ordinal])))
            assert union == expected

    def test_full_subset_returns_self(self, searchers):
        _, sharded = searchers
        assert sharded.restrict(range(member(sharded).num_shards)) is sharded
        assert member(sharded).restrict(range(4)) is member(sharded)

    def test_view_shares_pipeline_but_not_query_cache(self, sim_store, searchers):
        sharded = AirphantSearcher.open(sim_store, index_name="sharded", query_cache_size=8)
        view = sharded.restrict([1])
        assert view is not sharded
        assert member(view).pipeline is member(sharded).pipeline
        view.search("ERROR")
        view.search("ERROR")
        assert member(view).cache_hits == 0  # cache disabled on views

    def test_view_metadata_covers_only_the_subset(self, searchers):
        _, sharded = searchers
        view = member(sharded.restrict([0, 1]))
        assert view.num_shards == 2
        assert 0 < view.metadata.num_documents < member(sharded).metadata.num_documents

    def test_empty_subset_raises(self, searchers):
        _, sharded = searchers
        with pytest.raises(ValueError):
            sharded.restrict([])

    def test_out_of_range_ordinal_raises(self, searchers):
        _, sharded = searchers
        with pytest.raises(ValueError):
            sharded.restrict([member(sharded).num_shards])

    def test_single_shard_index_only_accepts_ordinal_zero(self, searchers):
        single, _ = searchers
        assert single.restrict([0]) is single
        with pytest.raises(ValueError):
            single.restrict([1])

    def test_uninitialized_restrict_raises(self, sim_store, searchers):
        searcher = AirphantSearcher(sim_store, index_name="sharded")
        with pytest.raises(RuntimeError):
            searcher.restrict([0])


class TestShardedConcurrencyScaling:
    """The 16-shard regression fix: the concurrency asked for widens with the shard count."""

    def test_initialize_scales_pipeline_concurrency(self, sim_store, corpus):
        config = SketchConfig(num_bins=512, target_false_positives=1.0, seed=7)
        AirphantBuilder(sim_store, config=config, num_shards=4).build_from_documents(
            corpus.documents, index_name="scaled"
        )
        opened = AirphantSearcher.open(sim_store, "scaled", max_concurrency=8)
        assert member(opened).max_concurrency == min(8 * 4, MAX_SHARDED_CONCURRENCY)
        assert opened.pipeline.max_concurrency == min(8 * 4, MAX_SHARDED_CONCURRENCY)

    def test_single_shard_keeps_base_concurrency(self, sim_store, corpus):
        config = SketchConfig(num_bins=512, target_false_positives=1.0, seed=7)
        AirphantBuilder(sim_store, config=config).build_from_documents(
            corpus.documents, index_name="plain"
        )
        opened = AirphantSearcher.open(sim_store, "plain", max_concurrency=8)
        assert member(opened).max_concurrency == opened.pipeline.max_concurrency == 8
