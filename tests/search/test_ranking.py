"""Unit tests for BM25 top-k ranked retrieval (``mode="topk_bm25"``)."""

from __future__ import annotations

import pytest

from repro.index.builder import AirphantBuilder
from repro.index.stats import RankingUnsupportedError, stats_blob_name
from repro.parsing.corpus import LineDelimitedCorpusParser
from repro.search.ranking import BM25Params, MAX_RANKED_K
from repro.search.searcher import AirphantSearcher


@pytest.fixture
def ranked_searcher(sim_store, built_small_index) -> AirphantSearcher:
    searcher = AirphantSearcher.open(sim_store, index_name=built_small_index.index_name)
    yield searcher
    searcher.close()


class TestSearchTopk:
    def test_scores_are_normalized_and_descending(self, ranked_searcher):
        result = ranked_searcher.search_topk("error", k=10)
        assert result.num_results > 0
        assert result.scores is not None
        assert len(result.scores) == result.num_results
        assert all(0.0 <= score <= 1.0 for score in result.scores)
        assert result.scores == sorted(result.scores, reverse=True)

    def test_conjunctive_semantics(self, ranked_searcher):
        # "error timeout" matches exactly the two documents containing both.
        result = ranked_searcher.search_topk("error timeout", k=10)
        texts = {document.text for document in result.documents}
        assert texts == {
            "error timeout connecting to node2",
            "error timeout reading block beta",
        }

    def test_topk_is_subset_of_membership(self, ranked_searcher):
        ranked = ranked_searcher.search_topk("error", k=3)
        membership = ranked_searcher.search("error")
        assert {d.ref for d in ranked.documents} <= {d.ref for d in membership.documents}

    def test_k_truncates(self, ranked_searcher):
        assert ranked_searcher.search_topk("error", k=2).num_results == 2

    def test_k_is_bounded(self, ranked_searcher):
        with pytest.raises(ValueError):
            ranked_searcher.search_topk("error", k=0)
        # An absurd k is clamped, not an error.
        result = ranked_searcher.search_topk("error", k=MAX_RANKED_K + 1)
        assert result.num_results <= MAX_RANKED_K

    def test_empty_query_is_empty(self, ranked_searcher):
        result = ranked_searcher.search_topk("   ", k=5)
        assert result.num_results == 0
        assert result.scores == []

    def test_unknown_word_is_empty(self, ranked_searcher):
        assert ranked_searcher.search_topk("zzzzmissing", k=5).num_results == 0

    def test_weights_boost_a_term(self, sim_store):
        lines = ["alpha alpha beta", "beta beta alpha"]
        sim_store.put("corpus/w.txt", "\n".join(lines).encode())
        docs = list(LineDelimitedCorpusParser().parse(sim_store, ["corpus/w.txt"]))
        AirphantBuilder(sim_store).build_from_documents(docs, index_name="w")
        searcher = AirphantSearcher.open(sim_store, index_name="w")
        favor_alpha = searcher.search_topk("alpha beta", k=2, weights={"alpha": 5.0})
        favor_beta = searcher.search_topk("alpha beta", k=2, weights={"beta": 5.0})
        assert favor_alpha.documents[0].text == "alpha alpha beta"
        assert favor_beta.documents[0].text == "beta beta alpha"

    def test_bm25_params_validation(self):
        with pytest.raises(ValueError):
            BM25Params(k1=-1.0)
        with pytest.raises(ValueError):
            BM25Params(b=1.5)

    def test_ranked_query_fetches_fewer_bytes_than_membership(self, ranked_searcher):
        # The exact stats filter false positives without text fetches, and
        # only the k winners are retrieved (once the statistics, read by the
        # first ranked query's lookup wave, are resident).
        ranked_searcher.search_topk("error", k=1)
        ranked = ranked_searcher.search_topk("error", k=1)
        membership = ranked_searcher.search("error")
        assert ranked.latency.bytes_fetched < membership.latency.bytes_fetched


class TestRankingUnsupported:
    def test_missing_stats_blob_raises_typed_error(self, sim_store, built_small_index):
        sim_store.delete(stats_blob_name(built_small_index.index_name))
        searcher = AirphantSearcher.open(sim_store, index_name=built_small_index.index_name)
        with pytest.raises(RankingUnsupportedError) as excinfo:
            searcher.search_topk("error", k=3)
        assert excinfo.value.index_name == built_small_index.index_name
        # Membership queries keep working on the same index.
        assert searcher.search("error").num_results > 0

    def test_missing_shard_stats_raises_typed_error(
        self, sim_store, small_documents, small_config
    ):
        built = AirphantBuilder(sim_store, config=small_config, num_shards=2).build_from_documents(
            small_documents, index_name="sh-missing"
        )
        sim_store.delete(stats_blob_name(built.shards[0].index_name))
        searcher = AirphantSearcher.open(sim_store, index_name="sh-missing")
        with pytest.raises(RankingUnsupportedError):
            searcher.search_topk("error", k=3)


class TestShardedRanking:
    def test_sharded_matches_single_shard(self, sim_store, small_documents, small_config):
        AirphantBuilder(sim_store, config=small_config).build_from_documents(
            small_documents, index_name="flat"
        )
        AirphantBuilder(sim_store, config=small_config, num_shards=3).build_from_documents(
            small_documents, index_name="split"
        )
        flat = AirphantSearcher.open(sim_store, index_name="flat")
        split = AirphantSearcher.open(sim_store, index_name="split")
        for query in ("error", "error timeout", "info node1", "warn"):
            a = flat.search_topk(query, k=5)
            b = split.search_topk(query, k=5)
            assert [d.ref for d in a.documents] == [d.ref for d in b.documents], query
            assert a.scores == b.scores, query

    def test_restricted_views_merge_to_full_ranking(
        self, sim_store, small_documents, small_config
    ):
        AirphantBuilder(sim_store, config=small_config, num_shards=3).build_from_documents(
            small_documents, index_name="rv"
        )
        searcher = AirphantSearcher.open(sim_store, index_name="rv")
        full = searcher.search_topk("error", k=5)
        partial_hits = []
        for ordinals in ([0], [1, 2]):
            view = searcher.restrict(ordinals)
            result = view.search_topk("error", k=5)
            partial_hits.extend(zip(result.scores, (d.ref for d in result.documents)))
        partial_hits.sort(key=lambda hit: (-hit[0], hit[1]))
        merged = partial_hits[:5]
        assert [(s, r) for s, r in merged] == list(
            zip(full.scores, (d.ref for d in full.documents))
        )
