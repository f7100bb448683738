"""Unit and integration tests for the Airphant Searcher."""

import pytest

from repro.core.config import SketchConfig
from repro.index.builder import AirphantBuilder
from repro.parsing.corpus import LineDelimitedCorpusParser
from repro.parsing.tokenizer import WhitespaceAnalyzer
from repro.search.replication import HedgingPolicy
from repro.search.searcher import AirphantSearcher


@pytest.fixture
def searcher(sim_store, built_small_index) -> AirphantSearcher:
    return AirphantSearcher.open(sim_store, index_name=built_small_index.index_name)


class TestInitialization:
    def test_open_initializes(self, searcher):
        assert searcher.is_initialized
        assert searcher.searchers[0].metadata is not None
        assert searcher.init_latency_ms > 0

    def test_query_before_initialize_raises(self, sim_store, built_small_index):
        uninitialized = AirphantSearcher(sim_store, index_name=built_small_index.index_name)
        with pytest.raises(RuntimeError):
            uninitialized.search("error")

    def test_initialize_downloads_header_once(self, sim_store, built_small_index):
        searcher = AirphantSearcher(sim_store, index_name=built_small_index.index_name)
        sim_store.metrics.reset()
        searcher.initialize()
        assert sim_store.metrics.round_trips == 1

    def test_mht_accessible_after_init(self, searcher, built_small_index):
        assert searcher.searchers[0].mht.num_layers == built_small_index.mht.num_layers


class TestSingleKeywordSearch:
    def test_finds_all_matching_documents(self, searcher):
        result = searcher.search("error")
        texts = {document.text for document in result.documents}
        assert texts == {
            "error disk full on node1",
            "error timeout connecting to node2",
            "warn retry after error on node3",
            "error disk failure on node3",
            "error timeout reading block beta",
        }

    def test_no_false_positives_in_final_results(self, searcher):
        result = searcher.search("node2")
        for document in result.documents:
            assert "node2" in document.text.split()

    def test_unknown_word_returns_nothing(self, searcher):
        result = searcher.search("nonexistentkeyword")
        assert result.documents == []

    def test_result_counts_candidates_and_false_positives(self, searcher):
        result = searcher.search("error")
        assert result.num_candidates >= result.num_results
        assert result.false_positive_count == result.num_candidates - result.num_results

    def test_empty_query_returns_empty_result(self, searcher):
        result = searcher.search("   ")
        assert result.documents == []
        assert result.latency_ms == 0.0

    def test_latency_includes_lookup_and_retrieval(self, searcher):
        result = searcher.search("error")
        assert result.latency.lookup_ms > 0
        assert result.latency.retrieval_ms > 0
        assert result.latency_ms == pytest.approx(
            result.latency.lookup_ms + result.latency.retrieval_ms
        )

    def test_lookup_is_a_single_round_trip(self, sim_store, built_small_index):
        searcher = AirphantSearcher.open(sim_store, index_name=built_small_index.index_name)
        sim_store.metrics.reset()
        searcher.lookup_postings("error")
        # One *batch* of concurrent superpost reads == one logical round-trip.
        assert sim_store.metrics.round_trips <= 1


class TestMultiKeywordSearch:
    def test_multi_word_query_is_conjunctive(self, searcher):
        result = searcher.search("error timeout")
        texts = {document.text for document in result.documents}
        assert texts == {
            "error timeout connecting to node2",
            "error timeout reading block beta",
        }

    def test_word_order_does_not_matter(self, searcher):
        first = {d.text for d in searcher.search("error timeout").documents}
        second = {d.text for d in searcher.search("timeout error").documents}
        assert first == second

    def test_conjunction_with_unknown_word_is_empty(self, searcher):
        assert searcher.search("error zzzznotaword").documents == []

    @pytest.mark.parametrize(
        "query, expected",
        [
            # Keyword mode has no syntax: parentheses and operator words are
            # tokens like any other, never re-parsed as a Boolean expression.
            ("alpha (beta)", ["alpha (beta) gamma"]),
            ("alpha OR beta", ["alpha OR beta delta"]),
            ("(beta)", ["alpha (beta) gamma"]),
        ],
    )
    def test_keyword_tokens_are_never_boolean_syntax(self, sim_store, query, expected):
        sim_store.put(
            "corpus/syntax.txt", b"alpha (beta) gamma\nalpha OR beta delta\nalpha beta"
        )
        documents = list(LineDelimitedCorpusParser().parse(sim_store, ["corpus/syntax.txt"]))
        AirphantBuilder(sim_store, config=SketchConfig(num_bins=64, seed=7)).build_from_documents(
            documents, index_name="syntax"
        )
        searcher = AirphantSearcher.open(sim_store, index_name="syntax")
        assert [d.text for d in searcher.search(query).documents] == expected


class TestTopK:
    def test_top_k_limits_results(self, searcher):
        result = searcher.search("error", top_k=2)
        assert len(result.documents) == 2
        for document in result.documents:
            assert "error" in document.text.split()

    def test_top_k_larger_than_matches_returns_all(self, searcher):
        result = searcher.search("error", top_k=100)
        assert len(result.documents) == 5

    def test_top_k_fetches_no_more_than_candidates(self, searcher):
        result = searcher.search("error", top_k=1)
        assert result.num_candidates >= 1


class TestLookupPostings:
    def test_lookup_contains_all_true_postings(self, searcher, small_documents):
        postings, _ = searcher.lookup_postings("info")
        true_refs = {
            document.ref for document in small_documents if "info" in document.text.split()
        }
        assert true_refs <= set(postings)

    def test_lookup_latency_positive(self, searcher):
        _, latency = searcher.lookup_postings("error")
        assert latency.lookup_ms > 0
        assert latency.retrieval_ms == 0


class TestHedging:
    def test_hedged_searcher_still_returns_correct_results(self, sim_store, small_documents):
        config = SketchConfig(num_bins=64, num_layers=3, seed=5)
        builder = AirphantBuilder(sim_store, config=config)
        built = builder.build_from_documents(small_documents, index_name="hedged")
        searcher = AirphantSearcher.open(
            sim_store, index_name="hedged", hedging=HedgingPolicy(drop_slowest=1)
        )
        result = searcher.search("error")
        assert {d.text for d in result.documents} == {
            d.text for d in small_documents if "error" in d.text.split()
        }
        assert built.metadata.num_layers == 3


class TestBooleanSearch:
    def test_or_query(self, searcher):
        result = searcher.search_boolean("timeout OR heartbeat")
        texts = {document.text for document in result.documents}
        assert texts == {
            "error timeout connecting to node2",
            "error timeout reading block beta",
            "info heartbeat ok node2",
        }

    def test_and_query_matches_plain_search(self, searcher):
        boolean = {d.text for d in searcher.search_boolean("error AND disk").documents}
        plain = {d.text for d in searcher.search("error disk").documents}
        assert boolean == plain

    def test_nested_query(self, searcher):
        result = searcher.search_boolean("error AND (timeout OR disk)")
        texts = {document.text for document in result.documents}
        assert texts == {
            "error timeout connecting to node2",
            "error timeout reading block beta",
            "error disk full on node1",
            "error disk failure on node3",
        }

    def test_boolean_top_k(self, searcher):
        result = searcher.search_boolean("error OR info", top_k=3)
        assert len(result.documents) == 3

    def test_all_terms_fetched_in_one_lookup_wave(self, searcher):
        # Every referenced term's superposts go out as a single parallel
        # batch, so a Boolean query costs one lookup round trip plus one
        # retrieval round trip regardless of how many terms it names.
        result = searcher.search_boolean("error AND (timeout OR disk OR info)")
        assert result.latency.round_trips == 2

    def test_missing_term_in_or_does_not_block_others(self, searcher):
        result = searcher.search_boolean("zzznotaword OR heartbeat")
        assert {d.text for d in result.documents} == {"info heartbeat ok node2"}


class TestCommonWordPath:
    def test_common_word_answered_exactly(self, sim_store, small_documents):
        # Reserve enough common-word slots that "on" (document frequency 5)
        # is handled exactly.
        config = SketchConfig(num_bins=100, common_word_fraction=0.05, seed=3)
        builder = AirphantBuilder(sim_store, config=config)
        builder.build_from_documents(small_documents, index_name="common")
        searcher = AirphantSearcher.open(sim_store, index_name="common")
        mht = searcher.searchers[0].mht
        assert mht.num_common_words == 5
        common_word = mht.common_words[0]
        result = searcher.search(common_word)
        assert result.false_positive_count == 0
        for document in result.documents:
            assert common_word in document.text.split()


class TestTokenizerConsistency:
    def test_searcher_uses_same_analyzer_semantics_as_builder(self, searcher):
        # Whitespace analyzer: punctuation is part of the token, so "node1"
        # must not match "node10"-style prefixes.
        result = searcher.search("node1")
        for document in result.documents:
            assert "node1" in WhitespaceAnalyzer().tokenize(document.text)
