"""Unit and integration tests for the Airphant Searcher."""

import pytest

from repro.core.config import SketchConfig
from repro.core.superpost import CROSSOVER, Superpost
from repro.index.builder import AirphantBuilder
from repro.ingest.memtable import MemtableMember, memtable_from_documents
from repro.observability.tracing import Tracer
from repro.parsing.corpus import LineDelimitedCorpusParser
from repro.parsing.tokenizer import WhitespaceAnalyzer
from repro.search.replication import HedgingPolicy
from repro.search.searcher import AirphantSearcher
from repro.storage.memory import InMemoryObjectStore


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


class BigSite:
    """2 500 documents sharing one word ("common"), a seventh of them "rare"."""

    def __init__(self) -> None:
        self.store = InMemoryObjectStore()
        lines = [
            f"common line{i} {'rare' if i % 7 == 0 else 'filler'} tok{i % 50}" for i in range(2500)
        ]
        lines += [f"other entry{i} tok{i % 50}" for i in range(500)]
        self.store.put("corpus/big.txt", ("\n".join(lines) + "\n").encode())
        self.documents = list(LineDelimitedCorpusParser().parse(self.store, ["corpus/big.txt"]))
        config = SketchConfig(num_bins=96, target_false_positives=4.0, seed=7)
        AirphantBuilder(self.store, config=config).build_from_documents(
            self.documents, index_name="big"
        )
        self.searcher = AirphantSearcher.open(self.store, "big")

    def holders(self, word: str) -> list:
        return [d for d in self.documents if word in d.text.split()]


@pytest.fixture(scope="module")
def big() -> BigSite:
    return BigSite()


def _resolved(member, store, word: str) -> Superpost:
    """``word``'s final postings list as ``member`` resolves it."""
    plan = member.plan([word])
    return plan.resolve(store.read_batch(plan.reads).payloads)[word]


def _traced(search):
    """Run ``search()`` under a trace; returns its result and the attributes
    of its ``search.retrieve`` span."""
    handle = Tracer(sample_rate=1.0).begin("query")
    try:
        result = search()
    finally:
        root = handle.finish()
    (retrieve,) = [node for node in root.walk() if node.name == "search.retrieve"]
    return result, retrieve.attrs


class TestCandidatesStayColumns:
    """The executor materialises the prefix it fetches, and merges members exactly."""

    def test_top_k_creates_postings_for_the_fetched_prefix_only(self, big, monkeypatch):
        made = []
        take = Superpost.take

        def spy(self, start=0, stop=None):
            postings = take(self, start, stop)
            made.append(len(postings))
            return postings

        monkeypatch.setattr(Superpost, "take", spy)
        assert "columns" in repr(_resolved(big.searcher.searchers[0], big.store, "common"))
        result = big.searcher.search("common", top_k=10)
        fetched = result.false_positive_count + len(result.documents)
        assert result.num_candidates == 2500 and fetched == 23  # Equation 6's sample
        assert sum(made) <= fetched + 2
        # The candidates are still all there, lazily.
        assert len(result.candidate_postings) == 2500
        assert result.candidate_postings[2499] == big.holders("common")[-1].ref

    def test_answers_are_what_they_were_before_postings_were_columns(self, big):
        # Captured at the parent commit (sets of Posting objects) on this scenario.
        search = big.searcher.search
        head = [0, 23, 48, 73, 98, 123, 148, 173, 196, 221]
        sampled = search("common", top_k=10)
        assert (sampled.num_candidates, sampled.false_positive_count) == (2500, 13)
        assert [d.offset for d in sampled.documents] == head
        assert sampled.latency.bytes_fetched == 21084 and sampled.latency.round_trips == 2
        everything = search("common")
        assert (everything.num_candidates, everything.false_positive_count) == (2500, 0)
        assert everything.documents == big.holders("common")
        assert everything.latency.bytes_fetched == 88188
        both = search("common rare", top_k=10)
        assert (both.num_candidates, both.false_positive_count) == (358, 13)
        assert [d.offset for d in both.documents] == [0, 173, 354, 541, 728, 915, 1102, 1289, 1470, 1653]
        scan = search("tok7")
        assert (scan.num_candidates, scan.false_positive_count) == (60, 0)
        assert scan.documents == big.holders("tok7")
        ranked = big.searcher.search_topk("common rare", k=5)
        assert (ranked.num_candidates, ranked.false_positive_count) == (358, 0)
        assert [d.offset for d in ranked.documents] == [0, 173, 354, 541, 728]
        assert list(ranked.candidate_postings) == sorted(ranked.candidate_postings)

    @pytest.mark.parametrize("long_side", ["index", "memtable"])
    def test_posting_in_two_members_belongs_to_the_first_and_counts_once(self, long_side):
        # Mid-flush: the fresh delta already holds what the sealed memtable
        # still does.  One member's list is long (columns), the other's short.
        store = InMemoryObjectStore()
        lines = [f"common doc{i}" for i in range(2 * CROSSOVER + 44)]
        store.put("ingest/seg.log", ("\n".join(lines) + "\n").encode())
        documents = list(LineDelimitedCorpusParser().parse(store, ["ingest/seg.log"]))
        few = documents[10:15] + documents[-2:]
        many = documents[:-2]
        indexed, unflushed = (many, few) if long_side == "index" else (few, many)
        AirphantBuilder(store, config=SketchConfig(num_bins=64, seed=3)).build_from_documents(
            indexed, index_name="delta"
        )
        (delta,) = AirphantSearcher.open(store, "delta").opened
        memtable = MemtableMember(memtable_from_documents(unflushed))
        forms = {repr(_resolved(m, store, "common")).split(", ")[1] for m in (delta, memtable)}
        assert forms == {"columns)", "tuple)"}
        result = AirphantSearcher(members=[delta, memtable]).search("common")
        assert result.num_candidates == len(documents) == len(result.documents)
        assert len(set(result.postings)) == len(documents)
        (first, first_share), (second, second_share) = result.candidate_postings.shares
        assert (first, second) == (0, 1)
        # The delta owns everything it indexed; the memtable only what is new.
        assert set(first_share) >= {d.ref for d in indexed}
        assert set(second_share) == {d.ref for d in unflushed} - {d.ref for d in indexed}
        # Member order, each share in posting order.
        assert result.postings == list(first_share) + list(second_share)

    def test_condemned_candidates_never_reach_the_sample(self, big, searcher, small_documents):
        # Long side: the three postings that would head the sample are condemned.
        holders = big.holders("common")
        exclude = frozenset(d.ref for d in holders[:3])
        live = big.searcher.with_members(big.searcher.searchers, exclude)
        result, attrs = _traced(lambda: live.search("common", top_k=10))
        assert result.documents == holders[3:13]
        assert result.num_candidates == 2497
        assert result.false_positive_count == 13  # the sample is as large as ever
        assert attrs["excluded"] == 3
        assert attrs["refunded_bytes"] == sum(d.length for d in holders[:3])
        # Short side: a tuple-sized list, same contract.
        errors = [d for d in small_documents if "error" in d.text.split()]
        assert "tuple" in repr(_resolved(searcher.searchers[0], searcher.pipeline.store, "error"))
        live = searcher.with_members(searcher.searchers, frozenset({errors[0].ref}))
        result, attrs = _traced(lambda: live.search("error", top_k=2))
        assert result.documents == errors[1:3]
        assert errors[0].ref not in result.candidate_postings
        assert (attrs["excluded"], attrs["refunded_bytes"]) == (1, errors[0].length)
