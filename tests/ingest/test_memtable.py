"""Tests for the exact in-memory memtable and its query member."""

from __future__ import annotations

from repro.ingest.memtable import Memtable, MemtableMember, memtable_from_documents
from repro.parsing.documents import Document, DocumentRef
from repro.parsing.tokenizer import WhitespaceAnalyzer
from repro.search.boolean import And, Or, Term
from repro.search.searcher import AirphantSearcher


def _doc(blob: str, offset: int, text: str) -> Document:
    return Document(ref=DocumentRef(blob=blob, offset=offset, length=len(text)), text=text)


def _table(*texts: str) -> Memtable:
    offset = 0
    documents = []
    for text in texts:
        documents.append(_doc("seg", offset, text))
        offset += len(text) + 1
    return memtable_from_documents(documents)


def _searcher(*texts: str) -> AirphantSearcher:
    """The query executor over one memtable member."""
    return AirphantSearcher(members=[MemtableMember(_table(*texts))])


class TestMemtable:
    def test_add_deduplicates_by_reference(self):
        table = Memtable()
        document = _doc("seg", 0, "error one")
        assert table.add([document]) == 1
        assert table.add([document]) == 0
        assert table.num_documents == 1
        assert table.approximate_bytes == len("error one")

    def test_postings_are_exact(self):
        table = _table("error disk", "error net", "info ok")
        assert len(table.postings("error")) == 2
        assert len(table.postings("info")) == 1
        assert table.postings("absent") == set()


class TestMemtableSearcher:
    def test_keyword_search_is_and_of_words(self):
        searcher = _searcher("error disk full", "error net", "warn disk")
        assert {d.text for d in searcher.search("error").documents} == {
            "error disk full",
            "error net",
        }
        assert {d.text for d in searcher.search("error disk").documents} == {
            "error disk full"
        }
        assert searcher.search("").documents == []
        assert searcher.search("absent").documents == []

    def test_boolean_search(self):
        searcher = _searcher("error disk", "warn net", "info ok")
        result = searcher.search_boolean(Or(Term("error"), Term("warn")))
        assert {d.text for d in result.documents} == {"error disk", "warn net"}
        result = searcher.search_boolean(And(Term("error"), Term("net")))
        assert result.documents == []
        # String queries parse through the shared Boolean grammar.
        result = searcher.search_boolean("error OR info")
        assert {d.text for d in result.documents} == {"error disk", "info ok"}

    def test_top_k_truncates(self):
        searcher = _searcher("error a", "error b", "error c")
        assert len(searcher.search("error", top_k=2).documents) == 2

    def test_lookup_postings_is_sorted_and_latency_free(self):
        searcher = _searcher("error a", "info b", "error c")
        postings, latency = searcher.lookup_postings("error")
        assert postings == sorted(postings)
        assert len(postings) == 2
        assert latency.total_ms == 0.0
        assert latency.round_trips == 0

    def test_no_false_positives_by_construction(self):
        searcher = _searcher("error disk", "warn net")
        result = searcher.search("error")
        assert result.false_positive_count == 0
        assert len(result.candidate_postings) == len(result.documents)


class CountingAnalyzer(WhitespaceAnalyzer):
    """Counts the documents it tokenizes."""

    def __init__(self) -> None:
        self.calls = 0

    def tokenize(self, text: str) -> list[str]:
        self.calls += 1
        return super().tokenize(text)


def _ranked(table: Memtable):
    """A ranked query through a new member, as the service builds one per request."""
    return AirphantSearcher(members=[MemtableMember(table)]).search_topk("error", k=5)


class TestMemtableStatistics:
    def test_ranked_queries_over_an_unchanged_memtable_tokenize_once(self):
        analyzer = CountingAnalyzer()
        table = Memtable(analyzer)
        table.add([_doc("seg", 0, "error disk full"), _doc("seg", 16, "error net")])
        before = analyzer.calls
        first = _ranked(table)
        assert analyzer.calls == before + 2  # each held document, once
        second = _ranked(table)
        assert analyzer.calls == before + 2
        assert (second.postings, second.scores) == (first.postings, first.scores)

    def test_a_mutation_between_ranked_queries_scores_like_a_rebuild(self):
        table = Memtable(CountingAnalyzer())
        table.add([_doc("seg", 0, "error disk full"), _doc("seg", 16, "error net")])
        _ranked(table)
        appended = _doc("seg", 26, "error error cascading")
        table.add([appended])
        result = _ranked(table)
        assert result.documents[0] == appended
        _assert_scores_like_a_rebuild(table, result)
        table.remove([appended.ref])
        result = _ranked(table)
        assert appended not in result.documents
        _assert_scores_like_a_rebuild(table, result)


def _assert_scores_like_a_rebuild(table: Memtable, result) -> None:
    fresh = _ranked(memtable_from_documents(table.documents()))
    assert len(result.documents) == table.num_documents
    assert (result.postings, result.scores) == (fresh.postings, fresh.scores)
