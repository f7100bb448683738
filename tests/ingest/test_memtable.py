"""Tests for the exact in-memory memtable and its query member."""

from __future__ import annotations

import gc
import sys
import threading
import time
import weakref

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
        assert table.add("seg", [0], [9], ["error one"]) == 1
        assert table.add("seg", [0], [9], ["error one"]) == 0
        assert len(table) == 1
        assert table.approximate_bytes == len("error one")

    def test_a_delete_frees_the_document_and_deletes_never_grow_the_table(self):
        class Text(str):
            """A text a weak reference can watch."""

        table = Memtable()
        text = Text("error disk")
        watched = weakref.ref(text)
        table.add("seg", [0, 11], [10, 4], [text, "keep"])
        table.superposts(["error"])  # a query makes (and keeps) its document
        table.remove([DocumentRef("seg", 0, 10)])
        del text
        gc.collect()
        assert watched() is None
        # Append then delete, with no read in between: the removed slots go.
        for n in range(1, 200):
            table.add("seg", [n * 16], [5], ["error"])
            table.remove([DocumentRef("seg", n * 16, 5)])
        assert len(table) == 1
        assert len(table._rows) <= 2

    def test_postings_are_exact(self):
        table = _table("error disk", "error net", "info ok")
        assert len(table.superposts(["error"])["error"]) == 2
        assert len(table.superposts(["info"])["info"]) == 1
        assert not table.superposts(["absent"])["absent"]


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
        table.add("seg", [0, 16], [15, 9], ["error disk full", "error net"])
        before = analyzer.calls
        first = _ranked(table)
        assert analyzer.calls == before  # counted from the stored tokens
        second = _ranked(table)
        assert analyzer.calls == before
        assert (second.postings, second.scores) == (first.postings, first.scores)

    def test_a_mutation_between_ranked_queries_scores_like_a_rebuild(self):
        table = Memtable(CountingAnalyzer())
        table.add("seg", [0, 16], [15, 9], ["error disk full", "error net"])
        _ranked(table)
        appended = _doc("seg", 26, "error error cascading")
        table.add("seg", [26], [appended.length], [appended.text])
        result = _ranked(table)
        assert result.documents[0] == appended
        _assert_scores_like_a_rebuild(table, result)
        table.remove([appended.ref])
        result = _ranked(table)
        assert appended not in result.documents
        _assert_scores_like_a_rebuild(table, result)


def _assert_scores_like_a_rebuild(table: Memtable, result) -> None:
    fresh = _ranked(memtable_from_documents(table.documents()))
    assert len(result.documents) == len(table)
    assert (result.postings, result.scores) == (fresh.postings, fresh.scores)


class TestConcurrentReaders:
    def test_queries_during_out_of_order_writes_see_sorted_exact_lists(self):
        # Writers add blobs out of order (each add after the first breaks id
        # order) and delete, while readers renumber, make documents and count
        # statistics under the same lock: a lost update or a renumbering
        # that raced a reader would show as an unsorted or inexact answer.
        table = Memtable()
        failures: list[str] = []

        def writer(worker: int) -> None:
            for n in range(40):
                blob = f"seg-{(worker * 7 + n * 13) % 50:03d}-{worker}"
                table.add(blob, [0, 20], [11, 10], [f"error w{worker}", "info both"])
                if n % 3 == 0:
                    table.remove([DocumentRef(blob, 20, 10)])

        def reader() -> None:
            for _ in range(60):
                answer = table.superposts(["error", "info"])
                for word, postings in answer.items():
                    if list(postings) != sorted(set(postings)):
                        failures.append(f"{word} out of order")
                documents = table.documents()
                if documents != sorted(documents, key=lambda d: d.ref):
                    failures.append("documents out of order")
                table.statistics()

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=writer, args=(w,)) for w in range(3)]
            threads += [threading.Thread(target=reader) for _ in range(3)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(60)
                assert not thread.is_alive()
        finally:
            sys.setswitchinterval(interval)
        assert failures == []
        fresh = memtable_from_documents(table.documents())
        assert len(table) == len(fresh) == 3 * 40 * 2 - 3 * 14
        for word in ("error", "info", "absent"):
            assert list(table.superposts([word])[word]) == list(fresh.superposts([word])[word])
        assert table.statistics().num_documents == len(table)

    def test_size_never_dips_while_readers_renumber(self):
        # Out-of-order adds make every read renumber the ids; the flush
        # policy and the member filter read len() and approximate_bytes
        # meanwhile, and must never see fewer than the documents held.
        held = 200
        table = Memtable()
        table.add("seg-000", [6 * n for n in range(held)], [5] * held, ["keep"] * held)
        done = threading.Event()
        added = [0, 0, 0]
        dips: list[tuple[int, int]] = []

        def writer(worker: int) -> None:
            for n in range(300):
                if done.is_set():
                    return
                table.add(f"seg-{(n * 13) % 301 + 1:03d}-{worker}", [0], [5], ["error"])
                added[worker] += 1
                time.sleep(0)

        def reader() -> None:
            while not done.is_set():
                table.superposts(["error"])

        def watcher() -> None:
            while not done.is_set():
                size = (len(table), table.approximate_bytes)
                if size[0] < held or size[1] < 5 * held:
                    dips.append(size)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=writer, args=(w,)) for w in range(3)]
            threads += [threading.Thread(target=reader) for _ in range(2)]
            threads.append(threading.Thread(target=watcher))
            for thread in threads:
                thread.start()
            time.sleep(0.5)
            done.set()
            for thread in threads:
                thread.join(60)
                assert not thread.is_alive()
        finally:
            sys.setswitchinterval(interval)
        assert dips == []
        assert sum(added) > 0
        assert len(table) == held + sum(added)
