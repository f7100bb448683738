"""In-memory, immediately-searchable store of freshly ingested documents.

A memtable is the read-your-writes half of the ingestion path: documents land
in it the moment their WAL segment is durable, and every query mode sees them
*before* any delta index is built.  Unlike the persisted indexes it mirrors,
a memtable keeps an **exact** inverted map — it is bounded by the flush
policy to at most a few thousand documents, so exact per-word postings cost
almost nothing and introduce zero false positives.

:class:`MemtableMember` puts a memtable behind the same
:class:`~repro.search.member.Member` contract a persisted index answers, so
the combined live view is just "one more member" — no special cases anywhere
in the query path.
"""

from __future__ import annotations

import threading
from typing import Collection, Iterable, Sequence

from repro.core.superpost import Superpost
from repro.index.stats import IndexStats, build_stats
from repro.parsing.documents import Document, Posting
from repro.parsing.tokenizer import Tokenizer, WhitespaceAnalyzer
from repro.search.member import LookupPlan


class Memtable:
    """Exact inverted map over not-yet-flushed documents (thread-safe)."""

    def __init__(self, tokenizer: Tokenizer | None = None) -> None:
        self._tokenizer = tokenizer if tokenizer is not None else WhitespaceAnalyzer()
        self._lock = threading.Lock()
        self._postings: dict[str, set[Posting]] = {}
        self._documents: dict[Posting, Document] = {}
        self._bytes = 0
        #: Bumped by every mutation; the ranking statistics are memoized per value.
        self._version = 0
        self._statistics: tuple[int, IndexStats] | None = None

    @property
    def tokenizer(self) -> Tokenizer:
        """The analyzer documents are tokenized with (must match the index)."""
        return self._tokenizer

    @property
    def num_documents(self) -> int:
        """Documents currently held."""
        with self._lock:
            return len(self._documents)

    @property
    def approximate_bytes(self) -> int:
        """Raw UTF-8 bytes of the held documents (the flush-policy input)."""
        with self._lock:
            return self._bytes

    def __len__(self) -> int:
        return self.num_documents

    def add(self, documents: Iterable[Document]) -> int:
        """Insert parsed documents; returns how many were new."""
        added = 0
        with self._lock:
            for document in documents:
                if document.ref in self._documents:
                    continue
                self._documents[document.ref] = document
                self._bytes += document.length
                for word in self._tokenizer.distinct_terms(document.text):
                    self._postings.setdefault(word, set()).add(document.ref)
                added += 1
            self._version += bool(added)
        return added

    def remove(self, refs: Iterable[Posting]) -> int:
        """Drop documents by reference (the delete path); returns how many held.

        The memtable tier applies deletes *physically* — the document and its
        postings vanish at once — so unflushed documents never need tombstone
        filtering at query time.  References not held are ignored (deletes
        are idempotent and may target already-flushed documents).
        """
        removed = 0
        with self._lock:
            for ref in refs:
                document = self._documents.pop(ref, None)
                if document is None:
                    continue
                self._bytes -= document.length
                for word in self._tokenizer.distinct_terms(document.text):
                    postings = self._postings.get(word)
                    if postings is not None:
                        postings.discard(ref)
                        if not postings:
                            del self._postings[word]
                removed += 1
            self._version += bool(removed)
        return removed

    def documents(self) -> list[Document]:
        """Every held document, in insertion order."""
        with self._lock:
            return list(self._documents.values())

    def postings(self, word: str) -> set[Posting]:
        """Exact postings of ``word`` (empty set when absent)."""
        with self._lock:
            return set(self._postings.get(word, ()))

    def document(self, posting: Posting) -> Document | None:
        """The document at ``posting``, if held."""
        with self._lock:
            return self._documents.get(posting)

    def statistics(self) -> IndexStats:
        """Exact ranking statistics over the held documents.

        Computed from the in-memory text with the same analyzer as the
        persisted stats blobs, so an unflushed document scores exactly as it
        will after the flush persists it — and only once per mutation: every
        ranked query in between reuses them.
        """
        with self._lock:
            version, memo = self._version, self._statistics
            if memo is not None and memo[0] == version:
                return memo[1]
            documents = list(self._documents.values())
        statistics = build_stats(documents, self._tokenizer)
        with self._lock:
            if self._version == version:
                self._statistics = (version, statistics)
        return statistics


class MemtableMember:
    """A :class:`Memtable` behind the :class:`~repro.search.member.Member` contract.

    The map is exact — no false positives — and everything it holds is
    resident, so this member plans no reads in wave 1 and asks for none in
    wave 2: a query's round trips, bytes and latency are those of the
    persisted members alone.  Deletes are applied to a memtable physically,
    so it never holds a condemned document.
    """

    expected_false_positives = 0.0

    def __init__(self, memtable: Memtable, name: str = "memtable") -> None:
        self.memtable = memtable
        self.name = name

    def plan(
        self, words: Sequence[str], fail_fast: bool = False, ranked: bool = False
    ) -> LookupPlan:
        """Exact postings per word (and, ranked, the memtable's statistics),
        with nothing to read."""
        return LookupPlan(
            (),
            lambda _: {word: Superpost(self.memtable.postings(word)) for word in words},
            statistics=(lambda: (self.memtable.statistics(),)) if ranked else None,
        )

    def resident(self, posting: Posting) -> Document | None:
        """The held document (``None`` once a flush has evicted it: its bytes
        are in its durable WAL segment, where wave 2 reads them)."""
        return self.memtable.document(posting)

    def restrict(self, ordinals: Collection[int]) -> "MemtableMember | None":
        """Unsharded: rides with ordinal 0."""
        return self if 0 in ordinals else None


def memtable_from_documents(
    documents: Sequence[Document], tokenizer: Tokenizer | None = None
) -> Memtable:
    """Build a memtable pre-loaded with ``documents`` (replay helper)."""
    memtable = Memtable(tokenizer)
    memtable.add(documents)
    return memtable
