"""In-memory, immediately-searchable store of freshly ingested documents.

A memtable is the read-your-writes half of the ingestion path: documents land
in it the moment their WAL segment is durable, and every query mode sees them
*before* any delta index is built.  Unlike the persisted indexes it mirrors,
a memtable keeps an **exact** inverted map — it is bounded by the flush
policy to at most a few thousand documents, so exact per-word postings cost
almost nothing and introduce zero false positives.

It holds one row per int id, in arrival order — a document's ``(blob,
offset, length)``, text and tokens — and a ``word → [ids]`` map: a line is
tokenized once, on arrival, and queries, ranking statistics and the flush
all read what it stored.

:class:`MemtableMember` puts a memtable behind the same
:class:`~repro.search.member.Member` contract a persisted index answers, so
the combined live view is just "one more member" — no special cases anywhere
in the query path.
"""

from __future__ import annotations

import threading
from collections import defaultdict
from itertools import repeat
from typing import Iterable, Sequence

from repro.core.superpost import Superpost
from repro.index.stats import IndexStats, count_stats
from repro.parsing.documents import Document, Posting
from repro.parsing.tokenizer import Tokenizer, WhitespaceAnalyzer
from repro.search.member import LookupPlan

#: A document's ``(blob, offset, length)``: its id's key, and its order.
Key = tuple[str, int, int]
#: What a memtable holds of a document: its key, its text and its tokens.
Row = tuple[Key, str, list[str]]


class Memtable:
    """Exact inverted map over not-yet-flushed documents (thread-safe)."""

    def __init__(self, tokenizer: Tokenizer | None = None) -> None:
        self._tokenizer = tokenizer if tokenizer is not None else WhitespaceAnalyzer()
        self._lock = threading.Lock()
        #: Rows by id (a removed id keeps only its key, until a renumbering), the
        #: live ids by key, each id's ``Document`` once a query asked for it,
        #: and each word's ascending ids.
        self._rows: list[Row] = []
        self._ids: dict[Key, int] = {}
        self._documents: dict[int, Document] = {}
        self._postings: defaultdict[str, list[int]] = defaultdict(list)
        #: Whether id order is key order, which an update's ``upd-`` segment (sorted
        #: after later ``seg-`` ones) or a flush's undo breaks until the next read;
        #: ``remove`` lowers it too, to drop removed slots.
        self._ordered = True
        self._bytes = 0
        #: Bumped by every mutation; the ranking statistics are memoized per value.
        self._version = 0
        self._statistics: tuple[int, IndexStats] | None = None

    @property
    def approximate_bytes(self) -> int:
        """Raw UTF-8 bytes of the held documents (the flush-policy input)."""
        with self._lock:
            return self._bytes

    def __len__(self) -> int:
        with self._lock:
            return len(self._ids)

    def add(
        self, blob: str, offsets: Sequence[int], lengths: Sequence[int], texts: Sequence[str]
    ) -> int:
        """Insert one blob's documents (a WAL segment's columns), tokenizing
        each once; returns how many were new."""
        analysed = map(self._tokenizer.tokenize, texts)
        with self._lock:
            return self._insert(zip(zip(repeat(blob), offsets, lengths), texts, analysed))

    def absorb(self, other: "Memtable") -> int:
        """Insert every document ``other`` holds, tokens and all (a flush's undo)."""
        with other._lock:
            rows = list(map(other._rows.__getitem__, other._ids.values()))
        with self._lock:
            return self._insert(rows)

    def _insert(self, rows: Iterable[Row]) -> int:
        """Insert ``rows`` not held yet; returns how many (caller holds the lock)."""
        ids, held, postings = self._ids, self._rows, self._postings
        before = len(ids)
        for row in rows:
            key = row[0]
            if key in ids:
                continue
            if held and key < held[-1][0]:
                self._ordered = False
            ids[key] = ident = len(held)
            held.append(row)
            self._bytes += key[2]
            for word in set(row[2]):
                postings[word].append(ident)
        added = len(ids) - before
        self._version += bool(added)
        return added

    def remove(self, refs: Iterable[Posting]) -> int:
        """Drop documents by reference (the delete path); returns how many held.

        The memtable tier applies deletes *physically* — the document's id
        leaves every list at once — so unflushed documents never need
        tombstone filtering at query time.  References not held are ignored
        (deletes are idempotent and may target already-flushed documents).
        A removed document's text and tokens are freed at once, and its
        slot by the renumbering that runs once removed slots outnumber held
        ones, so deletes alone never grow the table.
        """
        removed = 0
        with self._lock:
            for ref in refs:
                key = (ref.blob, ref.offset, ref.length)
                ident = self._ids.pop(key, None)
                if ident is not None:
                    self._bytes -= ref.length
                    for word in set(self._rows[ident][2]):
                        held = self._postings[word]
                        held.remove(ident)
                        if not held:
                            del self._postings[word]
                    self._rows[ident] = (key, "", [])
                    self._documents.pop(ident, None)
                    removed += 1
            self._version += bool(removed)
            if 2 * len(self._ids) < len(self._rows):
                self._ordered = False
                self._order()
        return removed

    def _order(self) -> None:
        """Renumber the held rows in key order unless ``_ordered`` (caller
        holds the lock); removed slots go with it."""
        if not self._ordered:
            rows = sorted(map(self._rows.__getitem__, self._ids.values()))
            self._rows, self._ids, self._documents, self._postings = [], {}, {}, defaultdict(list)
            self._bytes, self._ordered = 0, True
            self._insert(rows)

    def _document(self, ident: int) -> Document:
        """Id ``ident``'s document, made once a query first asks (caller holds the lock)."""
        made = self._documents
        if ident in made:
            return made[ident]
        key, text, _ = self._rows[ident]
        document = made[ident] = Document(Posting(*key), text)
        return document

    def documents(self) -> list[Document]:
        """Every held document, in ``(blob, offset, length)`` order."""
        with self._lock:
            self._order()
            return list(map(self._document, self._ids.values()))

    def superposts(self, words: Iterable[str]) -> dict[str, Superpost]:
        """Exact postings of each of ``words`` (empty when absent), in order
        already: no set copy, no sort."""
        with self._lock:
            if not self._ordered:
                self._order()
            made, make = self._documents, self._document
            lists = {word: self._postings.get(word, ()) for word in words}
            # A subscript per id, and a call only for a document not made yet.
            return {
                word: Superpost.ordered([(made[i] if i in made else make(i)).ref for i in ids])
                for word, ids in lists.items()
            }

    def document(self, posting: Posting) -> Document | None:
        """The document at ``posting``, if held."""
        with self._lock:
            ident = self._ids.get((posting.blob, posting.offset, posting.length))
            return None if ident is None else self._document(ident)

    def statistics(self) -> IndexStats:
        """Exact ranking statistics over the held documents.

        Counted from the tokens stored on arrival by the build's own code,
        so an unflushed document scores exactly as it will after the flush
        persists it — and only once per mutation: every ranked query in
        between, and the flush, reuse them.
        """
        with self._lock:
            self._order()
            version, memo = self._version, self._statistics
            if memo is not None and memo[0] == version:
                return memo[1]
            rows = list(map(self._rows.__getitem__, self._ids.values()))
        keys = [key for key, _, _ in rows]
        names = sorted({blob for blob, _, _ in keys})
        rank = {blob: at for at, blob in enumerate(names)}
        offsets, lengths = ([key[at] for key in keys] for at in (1, 2))
        columns = ([rank[blob] for blob, _, _ in keys], offsets, lengths)
        statistics = count_stats(names, columns, [tokens for _, _, tokens in rows])
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
            lambda _: self.memtable.superposts(words),
            statistics=self.memtable.statistics if ranked else None,
        )

    def resident(self, posting: Posting) -> Document | None:
        """The held document (``None`` once a flush has evicted it: its bytes
        are in its durable WAL segment, where wave 2 reads them)."""
        return self.memtable.document(posting)


def memtable_from_documents(
    documents: Sequence[Document], tokenizer: Tokenizer | None = None
) -> Memtable:
    """Build a memtable pre-loaded with ``documents`` (a test and oracle helper)."""
    memtable = Memtable(tokenizer)
    for document in documents:
        memtable.add(document.blob, [document.offset], [document.length], [document.text])
    return memtable
