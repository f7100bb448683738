"""Shared implementation of the hierarchical-term-index baselines.

The Lucene-like and SQLite-like engines differ only in the data structure
used as their term index (skip list vs B-tree); everything else — the exact
inverted index, the compacted postings blob, initialization, per-term lookup
and the search loop — is identical, so it lives here.
"""

from __future__ import annotations

import json
from typing import Protocol, Sequence

from repro.baselines._io import dependent_read
from repro.baselines.base import SearchEngine
from repro.baselines.inverted import InvertedIndex, PostingsFile
from repro.core.mht import BinPointer
from repro.index.serialization import StringTable, decode_superpost
from repro.parsing.documents import Document, Posting
from repro.parsing.tokenizer import Tokenizer
from repro.search.results import LatencyBreakdown, SearchResult
from repro.storage.base import ObjectStore


class TermIndex(Protocol):
    """What a hierarchical engine needs from its term index."""

    def build(self, term_pointers: dict[str, BinPointer]) -> None: ...

    def initialize(self, latency: LatencyBreakdown | None = None) -> None: ...

    def lookup(self, term: str, latency: LatencyBreakdown) -> BinPointer | None: ...

    def set_postings_blob(self, blob_name: str) -> None: ...


class HierarchicalEngine(SearchEngine):
    """Exact inverted index + a cloud-persisted hierarchical term index."""

    def __init__(
        self,
        store: ObjectStore,
        index_name: str,
        tokenizer: Tokenizer | None = None,
        max_concurrency: int = 32,
    ) -> None:
        super().__init__(store, index_name, tokenizer, max_concurrency)
        self._term_index = self._make_term_index()
        self._postings_blob = f"{index_name}/postings.bin"
        self._meta_blob = f"{index_name}/postings.meta"
        self._string_table: StringTable | None = None

    def _make_term_index(self) -> TermIndex:
        """Create this engine's term index (skip list, B-tree, ...)."""
        raise NotImplementedError

    # -- lifecycle -------------------------------------------------------------------

    def build(self, documents: Sequence[Document]) -> None:
        inverted = InvertedIndex.from_documents(documents, self._tokenizer)
        postings_file = PostingsFile.write(self._store, self._postings_blob, inverted)
        self._store.put(
            self._meta_blob,
            json.dumps({"string_table": postings_file.string_table.to_list()}).encode("utf-8"),
        )
        self._term_index.build(postings_file.pointers)
        self._term_index.set_postings_blob(self._postings_blob)

    def initialize(self) -> float:
        latency = LatencyBreakdown()
        meta_data = dependent_read(self._store, self._meta_blob, 0, None, latency)
        meta = json.loads(meta_data.decode("utf-8"))
        self._string_table = StringTable.from_list(meta["string_table"])
        self._term_index.initialize(latency)
        self._term_index.set_postings_blob(self._postings_blob)
        return latency.total_ms

    # -- querying ---------------------------------------------------------------------

    def lookup_postings(self, word: str) -> tuple[list[Posting], LatencyBreakdown]:
        """Term-index traversal plus one range read for the postings list."""
        if self._string_table is None:
            raise RuntimeError("engine is not initialized; call initialize() first")
        latency = LatencyBreakdown()
        pointer = self._term_index.lookup(word, latency)
        if pointer is None or pointer.length == 0:
            return [], latency
        payload = dependent_read(
            self._store, pointer.blob, pointer.offset, pointer.length, latency
        )
        postings = list(decode_superpost(payload, self._string_table))
        return postings, latency

    def search(self, query: str, top_k: int | None = None) -> SearchResult:
        words = list(dict.fromkeys(self._tokenizer.tokenize(query)))
        if not words:
            return SearchResult(query=query)
        latency = LatencyBreakdown()
        candidate_sets: list[set[Posting]] = []
        for word in words:
            postings, word_latency = self.lookup_postings(word)
            self._merge_latency(latency, word_latency)
            candidate_sets.append(set(postings))
            if not postings:
                return SearchResult(query=query, latency=latency)
        candidates = sorted(set.intersection(*candidate_sets))
        to_fetch = candidates if top_k is None else candidates[:top_k]
        documents = self._fetch_documents(to_fetch, latency)
        matched = self._filter_documents(documents, words)
        return SearchResult(
            query=query,
            documents=matched,
            candidate_postings=candidates,
            false_positive_count=len(documents) - len(matched),
            latency=latency,
        )

    @staticmethod
    def _merge_latency(total: LatencyBreakdown, part: LatencyBreakdown) -> None:
        total.lookup_ms += part.lookup_ms
        total.retrieval_ms += part.retrieval_ms
        total.wait_ms += part.wait_ms
        total.download_ms += part.download_ms
        total.bytes_fetched += part.bytes_fetched
        total.round_trips += part.round_trips
