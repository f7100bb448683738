"""Elasticsearch-like baseline: Lucene engine behind a searchable snapshot.

The paper benchmarks Elasticsearch with its index mounted as a *searchable
snapshot* on cloud storage.  Segments are hydrated lazily: queries that touch
a not-yet-downloaded region of the snapshot first pull a large recovery chunk
from storage, which dominates their latency; the small local cache means many
queries keep paying this cost.  This class layers that behaviour on top of
the Lucene-like engine.
"""

from __future__ import annotations

import hashlib
from collections import OrderedDict
from typing import Sequence

from repro.baselines._io import dependent_read
from repro.baselines.lucene_like import LuceneLikeEngine
from repro.parsing.documents import Document, Posting
from repro.parsing.tokenizer import Tokenizer
from repro.search.results import LatencyBreakdown, SearchResult
from repro.storage.base import ObjectStore


class ElasticLikeEngine(LuceneLikeEngine):
    """Lucene-like engine with lazy searchable-snapshot hydration."""

    name = "Elasticsearch"

    def __init__(
        self,
        store: ObjectStore,
        index_name: str = "elastic-index",
        tokenizer: Tokenizer | None = None,
        max_concurrency: int = 32,
        cache_bytes: int | None = None,
        hydration_chunk_bytes: int = 4 * 1024 * 1024,
        hydration_cache_chunks: int = 4,
    ) -> None:
        super().__init__(store, index_name, tokenizer, max_concurrency, cache_bytes)
        if hydration_chunk_bytes <= 0:
            raise ValueError("hydration_chunk_bytes must be positive")
        if hydration_cache_chunks < 1:
            raise ValueError("hydration_cache_chunks must be at least 1")
        self._hydration_chunk_bytes = hydration_chunk_bytes
        self._hydration_cache_chunks = hydration_cache_chunks
        self._snapshot_blob = f"{index_name}/snapshot.segments"
        self._snapshot_size = 0
        self._hydrated: OrderedDict[int, bool] = OrderedDict()

    # -- lifecycle -------------------------------------------------------------------

    def build(self, documents: Sequence[Document]) -> None:
        super().build(documents)
        # The searchable snapshot contains the full segment data (term index +
        # postings); queries hydrate chunks of it on demand.
        segment_bytes = self._store.get(self._postings_blob) + self._store.get(
            self._term_index.nodes_blob
        )
        self._store.put(self._snapshot_blob, segment_bytes)

    def initialize(self) -> float:
        init_ms = super().initialize()
        self._snapshot_size = self._store.size(self._snapshot_blob)
        self._hydrated.clear()
        return init_ms

    # -- querying ---------------------------------------------------------------------

    def lookup_postings(self, word: str) -> tuple[list[Posting], LatencyBreakdown]:
        postings, latency = super().lookup_postings(word)
        self._hydrate_for(word, latency)
        return postings, latency

    def search(self, query: str, top_k: int | None = None) -> SearchResult:
        # Hydration is charged inside lookup_postings, which search() calls.
        return super().search(query, top_k=top_k)

    # -- snapshot hydration ---------------------------------------------------------------

    def _hydrate_for(self, word: str, latency: LatencyBreakdown) -> None:
        """Page in the snapshot chunk a query for ``word`` touches."""
        if self._snapshot_size <= 0:
            return
        num_chunks = max(1, -(-self._snapshot_size // self._hydration_chunk_bytes))
        digest = hashlib.blake2b(word.encode("utf-8"), digest_size=4).digest()
        chunk_index = int.from_bytes(digest, "big") % num_chunks
        if chunk_index in self._hydrated:
            self._hydrated.move_to_end(chunk_index)
            return
        offset = chunk_index * self._hydration_chunk_bytes
        length = min(self._hydration_chunk_bytes, self._snapshot_size - offset)
        dependent_read(self._store, self._snapshot_blob, offset, length, latency)
        self._hydrated[chunk_index] = True
        while len(self._hydrated) > self._hydration_cache_chunks:
            self._hydrated.popitem(last=False)
