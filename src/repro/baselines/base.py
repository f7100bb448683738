"""Common interface of all benchmarked search engines."""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Sequence

from repro.parsing.documents import Document, Posting
from repro.parsing.tokenizer import Tokenizer, WhitespaceAnalyzer
from repro.search.results import LatencyBreakdown, SearchResult
from repro.storage.base import ObjectStore


class SearchEngine(ABC):
    """A keyword search engine persisted on (simulated) cloud storage.

    The lifecycle matches the paper's benchmarks: :meth:`build` runs offline
    on a beefy indexing node, :meth:`initialize` runs once when a query node
    opens the corpus, and :meth:`search` serves each query.
    """

    #: Human-readable engine name used in benchmark tables.
    name: str = "engine"

    def __init__(
        self,
        store: ObjectStore,
        index_name: str,
        tokenizer: Tokenizer | None = None,
        max_concurrency: int = 32,
    ) -> None:
        self._store = store
        self._index_name = index_name
        self._tokenizer = tokenizer if tokenizer is not None else WhitespaceAnalyzer()
        self._max_concurrency = max_concurrency

    @property
    def store(self) -> ObjectStore:
        """The object store holding this engine's index and documents."""
        return self._store

    @property
    def index_name(self) -> str:
        """Prefix under which this engine persists its index blobs."""
        return self._index_name

    # -- lifecycle -------------------------------------------------------------------

    @abstractmethod
    def build(self, documents: Sequence[Document]) -> None:
        """Index ``documents`` and persist all index structures."""

    @abstractmethod
    def initialize(self) -> float:
        """Open the index for querying; returns simulated init latency in ms."""

    @abstractmethod
    def lookup_postings(self, word: str) -> tuple[list[Posting], LatencyBreakdown]:
        """Term-index lookup: postings of ``word`` plus lookup latency."""

    @abstractmethod
    def search(self, query: str, top_k: int | None = None) -> SearchResult:
        """Return (up to ``top_k``) documents containing all query keywords."""

    def index_storage_bytes(self) -> int:
        """Bytes of cloud storage occupied by this engine's index blobs."""
        return self._store.total_bytes(prefix=self._index_name)

    # -- shared document retrieval ------------------------------------------------------

    def _fetch_documents(
        self,
        postings: Sequence[Posting],
        latency: LatencyBreakdown,
    ) -> list[Document]:
        """Fetch document contents for ``postings`` in one parallel batch.

        All engines (Airphant and baselines alike) share this routine, as in
        the paper's setup, so end-to-end differences come from the term index
        and from how many candidate documents must be fetched.
        """
        if not postings:
            return []
        requests = [posting.to_range_read() for posting in postings]
        fetch = self._store.read_batch(requests, self._max_concurrency)
        latency.add_retrieval(fetch)
        documents = []
        for posting, payload in zip(postings, fetch.payloads):
            if payload is None:
                continue
            documents.append(Document(ref=posting, text=payload.decode("utf-8", errors="replace")))
        return documents

    def _filter_documents(self, documents: list[Document], words: list[str]) -> list[Document]:
        """Keep only documents containing every query word."""
        required = set(words)
        return [
            document
            for document in documents
            if required <= self._tokenizer.distinct_terms(document.text)
        ]
