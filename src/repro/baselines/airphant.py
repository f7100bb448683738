"""Airphant wrapped in the common benchmark engine interface."""

from __future__ import annotations

from typing import Sequence

from repro.baselines.base import SearchEngine
from repro.core.config import SketchConfig
from repro.index.builder import AirphantBuilder, BuiltIndex
from repro.parsing.documents import Document, Posting
from repro.parsing.tokenizer import Tokenizer
from repro.search.replication import HedgingPolicy
from repro.search.results import LatencyBreakdown, SearchResult
from repro.search.searcher import AirphantSearcher
from repro.storage.base import ObjectStore


class AirphantEngine(SearchEngine):
    """Airphant (IoU Sketch) as a benchmark engine."""

    name = "Airphant"

    def __init__(
        self,
        store: ObjectStore,
        index_name: str = "airphant-index",
        tokenizer: Tokenizer | None = None,
        max_concurrency: int = 32,
        config: SketchConfig | None = None,
        hedging: HedgingPolicy | None = None,
    ) -> None:
        super().__init__(store, index_name, tokenizer, max_concurrency)
        self._config = config if config is not None else SketchConfig()
        self._hedging = hedging
        self._built: BuiltIndex | None = None
        self._searcher: AirphantSearcher | None = None

    @property
    def config(self) -> SketchConfig:
        """The sketch configuration used at build time."""
        return self._config

    @property
    def built_index(self) -> BuiltIndex | None:
        """Handle to the built index (``None`` before :meth:`build`)."""
        return self._built

    # -- lifecycle -------------------------------------------------------------------

    def build(self, documents: Sequence[Document]) -> None:
        builder = AirphantBuilder(self._store, config=self._config, tokenizer=self._tokenizer)
        self._built = builder.build_from_documents(documents, index_name=self._index_name)

    def initialize(self) -> float:
        self._searcher = AirphantSearcher(
            self._store,
            index_name=self._index_name,
            tokenizer=self._tokenizer,
            max_concurrency=self._max_concurrency,
            hedging=self._hedging,
            top_k_delta=self._config.top_k_delta,
        )
        return self._searcher.initialize()

    # -- querying ---------------------------------------------------------------------

    def lookup_postings(self, word: str) -> tuple[list[Posting], LatencyBreakdown]:
        return self._require_searcher().lookup_postings(word)

    def search(self, query: str, top_k: int | None = None) -> SearchResult:
        return self._require_searcher().search(query, top_k=top_k)

    def _require_searcher(self) -> AirphantSearcher:
        if self._searcher is None:
            raise RuntimeError("engine is not initialized; call initialize() first")
        return self._searcher
