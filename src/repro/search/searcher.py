"""Airphant Searcher.

Query-time component (Figure 3, right half).  Initialization downloads the
header blob once and reconstructs the Multilayer Hash Table; every query then
performs:

1. hash the query word(s) through the MHT to collect superpost pointers;
2. fetch all required superposts in a *single batch of parallel range reads*;
3. intersect them into the final (slightly over-complete) postings list;
4. fetch the candidate documents in a second parallel batch (optionally only
   a top-K sample, Equation 6);
5. filter out false positives by checking the fetched text, restoring perfect
   precision.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from collections.abc import Set as AbstractSet

from repro.core.analysis import top_k_sample_size
from repro.core.mht import MultilayerHashTable
from repro.core.superpost import Superpost
from repro.index.compaction import HEADER_BLOB_SUFFIX, decode_header
from repro.index.metadata import IndexMetadata
from repro.index.serialization import FORMAT_V1, StringTable, decode_superpost
from repro.index.stats import (
    IndexStats,
    RankingUnsupportedError,
    decode_stats,
    stats_blob_name,
)
from repro.observability.tracing import span
from repro.parsing.documents import Document, Posting
from repro.parsing.tokenizer import Tokenizer, WhitespaceAnalyzer
from repro.search.boolean import BooleanQuery, Term, parse_boolean_query
from repro.search.ranking import BM25Params, execute_topk
from repro.search.replication import HedgingPolicy
from repro.search.results import LatencyBreakdown, SearchResult
from repro.storage.base import ObjectStore, RangeRead
from repro.storage.parallel import ParallelFetcher
from repro.storage.pipeline import ReadPipeline
from repro.storage.simulated import SimulatedCloudStore


class _StatsCache:
    """Lazily-loaded ranking statistics, shared across searcher views.

    A mutable holder (rather than a plain attribute) so that shard-restricted
    copies of a :class:`~repro.search.sharded.ShardedSearcher` — created with
    ``copy.copy`` — keep pointing at the *same* cache: whichever view loads
    the stats first, every view scores with the identical full-corpus
    statistics afterwards.
    """

    def __init__(self) -> None:
        self.lock = threading.Lock()
        self.stats: IndexStats | None = None


class AirphantSearcher:
    """Answers keyword queries from a persisted IoU Sketch index.

    All lookup and document-fetch batches go through a
    :class:`~repro.storage.pipeline.ReadPipeline`, which deduplicates and
    coalesces the batch's range reads (and, when ``read_cache_bytes`` is set,
    serves repeats from a bounded block cache) before the parallel fetcher
    touches the store.  Hedged lookups bypass the pipeline: hedging reasons
    about individual request latencies, which coalescing would merge away.
    """

    #: Membership queries accept an ``exclude`` set of condemned postings and
    #: drop them *before* the document-fetch wave.  Wrappers (TombstoneView)
    #: probe this flag: members without it (exact memtable searchers, whose
    #: deletes are physical) keep the over-fetch + post-filter fallback.
    SUPPORTS_EXCLUDE = True

    def __init__(
        self,
        store: ObjectStore,
        index_name: str = "airphant-index",
        tokenizer: Tokenizer | None = None,
        max_concurrency: int = 32,
        hedging: HedgingPolicy | None = None,
        top_k_delta: float = 1e-6,
        query_cache_size: int = 0,
        coalesce_gap: int = 0,
        read_cache_bytes: int = 0,
    ) -> None:
        self._store = store
        self._index_name = index_name
        self._tokenizer = tokenizer if tokenizer is not None else WhitespaceAnalyzer()
        self._fetcher = ParallelFetcher(store, max_concurrency=max_concurrency)
        self._pipeline = ReadPipeline(
            self._fetcher, max_gap=coalesce_gap, cache_bytes=read_cache_bytes
        )
        self._hedging = hedging if hedging is not None else HedgingPolicy()
        self._top_k_delta = top_k_delta
        self._mht: MultilayerHashTable | None = None
        self._string_table: StringTable | None = None
        self._metadata: IndexMetadata | None = None
        self._format_version: int = FORMAT_V1
        self.init_latency_ms: float = 0.0
        # Optional per-word memoization of final postings lists (Section IV-A
        # suggests query caching to bound the worst-case deviation).  Valid
        # because the paper targets read-oriented corpora that rarely change.
        self._query_cache_size = max(0, query_cache_size)
        self._query_cache: OrderedDict[str, Superpost] = OrderedDict()
        # The cache is shared across server threads (ThreadingHTTPServer);
        # guard its mutations so LRU bookkeeping stays consistent.
        self._cache_lock = threading.Lock()
        self.cache_hits: int = 0
        self.cache_misses: int = 0
        # Ranking statistics (mode="topk_bm25") load lazily on the first
        # ranked query — membership-only workloads never pay for them.
        self._stats_cache = _StatsCache()
        self.stats_load_ms: float = 0.0

    # -- initialization -----------------------------------------------------------

    @classmethod
    def open(
        cls,
        store: ObjectStore,
        index_name: str = "airphant-index",
        tokenizer: Tokenizer | None = None,
        max_concurrency: int = 32,
        hedging: HedgingPolicy | None = None,
        top_k_delta: float = 1e-6,
        query_cache_size: int = 0,
        coalesce_gap: int = 0,
        read_cache_bytes: int = 0,
    ) -> "AirphantSearcher":
        """Create a Searcher and immediately load the index header."""
        searcher = cls(
            store,
            index_name=index_name,
            tokenizer=tokenizer,
            max_concurrency=max_concurrency,
            hedging=hedging,
            top_k_delta=top_k_delta,
            query_cache_size=query_cache_size,
            coalesce_gap=coalesce_gap,
            read_cache_bytes=read_cache_bytes,
        )
        searcher.initialize()
        return searcher

    @property
    def pipeline(self) -> ReadPipeline:
        """The read pipeline every lookup/retrieval batch goes through."""
        return self._pipeline

    def close(self) -> None:
        """Release the fetcher's thread pool and the pipeline's block cache."""
        self._pipeline.close()

    def initialize(self) -> float:
        """Download and decode the header blob; returns the simulated latency.

        Happens once per corpus (the MHT is 12 bytes per non-empty bin, held
        as views over the downloaded header); all later queries reuse it.
        """
        header_blob = f"{self._index_name}/{HEADER_BLOB_SUFFIX}"
        if isinstance(self._store, SimulatedCloudStore):
            data, record = self._store.timed_get(header_blob)
            self.init_latency_ms = record.total_ms
        else:
            data = self._store.get(header_blob)
            self.init_latency_ms = 0.0
        compacted = decode_header(data)
        self._mht = compacted.mht
        self._string_table = compacted.string_table
        self._metadata = compacted.metadata
        # The header names the superpost codec; dispatching on it here is what
        # keeps v1 indexes readable forever.
        self._format_version = compacted.format_version
        return self.init_latency_ms

    @property
    def is_initialized(self) -> bool:
        """Whether the index header has been loaded."""
        return self._mht is not None

    @property
    def metadata(self) -> IndexMetadata | None:
        """Metadata of the opened index (``None`` before initialization)."""
        return self._metadata

    @property
    def mht(self) -> MultilayerHashTable:
        """The in-memory Multilayer Hash Table."""
        self._require_initialized()
        assert self._mht is not None
        return self._mht

    # -- term-index lookup (superpost fetch + intersection) -------------------------

    def lookup_postings(self, word: str) -> tuple[list[Posting], LatencyBreakdown]:
        """Term-index lookup only: the final postings list for one keyword.

        This is the operation benchmarked against SQLite's B-tree in the
        paper's Figure 14 — everything up to (but excluding) document
        retrieval.
        """
        self._require_initialized()
        latency = LatencyBreakdown()
        candidates = self._lookup_terms([word], latency)
        return candidates.sorted_postings(), latency

    def _lookup_terms(self, words: list[str], latency: LatencyBreakdown) -> Superpost:
        """Fetch and intersect superposts for all ``words`` in one batch."""
        per_word = self._lookup_per_word(words, latency, fail_fast=True)
        return Superpost.intersect_all(per_word[word] for word in words)

    def _lookup_per_word(
        self, words: list[str], latency: LatencyBreakdown, fail_fast: bool = False
    ) -> dict[str, Superpost]:
        """Resolve each word's final postings list with one parallel fetch wave.

        All words' superpost range reads — across every layer of every word —
        go out as a *single* :class:`ParallelFetcher` batch, so a Boolean query
        over N terms costs the same number of round-trip waves as a one-word
        query.  Per-word intersection semantics are preserved: each word's
        layers are intersected with each other only.

        With ``fail_fast`` (the AND path), a word that hits an empty bin dooms
        the whole conjunction, so nothing is fetched and no latency is charged
        — matching a real engine that short-circuits on a missing term.
        Without it (the general Boolean path), doomed words simply resolve to
        empty postings lists while the remaining words are still fetched.
        """
        assert self._mht is not None and self._string_table is not None
        results, pending = self._cache_partition(words)
        if not pending:
            return results

        # Collect pointers per pending word, remembering which requests belong
        # to whom.  A word that hits an empty bin (or empty common-word list)
        # has an empty intersection; none of its layers need fetching.
        requests: list[RangeRead] = []
        word_layers: dict[str, list[int]] = {}
        doomed: list[str] = []
        for word in pending:
            pointers = self._mht.pointers_for(word)
            if any(pointer.is_empty for pointer in pointers):
                doomed.append(word)
                continue
            indexes: list[int] = []
            for pointer in pointers:
                indexes.append(len(requests))
                requests.append(pointer.to_range_read())
            word_layers[word] = indexes

        if fail_fast and doomed:
            for word in pending:
                results[word] = Superpost()
            return results
        for word in doomed:
            results[word] = Superpost()

        fetch_words = [word for word in pending if word in word_layers]
        if not requests:
            for word in fetch_words:
                results[word] = Superpost()
            return results

        single_word_hedging = (
            self._hedging.enabled
            and len(fetch_words) == 1
            and not self._mht.is_common(fetch_words[0])
        )
        with span(
            "search.lookup",
            words=list(fetch_words),
            requests=len(requests),
            hedged=single_word_hedging,
        ):
            if single_word_hedging:
                # Hedging needs per-request latencies, so it bypasses the pipeline.
                required = self._hedging.required_of(len(requests))
                fetch = self._fetcher.fetch_hedged(requests, required=required)
            else:
                fetch = self._pipeline.fetch(requests)
        if fetch.batch.requests:
            latency.add_lookup(
                fetch.batch.total_ms,
                fetch.batch.wait_ms,
                fetch.batch.download_ms,
                fetch.batch.nbytes,
            )

        for word in fetch_words:
            superposts: list[Superpost] = []
            for request_index in word_layers[word]:
                payload = fetch.payloads[request_index]
                if payload is None:
                    # Hedged-away straggler: skip this layer (superset remains valid).
                    continue
                superposts.append(
                    decode_superpost(payload, self._string_table, self._format_version)
                )
            if not superposts:
                result = Superpost()
            else:
                result = Superpost.intersect_all(superposts)
            self._remember_lookup(word, result)
            results[word] = result
        return results

    def _cache_partition(self, words: list[str]) -> tuple[dict[str, Superpost], list[str]]:
        """Split ``words`` into memoized results and words still to fetch.

        Cache-hit words resolve with no storage traffic and no added latency;
        a query whose words all hit counts as one cache hit, anything else as
        one miss (matching the pre-existing accounting).
        """
        results: dict[str, Superpost] = {}
        pending: list[str] = []
        with self._cache_lock:
            for word in dict.fromkeys(words):
                if self._query_cache_size > 0 and word in self._query_cache:
                    self._query_cache.move_to_end(word)
                    results[word] = Superpost(set(self._query_cache[word].postings))
                else:
                    pending.append(word)
            if self._query_cache_size > 0:
                if not pending:
                    self.cache_hits += 1
                else:
                    self.cache_misses += 1
        return results, pending

    def _remember_lookup(self, word: str, result: Superpost) -> None:
        """Memoize a word's final postings list (bounded LRU)."""
        if self._query_cache_size <= 0:
            return
        with self._cache_lock:
            self._query_cache[word] = Superpost(set(result.postings))
            self._query_cache.move_to_end(word)
            while len(self._query_cache) > self._query_cache_size:
                self._query_cache.popitem(last=False)

    # -- ranked retrieval (mode="topk_bm25") -----------------------------------------

    def ranking_stats(self) -> IndexStats:
        """The index's persisted ranking statistics (loaded once, cached).

        Like the header, the stats blob is a one-time download amortized over
        every later ranked query; its latency is recorded in
        ``stats_load_ms`` rather than charged to any single query.

        Raises :class:`~repro.index.stats.RankingUnsupportedError` when the
        index was built before ranked retrieval existed (no stats blob).
        """
        with self._stats_cache.lock:
            if self._stats_cache.stats is None:
                self._stats_cache.stats = self._load_stats()
            return self._stats_cache.stats

    def _load_stats(self) -> IndexStats:
        from repro.storage.base import BlobNotFoundError

        blob = stats_blob_name(self._index_name)
        with span("rank.stats_load", index=self._index_name):
            try:
                if isinstance(self._store, SimulatedCloudStore):
                    data, record = self._store.timed_get(blob)
                    self.stats_load_ms += record.total_ms
                else:
                    data = self._store.get(blob)
            except BlobNotFoundError:
                raise RankingUnsupportedError(
                    self._index_name, "no ranking statistics blob"
                ) from None
        return decode_stats(data, index_name=self._index_name)

    def ranked_candidates(
        self, words: list[str], latency: LatencyBreakdown
    ) -> Superpost:
        """Conjunctive candidate postings for a ranked query (member protocol)."""
        self._require_initialized()
        return self._lookup_terms(list(words), latency)

    def fetch_documents(
        self, postings: list[Posting], latency: LatencyBreakdown
    ) -> list[Document]:
        """Retrieve the named documents in one pipelined batch, unfiltered.

        Ranked queries call this only for the final top-k — the exact stats
        already filtered false positives, so no text check is needed.
        """
        if not postings:
            return []
        requests = [posting.to_range_read() for posting in postings]
        with span("search.fetch_documents", postings=len(postings)):
            fetch = self._pipeline.fetch(requests)
        if fetch.batch.requests:
            latency.add_retrieval(
                fetch.batch.total_ms,
                fetch.batch.wait_ms,
                fetch.batch.download_ms,
                fetch.batch.nbytes,
            )
        documents: list[Document] = []
        for posting, payload in zip(postings, fetch.payloads):
            if payload is None:
                continue
            documents.append(
                Document(ref=posting, text=payload.decode("utf-8", errors="replace"))
            )
        return documents

    def search_topk(
        self,
        query: str,
        k: int,
        weights: dict[str, float] | None = None,
        params: BM25Params | None = None,
    ) -> SearchResult:
        """BM25 top-k ranked retrieval: the best ``k`` documents matching all
        query terms, scored into [0, 1] and ordered best-first."""
        self._require_initialized()
        words = list(dict.fromkeys(self._tokenizer.tokenize(query)))
        return execute_topk([self], words, query, k, params=params, weights=weights)

    # -- full searches ---------------------------------------------------------------

    def query_word(
        self,
        word: str,
        top_k: int | None = None,
        exclude: AbstractSet[Posting] | None = None,
    ) -> SearchResult:
        """Search for documents containing a single keyword."""
        return self._execute([word], Term(word), word, top_k, exclude=exclude)

    def search(
        self,
        query: str,
        top_k: int | None = None,
        exclude: AbstractSet[Posting] | None = None,
    ) -> SearchResult:
        """Search for documents containing *all* keywords of ``query``.

        ``exclude`` names condemned postings (tombstoned documents) whose
        bytes must not be fetched: they are dropped between candidate
        computation and the document-fetch wave, exactly like the ranked
        path's pre-retrieval filtering.
        """
        words = list(dict.fromkeys(self._tokenizer.tokenize(query)))
        if not words:
            return SearchResult(query=query)
        if len(words) == 1:
            return self.query_word(words[0], top_k=top_k, exclude=exclude)
        predicate = parse_boolean_query(" AND ".join(words))
        return self._execute(words, predicate, query, top_k, exclude=exclude)

    def search_boolean(
        self,
        query: BooleanQuery | str,
        top_k: int | None = None,
        exclude: AbstractSet[Posting] | None = None,
    ) -> SearchResult:
        """Execute a Boolean query (AND/OR tree) over the index."""
        tree = parse_boolean_query(query) if isinstance(query, str) else query
        words = sorted(tree.terms())
        label = query if isinstance(query, str) else " ".join(words)
        return self._execute_boolean(words, tree, label, top_k, exclude=exclude)

    # -- execution helpers -------------------------------------------------------------

    def _execute(
        self,
        words: list[str],
        predicate: BooleanQuery,
        label: str,
        top_k: int | None,
        exclude: AbstractSet[Posting] | None = None,
    ) -> SearchResult:
        self._require_initialized()
        latency = LatencyBreakdown()
        candidates = self._lookup_terms(words, latency)
        return self._retrieve_and_filter(
            candidates, predicate, label, top_k, latency, exclude=exclude
        )

    def _execute_boolean(
        self,
        words: list[str],
        tree: BooleanQuery,
        label: str,
        top_k: int | None,
        exclude: AbstractSet[Posting] | None = None,
    ) -> SearchResult:
        self._require_initialized()
        latency = LatencyBreakdown()
        # Fetch every referenced term's superposts in one batch, then let the
        # query tree combine the per-term candidate sets.
        per_word = self._lookup_per_word(words, latency)
        candidates = tree.candidates(lambda word: per_word[word])
        return self._retrieve_and_filter(
            candidates, tree, label, top_k, latency, exclude=exclude
        )

    def _retrieve_and_filter(
        self,
        candidates: Superpost,
        predicate: BooleanQuery,
        label: str,
        top_k: int | None,
        latency: LatencyBreakdown,
        exclude: AbstractSet[Posting] | None = None,
    ) -> SearchResult:
        candidate_postings = candidates.sorted_postings()
        excluded_count = 0
        refunded_bytes = 0
        if exclude:
            # Pre-retrieval tombstone filtering: condemned candidates never
            # reach the fetch wave, so their bytes are refunded outright
            # (the ranked path has always worked this way).
            kept = [p for p in candidate_postings if p not in exclude]
            excluded_count = len(candidate_postings) - len(kept)
            if excluded_count:
                refunded_bytes = sum(
                    p.length for p in candidate_postings if p in exclude
                )
                candidate_postings = kept
        with span("search.retrieve", candidates=len(candidate_postings)) as retrieve_span:
            if excluded_count:
                retrieve_span.set(
                    excluded=excluded_count, refunded_bytes=refunded_bytes
                )
            if not candidate_postings:
                return SearchResult(query=label, candidate_postings=[], latency=latency)

            expected_fp = (
                self._metadata.expected_false_positives
                if self._metadata is not None
                else 0.0
            )
            to_fetch = candidate_postings
            if top_k is not None and top_k > 0:
                sample_size = top_k_sample_size(
                    top_k, len(candidate_postings), expected_fp, self._top_k_delta
                )
                to_fetch = candidate_postings[:sample_size]

            matched, fetched_count = self._fetch_and_filter(to_fetch, predicate, latency)
            if (
                top_k is not None
                and len(matched) < top_k
                and len(to_fetch) < len(candidate_postings)
            ):
                # The probabilistic sample came up short (probability <= delta);
                # fall back to fetching the remaining candidates.
                remainder = candidate_postings[len(to_fetch) :]
                more, more_count = self._fetch_and_filter(remainder, predicate, latency)
                matched.extend(more)
                fetched_count += more_count
            if top_k is not None:
                matched = matched[:top_k]
            retrieve_span.set(
                fetched=fetched_count,
                matched=len(matched),
                false_positives=fetched_count - len(matched),
            )

        return SearchResult(
            query=label,
            documents=matched,
            candidate_postings=candidate_postings,
            false_positive_count=fetched_count - len(matched),
            latency=latency,
        )

    def _fetch_and_filter(
        self,
        postings: list[Posting],
        predicate: BooleanQuery,
        latency: LatencyBreakdown,
    ) -> tuple[list[Document], int]:
        """Fetch documents for ``postings`` and keep only true matches."""
        if not postings:
            return [], 0
        requests = [posting.to_range_read() for posting in postings]
        fetch = self._pipeline.fetch(requests)
        if fetch.batch.requests:
            latency.add_retrieval(
                fetch.batch.total_ms,
                fetch.batch.wait_ms,
                fetch.batch.download_ms,
                fetch.batch.nbytes,
            )
        matched: list[Document] = []
        for posting, payload in zip(postings, fetch.payloads):
            if payload is None:
                continue
            text = payload.decode("utf-8", errors="replace")
            document = Document(ref=posting, text=text)
            if predicate.matches(self._tokenizer.distinct_terms(text)):
                matched.append(document)
        return matched, len(postings)

    def _require_initialized(self) -> None:
        if self._mht is None:
            raise RuntimeError(
                "Searcher is not initialized; call initialize() or AirphantSearcher.open()"
            )
