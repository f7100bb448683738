"""The member contract: what the query executor needs from one index tier.

A query runs over an ordered list of *members* — the persisted base index,
its delta indexes, the live memtables — and every one of them answers the
same six-name contract, :class:`Member`.  Members do no I/O on the query
path.  The executor (:class:`~repro.search.searcher.AirphantSearcher`) owns
everything that is the same for all tiers (tokenizing, the two read waves,
the Boolean tree, tombstone exclusion, top-K sampling, false-positive
filtering, latency accounting); a member owns only what differs: which
ranges hold a word's postings and what their bytes mean
(:meth:`Member.plan`), and which documents it already holds in memory
(:meth:`Member.resident`).

There are exactly two implementations: :class:`IndexMember` here (a persisted
IoU Sketch index — a plain index *is* the one-shard case of a sharded one)
and :class:`~repro.ingest.memtable.MemtableMember` (the exact in-memory map
of not-yet-flushed documents).
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Callable, Collection, Protocol, Sequence

from repro.core.mht import MultilayerHashTable
from repro.core.superpost import EMPTY, Superpost
from repro.index.compaction import CompactedSketch
from repro.index.metadata import IndexMetadata, ShardManifest, index_metadata
from repro.index.serialization import StringTable, decode_superpost
from repro.index.stats import IndexStats, RankingUnsupportedError, decode_stats, merge_stats
from repro.index.store_layout import MAX_SHARDED_CONCURRENCY, stats_blob_name
from repro.observability.tracing import span
from repro.parsing.documents import Document, Posting
from repro.storage.base import BlobNotFoundError, ObjectStore, RangeRead
from repro.storage.pipeline import ReadPipeline


@dataclass(frozen=True)
class LookupPlan:
    """One member's share of wave 1: what to read, and what the bytes mean."""

    #: The superpost ranges to read — none when every word is memoized, has
    #: no postings, or belongs to a doomed conjunction.
    reads: Sequence[RangeRead]
    #: Turns the payloads of ``reads`` (same order; ``None`` for a straggler
    #: the L⁺ drop gave up on) into every queried word's final postings list.
    resolve: Callable[[Sequence[bytes | None]], dict[str, Superpost]]
    #: The words ``reads`` serve, and over how many shards (diagnostics).
    words: Sequence[str] = ()
    shards: int = 0
    #: One unsharded member's one non-common word: when this plan is a whole
    #: wave, a hedging executor may drop its slowest reads (Section IV-G).
    hedgeable: bool = False


class Member(Protocol):
    """One tier of an index, as the query executor sees it."""

    #: Index (or memtable) name, for catalogs and diagnostics.
    name: str
    #: The sketch's expected false positives per query (Equation 6 input);
    #: 0.0 for exact members.
    expected_false_positives: float

    def plan(self, words: Sequence[str], fail_fast: bool = False) -> LookupPlan:
        """Wave 1, planned: the reads resolving every word's final postings
        list (its layers intersected), and the step that decodes them.

        With ``fail_fast`` (a pure conjunction) a word with no postings dooms
        the query, so a member may plan no reads and answer every word empty.
        """
        ...

    def resident(self, posting: Posting) -> Document | None:
        """The document at ``posting`` if this member holds it in memory;
        ``None`` when its bytes must come from the store in wave 2."""
        ...

    def ranking_stats(self) -> IndexStats:
        """This member's exact BM25 statistics (may raise
        :class:`~repro.index.stats.RankingUnsupportedError`)."""
        ...

    def restrict(self, ordinals: Collection[int]) -> "Member | None":
        """The part of this member living on the given shard ordinals.

        ``None`` when it holds none of them.  Unsharded members ride with
        ordinal 0, so disjoint ordinal subsets across the nodes of a cluster
        partition any member list exactly.
        """
        ...


@dataclass(frozen=True)
class ShardState:
    """In-memory header state of one opened shard.

    ``format_version`` is per-shard: shards written by builders of different
    vintages may mix codecs, and each decodes with its own header's version.
    """

    name: str
    mht: MultilayerHashTable
    string_table: StringTable
    metadata: IndexMetadata | None
    format_version: int = 1

    @classmethod
    def from_header(cls, name: str, header: CompactedSketch) -> "ShardState":
        return cls(
            name, header.mht, header.string_table, header.metadata, header.format_version
        )


class _StatsCache:
    """Lazily-loaded ranking statistics, shared by every view of one index.

    Whichever view loads the stats first, every view scores with the
    identical full-corpus statistics afterwards.  Like the header, the stats
    are a one-time download amortized over every later ranked query; what
    it cost on the store's clock is recorded in ``load_ms`` rather than
    charged to any single query.
    """

    def __init__(self) -> None:
        self.lock = threading.Lock()
        self.stats: IndexStats | None = None
        self.load_ms = 0.0


class IndexMember:
    """A persisted IoU Sketch index — every shard of it, or a subset.

    A word's superpost reads are collected across *every* shard into one
    plan; per shard the layers intersect, and the per-shard answers union
    (partitions are disjoint, so the union is exact).  The executor runs the
    plan — with every other member's — as one batch through ``pipeline``,
    the :class:`~repro.storage.pipeline.ReadPipeline` of the opened index
    this member belongs to (a base and its deltas share one), so the member
    itself reads nothing but its ranking statistics, once.
    """

    def __init__(
        self,
        store: ObjectStore,
        name: str,
        pipeline: ReadPipeline,
        shard_manifest: ShardManifest | None,
        shards: Sequence[ShardState],
        max_concurrency: int,
        query_cache_size: int = 0,
        stats_cache: _StatsCache | None = None,
    ) -> None:
        self.name = name
        self._store = store
        #: The opened index's one read pipeline (the executor reads through it).
        self.pipeline = pipeline
        #: The shard manifest (``None`` for a plain, single-header index).
        self.shard_manifest = shard_manifest
        self.shards = tuple(shards)
        self._stats_cache = stats_cache if stats_cache is not None else _StatsCache()
        #: Most requests this member alone wants in flight (scaled by its
        #: shard count); the opened index's pipeline is as wide as all its
        #: members together.
        self.max_concurrency = max_concurrency
        #: Corpus-wide metadata, aggregated over the shards this view holds.
        self.metadata = index_metadata(
            shard_manifest, [shard.metadata for shard in self.shards]
        )
        self.expected_false_positives = (
            self.metadata.expected_false_positives if self.metadata is not None else 0.0
        )
        # Optional per-word memoization of final postings lists (Section IV-A
        # suggests query caching to bound the worst-case deviation).  Valid
        # because the paper targets read-oriented corpora that rarely change.
        self._query_cache_size = max(0, query_cache_size)
        self._query_cache: OrderedDict[str, Superpost] = OrderedDict()
        # The cache is shared across server threads (ThreadingHTTPServer);
        # guard its mutations so LRU bookkeeping stays consistent.
        self._cache_lock = threading.Lock()
        self.cache_hits = 0
        self.cache_misses = 0

    @property
    def num_shards(self) -> int:
        """Shards this member answers for (1 for a plain index)."""
        return len(self.shards)

    @property
    def mht(self) -> MultilayerHashTable:
        """The in-memory Multilayer Hash Table (of the first shard)."""
        return self.shards[0].mht

    @property
    def stats_load_ms(self) -> float:
        """What the one-time ranking-statistics download cost on the store's clock."""
        return self._stats_cache.load_ms

    def restrict(self, ordinals: Collection[int]) -> "IndexMember | None":
        """A view answering only the given shard ordinals (``None`` if it holds none).

        The scatter half of the cluster tier's scatter-gather: a router
        assigns each node a subset of ordinals, and the node answers its
        subset through this view while the router unions the partial
        answers (partitions are disjoint, so the union is exact).

        The view shares this member's pipeline and ranking statistics —
        only the shard list (and the metadata merged over it) differs.  The
        per-word query cache is disabled on the view: its entries would
        describe just the subset while being keyed like whole-index answers.
        """
        held = sorted({o for o in ordinals if 0 <= o < len(self.shards)})
        if not held:
            return None
        if len(held) == len(self.shards):
            return self
        return IndexMember(
            self._store,
            self.name,
            self.pipeline,
            self.shard_manifest,
            [self.shards[ordinal] for ordinal in held],
            self.max_concurrency,
            stats_cache=self._stats_cache,
        )

    # -- wave 1: superpost reads + per-word intersection ---------------------------

    def plan(self, words: Sequence[str], fail_fast: bool = False) -> LookupPlan:
        """Every (shard, word, layer) superpost read of ``words``, as one plan.

        A Boolean query over N terms therefore costs the same single wave as
        a one-word query.  Per shard a word's layers intersect with each
        other only; across shards the per-shard answers union.  A word that
        hits an empty bin in a shard is simply absent from that shard; only
        a word absent from *every* shard is globally empty.

        With ``fail_fast`` (the AND path) such a word dooms the whole
        conjunction, so nothing is planned — matching a real engine that
        short-circuits on a missing term.  Without it (the general Boolean
        path) doomed words resolve to empty postings lists while the
        remaining words are still read.
        """
        results, pending = self._cache_partition(words)

        # Collect pointers per (shard, pending word), remembering which
        # requests belong to whom.
        requests: list[RangeRead] = []
        layers: dict[tuple[int, str], range] = {}
        fetch_words: list[str] = []
        for word in pending:
            alive = False
            for shard_index, shard in enumerate(self.shards):
                pointers = shard.mht.pointers_for(word)
                if any(pointer.is_empty for pointer in pointers):
                    continue  # the word has no postings in this shard
                layers[(shard_index, word)] = range(
                    len(requests), len(requests) + len(pointers)
                )
                requests.extend(pointer.to_range_read() for pointer in pointers)
                alive = True
            if alive:
                fetch_words.append(word)
            else:
                results[word] = EMPTY

        if fail_fast and len(fetch_words) < len(pending):
            for word in fetch_words:
                results[word] = EMPTY
            return LookupPlan((), lambda _: results)

        def resolve(payloads: Sequence[bytes | None]) -> dict[str, Superpost]:
            for word in fetch_words:
                per_shard: list[Superpost] = []
                for shard_index, shard in enumerate(self.shards):
                    # A hedged-away straggler's payload is None: skip that layer
                    # (the intersection of the rest is still a valid superset).
                    superposts = [
                        decode_superpost(payload, shard.string_table, shard.format_version)
                        for index in layers.get((shard_index, word), ())
                        if (payload := payloads[index]) is not None
                    ]
                    if superposts:
                        per_shard.append(Superpost.intersect_all(superposts))
                result = (
                    per_shard[0] if len(per_shard) == 1 else Superpost.union_all(per_shard)
                )
                self._remember_lookup(word, result)
                results[word] = result
            return results

        return LookupPlan(
            requests,
            resolve,
            words=fetch_words,
            shards=len(self.shards),
            hedgeable=self.shard_manifest is None
            and len(fetch_words) == 1
            and not self.mht.is_common(fetch_words[0]),
        )

    def _cache_partition(
        self, words: Sequence[str]
    ) -> tuple[dict[str, Superpost], list[str]]:
        """Split ``words`` into memoized results and words still to fetch.

        Cache-hit words resolve with no storage traffic and no added latency;
        a query whose words all hit counts as one cache hit, anything else as
        one miss.
        """
        if self._query_cache_size <= 0:
            return {}, list(dict.fromkeys(words))
        results: dict[str, Superpost] = {}
        pending: list[str] = []
        with self._cache_lock:
            for word in dict.fromkeys(words):
                if word in self._query_cache:
                    self._query_cache.move_to_end(word)
                    results[word] = self._query_cache[word]
                else:
                    pending.append(word)
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
            self._query_cache[word] = result
            self._query_cache.move_to_end(word)
            while len(self._query_cache) > self._query_cache_size:
                self._query_cache.popitem(last=False)

    def resident(self, posting: Posting) -> None:
        """A persisted index holds no document in memory."""
        return None

    # -- ranking statistics --------------------------------------------------------

    def ranking_stats(self) -> IndexStats:
        """The index's persisted ranking statistics (loaded once, cached).

        Always the **whole** index's statistics — loaded over the manifest's
        complete shard list, never the restricted subset — so a
        shard-restricted view scores with exactly the same corpus-wide IDF
        and average length as the full member (and as every other node of a
        routed cluster).

        Raises :class:`~repro.index.stats.RankingUnsupportedError` when the
        index was built before ranked retrieval existed (no stats blob).
        """
        cache = self._stats_cache
        with cache.lock:
            if cache.stats is None:
                cache.stats = self._load_stats()
            return cache.stats

    def _load_stats(self) -> IndexStats:
        names = (
            [entry.name for entry in self.shard_manifest.shards]
            if self.shard_manifest is not None
            else [self.name]
        )
        with span("rank.stats_load", index=self.name, shards=len(names)):
            try:
                fetch = self._store.read_batch(
                    [RangeRead(blob=stats_blob_name(name)) for name in names],
                    self.max_concurrency,
                )
            except BlobNotFoundError:
                raise RankingUnsupportedError(
                    self.name, "no ranking statistics blob"
                ) from None
        self._stats_cache.load_ms += fetch.total_ms
        stats = [
            decode_stats(payload, index_name=name)
            for name, payload in zip(names, fetch.payloads)
        ]
        return stats[0] if self.shard_manifest is None else merge_stats(stats)


__all__ = [
    "IndexMember",
    "LookupPlan",
    "MAX_SHARDED_CONCURRENCY",
    "Member",
    "ShardState",
]
