"""The member contract: what the query executor needs from one index tier.

A query runs over an ordered list of *members* — the persisted base index,
its delta indexes, the live memtables — and every one of them answers the
same five-name contract, :class:`Member`.  Members do no I/O on the query
path.  The executor (:class:`~repro.search.searcher.AirphantSearcher`) owns
everything that is the same for all tiers (tokenizing, the two read waves,
the Boolean tree, tombstone exclusion, top-K sampling, false-positive
filtering, BM25, latency accounting); a member owns only what differs: which
ranges hold a word's postings — and, for a ranked query, its statistics —
and what their bytes mean (:meth:`Member.plan`), and which documents it
already holds in memory (:meth:`Member.resident`).

There are exactly two implementations: :class:`IndexMember` here (a persisted
IoU Sketch index — a plain index *is* the one-shard case of a sharded one)
and :class:`~repro.ingest.memtable.MemtableMember` (the exact in-memory map
of not-yet-flushed documents).
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Callable, Collection, NamedTuple, Protocol, Sequence

from repro.core.mht import MultilayerHashTable
from repro.core.superpost import EMPTY, Superpost
from repro.index.compaction import CompactedSketch
from repro.index.metadata import IndexMetadata, ShardManifest, index_metadata
from repro.index.serialization import StringTable, decode_superpost
from repro.index.stats import IndexStats, RankingUnsupportedError, decode_stats
from repro.index.store_layout import MAX_SHARDED_CONCURRENCY, CorruptIndexError, stats_blob_name
from repro.parsing.documents import Document, Posting
from repro.storage.base import RangeRead
from repro.storage.pipeline import ReadPipeline


class LookupPlan(NamedTuple):
    """One member's share of wave 1: what to read, and what the bytes mean.

    A tuple, not a dataclass: every query builds one per member, and a
    frozen dataclass costs a microsecond more to build.
    """

    #: The superpost ranges to read — none when every word has no postings
    #: or belongs to a doomed conjunction — then, on a ranked
    #: plan of a member whose statistics are not resident yet, their reads.
    #: A superpost read carries its shard's decoder, so its payload arrives
    #: decoded (and, warm, from the read cache).
    reads: Sequence[RangeRead]
    #: Turns the payloads of ``reads`` (same order: a decoded superpost per
    #: superpost read, ``None`` for a straggler the L⁺ drop gave up on, then
    #: the statistics' bytes) into every queried word's final postings list.
    resolve: Callable[[Sequence[Superpost | bytes | None]], dict[str, Superpost]]
    #: The words ``reads`` serve, and over how many shards (diagnostics).
    words: Sequence[str] = ()
    shards: int = 0
    #: One unsharded member's one non-common word: when this plan is a whole
    #: wave, a hedging executor may drop its slowest reads (Section IV-G).
    hedgeable: bool = False
    #: Ranked plans: the member's exact BM25 statistics, one per shard —
    #: valid once ``resolve`` has run.
    statistics: Callable[[], Sequence[IndexStats]] | None = None


class Member(Protocol):
    """One tier of an index, as the query executor sees it."""

    #: Index (or memtable) name, for catalogs and diagnostics.
    name: str
    #: The sketch's expected false positives per query (Equation 6 input);
    #: 0.0 for exact members.
    expected_false_positives: float

    def plan(
        self, words: Sequence[str], fail_fast: bool = False, ranked: bool = False
    ) -> LookupPlan:
        """Wave 1, planned: the reads resolving every word's final postings
        list (its layers intersected), and the step that decodes them.

        With ``fail_fast`` (a pure conjunction) a word with no postings dooms
        the query, so a member may plan no superpost reads and answer every
        word empty.  A ``ranked`` plan also yields the member's statistics
        (its ``resolve`` may raise
        :class:`~repro.index.stats.RankingUnsupportedError`).
        """
        ...

    def resident(self, posting: Posting) -> Document | None:
        """The document at ``posting`` if this member holds it in memory;
        ``None`` when its bytes must come from the store in wave 2."""
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
    """In-memory header state of one opened shard."""

    name: str
    mht: MultilayerHashTable
    string_table: StringTable
    metadata: IndexMetadata | None

    @classmethod
    def from_header(cls, name: str, header: CompactedSketch) -> "ShardState":
        return cls(name, header.mht, header.string_table, header.metadata)

    def decode(self, payload: bytes | memoryview) -> Superpost:
        """One of this shard's superposts, decoded (every superpost read's
        :attr:`~repro.storage.base.RangeRead.decode`); bytes that do not
        decode are a :class:`~repro.index.store_layout.CorruptIndexError`."""
        try:
            return decode_superpost(payload, self.string_table)
        except (ValueError, KeyError) as error:
            raise CorruptIndexError(self.mht.blob, error) from error


class IndexMember:
    """A persisted IoU Sketch index — every shard of it, or a subset.

    A word's superpost reads are collected across *every* shard into one
    plan; per shard the layers intersect, and the per-shard answers union
    (partitions are disjoint, so the union is exact).  The executor runs the
    plan — with every other member's — as one batch through ``pipeline``,
    the :class:`~repro.storage.pipeline.ReadPipeline` of the opened index
    this member belongs to (a base and its deltas share one), so the member
    itself reads nothing.  Its ranking statistics ride the lookup wave of
    its first ranked query and stay resident.
    """

    def __init__(
        self,
        name: str,
        pipeline: ReadPipeline,
        shard_manifest: ShardManifest | None,
        shards: Sequence[ShardState],
        max_concurrency: int,
        whole: "IndexMember | None" = None,
    ) -> None:
        self.name = name
        #: The opened index's one read pipeline (the executor reads through it).
        self.pipeline = pipeline
        #: The shard manifest (``None`` for a plain, single-header index).
        self.shard_manifest = shard_manifest
        self.shards = tuple(shards)
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
        # The statistics are shared across server threads
        # (ThreadingHTTPServer); guard their installation.
        self._lock = threading.Lock()
        #: The member whose shard list is the whole index (itself unless this
        #: is a restricted view): it holds the statistics every view scores with.
        self._whole = whole if whole is not None else self
        self._statistics: tuple[IndexStats, ...] | None = None

    @property
    def num_shards(self) -> int:
        """Shards this member answers for (1 for a plain index)."""
        return len(self.shards)

    @property
    def mht(self) -> MultilayerHashTable:
        """The in-memory Multilayer Hash Table (of the first shard)."""
        return self.shards[0].mht

    def restrict(self, ordinals: Collection[int]) -> "IndexMember | None":
        """A view answering only the given shard ordinals (``None`` if it holds none).

        The scatter half of the cluster tier's scatter-gather: a router
        assigns each node a subset of ordinals, and the node answers its
        subset through this view while the router unions the partial
        answers (partitions are disjoint, so the union is exact).

        The view shares this member's pipeline — its block cache included —
        and ranking statistics; only the shard list (and the metadata merged
        over it) differs.
        """
        held = sorted({o for o in ordinals if 0 <= o < len(self.shards)})
        if not held:
            return None
        if len(held) == len(self.shards):
            return self
        return IndexMember(
            self.name,
            self.pipeline,
            self.shard_manifest,
            [self.shards[ordinal] for ordinal in held],
            self.max_concurrency,
            whole=self._whole,
        )

    # -- wave 1: superpost reads + per-word intersection ---------------------------

    def plan(
        self, words: Sequence[str], fail_fast: bool = False, ranked: bool = False
    ) -> LookupPlan:
        """Every (shard, word, layer) superpost read of ``words``, as one plan.

        A Boolean query over N terms therefore costs the same single wave as
        a one-word query.  Per shard a word's layers intersect with each
        other only; across shards the per-shard answers union.  A word that
        hits an empty bin in a shard is simply absent from that shard; only
        a word absent from *every* shard is globally empty.  The shards'
        shares of a bin sit side by side in ``superposts.bin``, so the reads
        of one bin merge into one request whatever the shard count.

        With ``fail_fast`` (the AND path) such a word dooms the whole
        conjunction, so no superpost is read — matching a real engine that
        short-circuits on a missing term.  Without it (the general Boolean
        path) doomed words resolve to empty postings lists while the
        remaining words are still read.

        A ``ranked`` plan of a member whose statistics are not resident yet
        also reads them (doomed or not: the other members' candidates score
        against this member's documents too), and is never hedged — the L⁺
        drop must not discard statistics.
        """
        results: dict[str, Superpost] = {}
        unique = list(dict.fromkeys(words))

        # Collect pointers per (shard, word), remembering which requests
        # belong to whom.
        requests: list[RangeRead] = []
        layers: dict[tuple[int, str], range] = {}
        fetch_words: list[str] = []
        for word in unique:
            pointers = [shard.mht.pointers_for(word) for shard in self.shards]
            # A shard with an empty bin for the word has no postings for it.
            alive = [all(pointer.length for pointer in shard) for shard in pointers]
            if not any(alive):
                results[word] = EMPTY
                continue
            fetch_words.append(word)
            # Every shard's share is read — the ones without the word are
            # ignored — so each bin's run stays one contiguous range, and a
            # word's bins placed side by side one request, as with one shard.
            for ordinal, (shard, shard_pointers) in enumerate(zip(self.shards, pointers)):
                first, decode = len(requests), shard.decode
                requests += [p.to_range_read(decode) for p in shard_pointers if p.length]
                if alive[ordinal]:
                    layers[(ordinal, word)] = range(first, len(requests))

        if fail_fast and len(fetch_words) < len(unique):
            for word in fetch_words:
                results[word] = EMPTY
            requests, fetch_words = [], []
        statistics = self._statistics_reads() if ranked else []

        def resolve(payloads: Sequence[Superpost | bytes | None]) -> dict[str, Superpost]:
            if statistics:
                self._install(payloads[len(requests) :])
            for word in fetch_words:
                per_shard: list[Superpost] = []
                for shard_index in range(len(self.shards)):
                    # A hedged-away straggler's payload is None: skip that layer
                    # (the intersection of the rest is still a valid superset).
                    superposts = [
                        superpost
                        for index in layers.get((shard_index, word), ())
                        if (superpost := payloads[index]) is not None
                    ]
                    if superposts:
                        per_shard.append(Superpost.intersect_all(superposts))
                results[word] = (
                    per_shard[0] if len(per_shard) == 1 else Superpost.union_all(per_shard)
                )
            return results

        return LookupPlan(
            [*requests, *statistics],
            resolve,
            words=fetch_words,
            shards=len(self.shards),
            hedgeable=not statistics
            and self.shard_manifest is None
            and len(fetch_words) == 1
            and not self.mht.is_common(fetch_words[0]),
            statistics=self._resident_statistics if ranked else None,
        )

    # -- ranking statistics --------------------------------------------------------

    def _build_names(self) -> list[str]:
        """Every build of the whole index — never just a view's shards."""
        if self.shard_manifest is None:
            return [self.name]
        return [entry.name for entry in self.shard_manifest.shards]

    def _statistics_reads(self) -> list[RangeRead]:
        """The stats blob of every build, unless the statistics are resident.

        Always the **whole** index's — so a shard-restricted view scores with
        exactly the same corpus-wide IDF and average length as the full
        member (and as every other node of a routed cluster).
        """
        if self._whole._statistics is not None:
            return []
        return [RangeRead(stats_blob_name(name), optional=True) for name in self._build_names()]

    def _install(self, payloads: Sequence[bytes | None]) -> None:
        """Decode the stats blobs and keep them (the first writer wins).

        A missing blob — an index built before ranked retrieval existed — is
        :class:`~repro.index.stats.RankingUnsupportedError`.
        """
        if any(payload is None for payload in payloads):
            raise RankingUnsupportedError(self.name, "no ranking statistics blob")
        decoded = tuple(
            decode_stats(payload, index_name=name)
            for name, payload in zip(self._build_names(), payloads)
        )
        with self._whole._lock:
            if self._whole._statistics is None:
                self._whole._statistics = decoded

    def _resident_statistics(self) -> tuple[IndexStats, ...]:
        statistics = self._whole._statistics
        assert statistics is not None, "a ranked plan installs the statistics it scores with"
        return statistics

    def ranking_stats(self) -> tuple[IndexStats, ...]:
        """This index's statistics, one per build — for tools and probes, not
        part of the member contract (a query gets them from its ranked plan).

        Unless a ranked query already installed them, the executor reads
        them in one wave of this member's stats reads.
        """
        from repro.search.searcher import AirphantSearcher  # the executor imports members

        return tuple(AirphantSearcher(members=[self]).ranking_statistics()[0])

    def resident(self, posting: Posting) -> None:
        """A persisted index holds no document in memory."""
        return None


__all__ = [
    "IndexMember",
    "LookupPlan",
    "MAX_SHARDED_CONCURRENCY",
    "Member",
    "ShardState",
]
