"""The member contract: what the query executor needs from one index tier.

A query runs over an ordered list of *members* — the persisted base index,
its delta indexes, the live memtables — and every one of them answers the
same four-name contract, :class:`Member`.  Members do no I/O on the query
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
from functools import partial
from typing import Callable, NamedTuple, Protocol, Sequence

from repro.core.superpost import EMPTY, Superpost
from repro.index.compaction import CompactedSketch
from repro.index.stats import IndexStats, decode_stats
from repro.index.store_layout import MAX_SHARDED_CONCURRENCY, stats_blob_name
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
    #: A superpost read carries its build's decoder, so its payload arrives
    #: decoded (and, warm, from the read cache).
    reads: Sequence[RangeRead]
    #: Turns the payloads of ``reads`` (same order: a decoded superpost per
    #: superpost read, then the statistics' bytes) into every queried word's
    #: final postings list.
    resolve: Callable[[Sequence[Superpost | bytes | None]], dict[str, Superpost]]
    #: The words ``reads`` serve, and over how many shards (diagnostics).
    words: Sequence[str] = ()
    shards: int = 0
    #: Ranked plans: the member's exact BM25 statistics — valid once
    #: ``resolve`` has run.
    statistics: Callable[[], IndexStats] | None = None
    #: F₀ of Equation 6 for the words planned: 0.0 when every word read is a
    #: common word (exact lists) or the member is exact, else its sketch's.
    expected_false_positives: float = 0.0


class Member(Protocol):
    """One tier of an index, as the query executor sees it."""

    #: Index (or memtable) name, for catalogs and diagnostics.
    name: str

    def plan(
        self, words: Sequence[str], fail_fast: bool = False, ranked: bool = False
    ) -> LookupPlan:
        """Wave 1, planned: the reads resolving every word's final postings
        list (its layers intersected), and the step that decodes them.

        With ``fail_fast`` (a pure conjunction) a word with no postings dooms
        the query, so a member may plan no superpost reads and answer every
        word empty.  A ``ranked`` plan also yields the member's statistics
        (its ``resolve`` raises
        :class:`~repro.index.store_layout.UnsupportedIndexFormatError` for a
        stats blob that is missing or in a retired format).
        """
        ...

    def resident(self, posting: Posting) -> Document | None:
        """The document at ``posting`` if this member holds it in memory;
        ``None`` when its bytes must come from the store in wave 2."""
        ...


class IndexMember:
    """A persisted IoU Sketch index.

    A build is one table; a sharded build's points at *runs*, each bin's
    shard superposts side by side.  A word is hashed once and read as one
    range per run, decoded into the union of its shares.  The executor runs
    the plan — with every other member's — as one batch through
    ``pipeline``, the :class:`~repro.storage.pipeline.ReadPipeline` of the
    opened index this member belongs to (a base and its deltas share one),
    so the member itself reads nothing.  Its ranking statistics — one blob for the whole
    build, however it is sharded — ride the lookup wave of its first ranked
    query and stay resident.
    """

    def __init__(
        self,
        name: str,
        pipeline: ReadPipeline,
        header: CompactedSketch,
        max_concurrency: int,
    ) -> None:
        self.name = name
        #: The opened index's one read pipeline (the executor reads through it).
        self.pipeline = pipeline
        #: The build's decoded header: its one table, string table and run split.
        self.header = header
        #: The in-memory Multilayer Hash Table (of the whole build).
        self.mht = header.mht
        #: The shard manifest (``None`` for a plain, single-header index).
        manifest = self.shard_manifest = header.manifest
        #: Shards of the build (1 for a plain index).
        self.num_shards = manifest.num_shards if manifest else 1
        #: Most requests this member alone wants in flight (scaled by its
        #: shard count); the opened index's pipeline is as wide as all its
        #: members together.
        self.max_concurrency = max_concurrency
        #: Corpus-wide metadata, aggregated over the shards.
        self.metadata = header.metadata_of()
        #: The sketch's expected false positives per query (Equation 2).
        self._false_positives = (
            self.metadata.expected_false_positives if self.metadata is not None else 0.0
        )
        # The statistics are shared across server threads
        # (ThreadingHTTPServer); guard their installation.
        self._lock = threading.Lock()
        self._statistics: IndexStats | None = None

    # -- wave 1: superpost reads + per-word intersection ---------------------------

    def plan(
        self, words: Sequence[str], fail_fast: bool = False, ranked: bool = False
    ) -> LookupPlan:
        """Every word's reads — one per run of its layers — as one plan.

        A Boolean query over N terms therefore costs the same single wave as
        a one-word query.  A word's layers intersect over its runs' decoded
        unions — exact, since shards partition the documents.  A word that
        no shard has in all its bins is empty, and nothing is read for it.

        With ``fail_fast`` (the AND path) such a word dooms the whole
        conjunction, so no superpost is read — matching a real engine that
        short-circuits on a missing term.  Without it (the general Boolean
        path) doomed words resolve to empty postings lists while the
        remaining words are still read.

        A ``ranked`` plan of a member whose statistics are not resident yet
        also reads them (doomed or not: the other members' candidates score
        against this member's documents too).
        """
        results: dict[str, Superpost] = {}
        unique = list(dict.fromkeys(words))
        header, runs = self.header, self.header.shards

        # Collect the reads per word: one per layer's run, whole.
        requests: list[RangeRead] = []
        layers: dict[str, range] = {}
        for word in unique:
            pointers = self.mht.pointers_for(word)
            # Alive: some shard has a share in every one of its runs.
            if not all(pointer.length for pointer in pointers) or (
                runs is not None and not runs.by_run[[p.row for p in pointers]].all(0).any()
            ):
                results[word] = EMPTY
                continue
            layers[word] = range(len(requests), len(requests) + len(pointers))
            requests.extend(
                RangeRead(p.blob, p.offset, p.length, decode=partial(header.decode_run, p.row))
                for p in pointers
            )
        fetch_words = list(layers)

        if fail_fast and len(fetch_words) < len(unique):
            for word in fetch_words:
                results[word] = EMPTY
            requests, fetch_words = [], []
        statistics = self._statistics_reads() if ranked else []

        def resolve(payloads: Sequence[Superpost | bytes | None]) -> dict[str, Superpost]:
            if statistics:
                self._install(payloads[len(requests) :])
            for word in fetch_words:
                results[word] = Superpost.intersect_all([payloads[i] for i in layers[word]])
            return results

        return LookupPlan(
            [*requests, *statistics],
            resolve,
            words=fetch_words,
            shards=self.num_shards,
            statistics=self._resident_statistics if ranked else None,
            expected_false_positives=0.0
            if all(map(self.mht.is_common, fetch_words))
            else self._false_positives,
        )

    # -- ranking statistics --------------------------------------------------------

    def _statistics_reads(self) -> list[RangeRead]:
        """The build's stats blob, unless the statistics are resident.

        One blob for the whole build, however it is sharded.
        """
        if self._statistics is not None:
            return []
        return [RangeRead(stats_blob_name(self.name), optional=True)]

    def _install(self, payloads: Sequence[bytes | None]) -> None:
        """Decode the stats blob and keep it (the first writer wins).

        A missing blob — a build older than the header-last write order, or a
        sharded one built when each shard kept its own — or one in a retired
        format is :class:`~repro.index.store_layout.UnsupportedIndexFormatError`
        naming it: the index must be rebuilt.
        """
        (payload,) = payloads
        decoded = decode_stats(payload, index_name=self.name)
        with self._lock:
            if self._statistics is None:
                self._statistics = decoded

    def _resident_statistics(self) -> IndexStats:
        statistics = self._statistics
        assert statistics is not None, "a ranked plan installs the statistics it scores with"
        return statistics

    def ranking_stats(self) -> IndexStats:
        """This index's statistics — for tools and probes, not part of the
        member contract (a query gets them from its ranked plan).

        Unless a ranked query already installed them, the executor reads
        them in one wave of this member's stats read.
        """
        from repro.search.searcher import AirphantSearcher  # the executor imports members

        return AirphantSearcher(members=[self]).ranking_statistics()[0]

    def resident(self, posting: Posting) -> None:
        """A persisted index holds no document in memory."""
        return None


__all__ = [
    "IndexMember",
    "LookupPlan",
    "MAX_SHARDED_CONCURRENCY",
    "Member",
]
