"""Airphant Searcher: the one query executor.

Query-time component (Figure 3, right half).  Initialization downloads each
index's header blob once and reconstructs its Multilayer Hash Table; every
query then runs the paper's two-wave algorithm, once, over an ordered list
of :class:`~repro.search.member.Member` tiers (base index, deltas, live
memtables).  Per member:

1. hash the query word(s) through the MHT to collect superpost pointers and
   fetch all required superposts in a *single batch of parallel range reads*
   (``member.lookup``);
2. combine them through the query tree into the final (slightly
   over-complete) candidate list, and drop the condemned (tombstoned) ones;
3. fetch the candidate documents in a second parallel batch (optionally only
   a top-K sample, Equation 6) (``member.fetch_documents``);
4. filter out false positives by checking the fetched text, restoring perfect
   precision.

The members' answers are then merged and de-duplicated by document
reference.  Because each member answers with a single parallel batch per
wave, querying several of them stays a constant number of round-trip waves.
"""

from __future__ import annotations

from collections.abc import Set as AbstractSet
from contextlib import nullcontext
from typing import Collection, Sequence

from repro.core.analysis import top_k_sample_size
from repro.core.superpost import Superpost
from repro.observability.tracing import span
from repro.parsing.documents import Document, Posting
from repro.parsing.tokenizer import Tokenizer, WhitespaceAnalyzer
from repro.search.boolean import BooleanQuery, Term, parse_boolean_query
from repro.search.member import IndexMember, Member
from repro.search.ranking import BM25Params, execute_topk
from repro.search.replication import HedgingPolicy
from repro.search.results import LatencyBreakdown, SearchResult
from repro.storage.base import ObjectStore


class AirphantSearcher:
    """Answers keyword, Boolean, ranked and term-lookup queries over members.

    Two ways in.  ``AirphantSearcher(store, index_name=...)`` names one
    persisted index (or a sequence of them — a base plus its deltas, all
    built over the same blob namespace) which :meth:`initialize` opens as
    :class:`~repro.search.member.IndexMember` tiers that this searcher owns
    and :meth:`close` releases.  ``AirphantSearcher(members=[...],
    exclude=...)`` runs over members somebody else owns (the service's
    catalog and live memtables); it is ready at once and closes nothing.

    ``exclude`` names condemned postings — documents deleted but not yet
    purged by a compaction.  They are dropped between candidate computation
    and the document-fetch wave, so their bytes are never requested, and
    ranked queries score against statistics with them excised.
    """

    def __init__(
        self,
        store: ObjectStore | None = None,
        index_name: str | Sequence[str] = "airphant-index",
        tokenizer: Tokenizer | None = None,
        max_concurrency: int = 32,
        hedging: HedgingPolicy | None = None,
        top_k_delta: float = 1e-6,
        query_cache_size: int = 0,
        coalesce_gap: int = 0,
        read_cache_bytes: int = 0,
        *,
        members: Sequence[Member] | None = None,
        exclude: AbstractSet[Posting] = frozenset(),
    ) -> None:
        if (store is None) == (members is None):
            raise ValueError("pass either a store (with index_name) or members=")
        self._tokenizer = tokenizer if tokenizer is not None else WhitespaceAnalyzer()
        self._top_k_delta = top_k_delta
        self._exclude = exclude
        self._members = list(members) if members is not None else None
        #: The members this searcher opened itself (and so closes).
        self._opened: list[IndexMember] = []
        self._store = store
        self._index_names = [index_name] if isinstance(index_name, str) else list(index_name)
        if store is not None and not self._index_names:
            raise ValueError("AirphantSearcher needs at least one index")
        self._member_options = {
            "max_concurrency": max_concurrency,
            "hedging": hedging,
            "query_cache_size": query_cache_size,
            "coalesce_gap": coalesce_gap,
            "read_cache_bytes": read_cache_bytes,
        }
        self.init_latency_ms = 0.0

    @classmethod
    def open(
        cls,
        store: ObjectStore,
        index_name: str | Sequence[str] = "airphant-index",
        tokenizer: Tokenizer | None = None,
        max_concurrency: int = 32,
        hedging: HedgingPolicy | None = None,
        top_k_delta: float = 1e-6,
        query_cache_size: int = 0,
        coalesce_gap: int = 0,
        read_cache_bytes: int = 0,
    ) -> "AirphantSearcher":
        """Create a Searcher and immediately load the index header(s)."""
        searcher = cls(
            store,
            index_name,
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

    def initialize(self) -> float:
        """Open every named index; returns the simulated latency.

        Headers are independent, so a real deployment downloads them
        concurrently; the simulated init latency is therefore the maximum of
        the per-index init latencies.  A searcher built over ``members=`` has
        nothing to open.
        """
        if self._store is None:
            return 0.0
        self.close()
        opened: list[IndexMember] = []
        try:
            for name in self._index_names:
                opened.append(IndexMember.open(self._store, name, **self._member_options))
        except BaseException:
            for member in opened:
                member.close()
            raise
        self._opened = opened
        self._members = list(opened)
        self.init_latency_ms = max(member.init_latency_ms for member in opened)
        return self.init_latency_ms

    def close(self) -> None:
        """Release the block caches of the members this searcher opened."""
        for member in self._opened:
            member.close()

    @property
    def opened(self) -> list[IndexMember]:
        """The index members this searcher opened itself, and so owns
        (none when it was built over ``members=``)."""
        return list(self._opened)

    @property
    def is_initialized(self) -> bool:
        """Whether the members are resolved (headers loaded)."""
        return self._members is not None

    @property
    def searchers(self) -> list[Member]:
        """The members, in search order (base first, then deltas, then memtables)."""
        return list(self._require_members())

    @property
    def index_names(self) -> list[str]:
        """Names of the members, in search order."""
        return [member.name for member in self._require_members()]

    def with_members(
        self, members: Sequence[Member], exclude: AbstractSet[Posting] = frozenset()
    ) -> "AirphantSearcher":
        """A searcher over other members with this one's tokenizer and top-K bound."""
        return AirphantSearcher(
            members=members,
            exclude=exclude,
            tokenizer=self._tokenizer,
            top_k_delta=self._top_k_delta,
        )

    def restrict(self, ordinals: Collection[int]) -> "AirphantSearcher":
        """A searcher answering only the given shard ordinals of every member.

        Members holding none of the ordinals drop out (unsharded ones ride
        with ordinal 0).  Raises ``ValueError`` when no member is left.
        """
        members = self._require_members()
        views = [
            view for member in members if (view := member.restrict(ordinals)) is not None
        ]
        if not views:
            raise ValueError(f"no member holds shard ordinal(s) {sorted(ordinals)}")
        if len(views) == len(members) and all(
            view is member for view, member in zip(views, members)
        ):
            return self
        return self.with_members(views, self._exclude)

    def _require_members(self) -> list[Member]:
        if self._members is None:
            raise RuntimeError(
                "Searcher is not initialized; call initialize() or AirphantSearcher.open()"
            )
        return self._members

    # -- queries --------------------------------------------------------------------

    def lookup_postings(self, word: str) -> tuple[list[Posting], LatencyBreakdown]:
        """Term-index lookup only: the final postings list for one keyword.

        This is the operation benchmarked against SQLite's B-tree in the
        paper's Figure 14 — everything up to (but excluding) document
        retrieval.
        """
        latencies: list[LatencyBreakdown] = []
        postings: dict[Posting, None] = {}
        for member in self._require_members():
            latency = LatencyBreakdown()
            latencies.append(latency)
            found = member.lookup([word], latency, fail_fast=True)[word]
            postings.update(
                (posting, None)
                for posting in found.sorted_postings()
                if posting not in self._exclude
            )
        return list(postings), LatencyBreakdown.merged(latencies)

    def query_word(self, word: str, top_k: int | None = None) -> SearchResult:
        """Search for documents containing a single keyword."""
        return self._execute(Term(word), [word], word, top_k, fail_fast=True)

    def search(self, query: str, top_k: int | None = None) -> SearchResult:
        """Search for documents containing *all* keywords of ``query``."""
        words = list(dict.fromkeys(self._tokenizer.tokenize(query)))
        if not words:
            return SearchResult(query=query)
        tree = (
            Term(words[0]) if len(words) == 1 else parse_boolean_query(" AND ".join(words))
        )
        return self._execute(tree, words, query, top_k, fail_fast=True)

    def search_boolean(
        self, query: BooleanQuery | str, top_k: int | None = None
    ) -> SearchResult:
        """Execute a Boolean query (AND/OR tree) over the members."""
        tree = parse_boolean_query(query) if isinstance(query, str) else query
        words = sorted(tree.terms())
        label = query if isinstance(query, str) else " ".join(words)
        # Every referenced term's superposts are fetched in one batch, then
        # the query tree combines the per-term candidate sets.
        return self._execute(tree, words, label, top_k, fail_fast=False)

    def search_topk(
        self,
        query: str,
        k: int,
        weights: dict[str, float] | None = None,
        params: BM25Params | None = None,
    ) -> SearchResult:
        """BM25 top-k ranked retrieval: the best ``k`` documents matching all
        query terms, scored into [0, 1] and ordered best-first.

        Every member contributes its exact ranking statistics; they are
        merged by posting (a document transiently visible in two members
        mid-flush counts once) and all members' candidates are scored
        against the merged, corpus-wide statistics — so the ranked list
        matches what a fresh single-index rebuild over the same documents
        would return.
        """
        words = list(dict.fromkeys(self._tokenizer.tokenize(query)))
        return execute_topk(
            self._require_members(),
            words,
            query,
            k,
            params=params,
            weights=weights,
            exclude=self._exclude,
        )

    # -- execution ------------------------------------------------------------------

    def _execute(
        self,
        tree: BooleanQuery,
        words: list[str],
        label: str,
        top_k: int | None,
        fail_fast: bool,
    ) -> SearchResult:
        """Both waves on every member in order, then the merge."""
        latencies: list[LatencyBreakdown] = []
        documents: dict[Posting, Document] = {}
        candidates: dict[Posting, None] = {}
        false_positives = 0
        for member in self._require_members():
            latency = LatencyBreakdown()
            latencies.append(latency)
            with (
                span("visibility.filter", tombstones=len(self._exclude))
                if self._exclude
                else nullcontext()
            ):
                per_word = member.lookup(words, latency, fail_fast=fail_fast)
                matched, postings, wasted = self._retrieve(
                    member, tree.candidates(per_word.__getitem__), tree, top_k, latency
                )
            for document in matched:
                documents.setdefault(document.ref, document)
            candidates.update(dict.fromkeys(postings))
            false_positives += wasted
        return SearchResult(
            query=label,
            documents=list(documents.values())[:top_k],
            candidate_postings=list(candidates),
            false_positive_count=false_positives,
            latency=LatencyBreakdown.merged(latencies),
        )

    def _retrieve(
        self,
        member: Member,
        candidates: Superpost,
        predicate: BooleanQuery,
        top_k: int | None,
        latency: LatencyBreakdown,
    ) -> tuple[list[Document], list[Posting], int]:
        """Wave 2 on one member: its true matches, its candidates, its wasted fetches."""
        postings = candidates.sorted_postings()
        # Pre-retrieval tombstone filtering: condemned candidates never reach
        # the fetch wave, so their bytes are refunded outright and top-k
        # sampling stays effective.
        condemned = [p for p in postings if p in self._exclude] if self._exclude else []
        if condemned:
            postings = [p for p in postings if p not in self._exclude]
        with span("search.retrieve", candidates=len(postings)) as retrieve_span:
            if condemned:
                retrieve_span.set(
                    excluded=len(condemned),
                    refunded_bytes=sum(p.length for p in condemned),
                )
            if not postings:
                return [], [], 0
            fetched = len(postings)
            if top_k is not None and top_k > 0:
                fetched = top_k_sample_size(
                    top_k, len(postings), member.expected_false_positives, self._top_k_delta
                )
            matched = self._fetch_matching(member, postings[:fetched], predicate, latency)
            if top_k is not None and len(matched) < top_k and fetched < len(postings):
                # The probabilistic sample came up short (probability <= delta);
                # fall back to fetching the remaining candidates.
                matched += self._fetch_matching(
                    member, postings[fetched:], predicate, latency
                )
                fetched = len(postings)
            if top_k is not None:
                matched = matched[:top_k]
            retrieve_span.set(
                fetched=fetched,
                matched=len(matched),
                false_positives=fetched - len(matched),
            )
        return matched, postings, fetched - len(matched)

    def _fetch_matching(
        self,
        member: Member,
        postings: list[Posting],
        predicate: BooleanQuery,
        latency: LatencyBreakdown,
    ) -> list[Document]:
        """Fetch documents for ``postings`` and keep only true matches."""
        return [
            document
            for document in member.fetch_documents(postings, latency)
            if predicate.matches(self._tokenizer.distinct_terms(document.text))
        ]
