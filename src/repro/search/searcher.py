"""Airphant Searcher: the one query executor.

Query-time component (Figure 3, right half).  Initialization downloads each
index's header blob once and reconstructs its Multilayer Hash Table; every
query then runs the paper's two-wave algorithm, once, over an ordered list
of :class:`~repro.search.member.Member` tiers (base index, deltas, live
memtables) — and each wave is **one** batch, however many members:

1. every member hashes the query word(s) through its MHT into a plan of
   superpost reads (``member.plan``); the plans of all members go out as a
   *single batch of parallel range reads* through the opened index's one
   :class:`~repro.storage.pipeline.ReadPipeline`;
2. each member's payloads decode into per-word postings lists
   (:class:`~repro.core.superpost.Superpost`: sorted, immutable, columns when
   long), the query tree combines them **per member** into that member's
   (slightly over-complete) candidates, the condemned (tombstoned) ones are
   dropped, and the rest concatenate in member order (the first member
   producing a posting owns it) — all as list operations, without creating
   a ``Posting``;
3. the candidate documents no member holds in memory (``member.resident``)
   are fetched in a second single batch — optionally only a top-K sample of
   the merged list (Equation 6), the only candidates that become objects;
4. false positives are filtered out by checking the fetched text, restoring
   perfect precision.

A query therefore waits for exactly two dependent round trips, regardless of
term, shard, delta or memtable count, and its
:class:`~repro.search.results.LatencyBreakdown` is the sum of those two.
"""

from __future__ import annotations

from collections.abc import Set as AbstractSet
from contextlib import nullcontext
from typing import Callable, Collection, Sequence

from repro.core.analysis import top_k_sample_size
from repro.core.superpost import Superpost
from repro.index.stats import IndexStats
from repro.index.store_layout import (
    MAX_SHARDED_CONCURRENCY,
    OpenedHeaders,
    OpenedIndex,
    open_headers,
)
from repro.observability.tracing import span
from repro.parsing.documents import Document, Posting
from repro.parsing.tokenizer import Tokenizer, WhitespaceAnalyzer
from repro.search.boolean import And, BooleanQuery, Term, parse_boolean_query
from repro.search.member import IndexMember, LookupPlan, Member, ShardState
from repro.search.ranking import MAX_RANKED_K, BM25Params, rank_candidates
from repro.search.replication import HedgingPolicy
from repro.search.results import Candidates, LatencyBreakdown, SearchResult
from repro.storage.base import ObjectStore, RangeRead
from repro.storage.pipeline import ReadPipeline


def _conjunction(words: Sequence[str]) -> BooleanQuery:
    """All of ``words``, taken as tokens — never re-parsed as Boolean syntax."""
    return Term(words[0]) if len(words) == 1 else And(*map(Term, words))


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
        self._hedging = hedging if hedging is not None else HedgingPolicy()
        self._top_k_delta = top_k_delta
        self._exclude = exclude
        self._members = list(members) if members is not None else None
        #: The members this searcher opened itself (and so closes).
        self._opened: list[IndexMember] = []
        #: The one read pipeline both waves of every query go through: built
        #: by :meth:`initialize`, or the one ``members`` were opened with
        #: (``None`` while there is nothing persisted to read).
        self.pipeline: ReadPipeline | None = next(
            (m.pipeline for m in members or () if isinstance(m, IndexMember)), None
        )
        self._store = store
        self._index_names = [index_name] if isinstance(index_name, str) else list(index_name)
        if store is not None and not self._index_names:
            raise ValueError("AirphantSearcher needs at least one index")
        self._max_concurrency = max_concurrency
        self._query_cache_size = query_cache_size
        self._coalesce_gap = coalesce_gap
        self._read_cache_bytes = read_cache_bytes
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
        opened: OpenedHeaders | OpenedIndex | None = None,
    ) -> "AirphantSearcher":
        """Create a Searcher and immediately load the index header(s) — or
        adopt the ``opened`` ones, when the caller's open already has them."""
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
        searcher.initialize(opened)
        return searcher

    def initialize(self, opened: OpenedHeaders | OpenedIndex | None = None) -> float:
        """Download and decode every named index's header(s); returns what
        the open cost on the store's clock.

        Happens once per index (the MHT is 12 bytes per non-empty bin, held
        as views over the downloaded header); all later queries reuse it.
        :func:`~repro.index.store_layout.open_headers` opens all the names
        together — one batch, plus one for shard headers if any name is
        sharded — and ``init_latency_ms`` is the sum of the waves issued;
        ``opened`` is that result (or a whole
        :func:`~repro.index.store_layout.open_index`) when the caller
        already holds it.  The members share **one** read pipeline, as wide
        as all of them together, so ``read_cache_bytes`` is the budget of
        the whole opened index.  A searcher built over ``members=`` has
        nothing to open.
        """
        if self._store is None:
            return 0.0
        self.close()
        if opened is None:
            opened = open_headers(self._store, self._index_names, self._max_concurrency)
        widths = [build.max_concurrency for build in opened.builds]
        self.pipeline = ReadPipeline(
            self._store,
            # Every wave carries all members' reads at once, so it is as wide
            # as all of them together — up to the ceiling that bounds one
            # sharded member, and never narrower than any one of them.
            max(min(sum(widths), MAX_SHARDED_CONCURRENCY), *widths),
            max_gap=self._coalesce_gap,
            cache_bytes=self._read_cache_bytes,
        )
        self._opened = [
            IndexMember(
                build.name,
                self.pipeline,
                build.manifest,
                [ShardState.from_header(*shard) for shard in build.members],
                build.max_concurrency,
                query_cache_size=self._query_cache_size,
            )
            for build in opened.builds
        ]
        self._members = list(self._opened)
        self.init_latency_ms = opened.elapsed_ms
        return self.init_latency_ms

    def close(self) -> None:
        """Drop the block cache of the pipeline this searcher opened (the
        worker pool belongs to the store)."""
        if self._opened:
            self.pipeline.clear_cache()

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
        """A searcher over other members with this one's tokenizer, hedging
        policy and top-K bound."""
        return AirphantSearcher(
            members=members,
            exclude=exclude,
            tokenizer=self._tokenizer,
            hedging=self._hedging,
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
        latency = LatencyBreakdown()
        candidates, _, _ = self._lookup(Term(word), [word], True, latency)
        return list(candidates), latency

    def search(self, query: str, top_k: int | None = None) -> SearchResult:
        """Search for documents containing *all* keywords of ``query``."""
        words = list(dict.fromkeys(self._tokenizer.tokenize(query)))
        if not words:
            return SearchResult(query=query)
        return self._execute(_conjunction(words), words, query, top_k, fail_fast=True)

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

        Every member's candidates are scored against the corpus-wide
        statistics of the query's words, summed over all members (a
        document transiently visible in two members mid-flush counts once, a
        condemned one not at all) — so the ranked list matches what a fresh
        single-index rebuild over the same documents would return.  A
        member's first ranked query reads its statistics in the same lookup
        wave as its superposts.  The exact statistics already refute the
        false positives, so text is fetched for the winners only and needs
        no check.

        Raises :class:`~repro.index.stats.RankingUnsupportedError` if any
        member index lacks ranking statistics, and ``ValueError`` for an
        invalid ``k``.
        """
        if k <= 0:
            raise ValueError(f"ranked queries need a positive k, got {k}")
        words = list(dict.fromkeys(self._tokenizer.tokenize(query)))
        if not words:
            return SearchResult(query=query, scores=[])
        latency = LatencyBreakdown()
        with span("rank.score", k=k, words=words) as score_span:
            candidates, _, statistics = self._lookup(
                _conjunction(words), words, True, latency, ranked=True
            )
            ranked, scored = rank_candidates(
                candidates.shares,
                statistics,
                words,
                min(k, MAX_RANKED_K),
                self._exclude,
                weights,
                params,
            )
            score_span.set(candidates=len(candidates), refuted=len(candidates) - scored)
        documents: list[Document] = []
        if ranked:
            with span("search.fetch_documents", postings=len(ranked)):
                documents = self._fetch(
                    [posting for posting, _, _ in ranked],
                    [owner for _, _, owner in ranked],
                    latency,
                )
        score_of = {posting: score for posting, score, _ in ranked}
        return SearchResult(
            query=query,
            documents=documents,
            scores=[score_of[document.ref] for document in documents],
            candidate_postings=Superpost.union_all(share for _, share in candidates.shares),
            false_positive_count=len(candidates) - scored,
            latency=latency,
        )

    def ranking_statistics(self) -> list[Sequence[IndexStats]]:
        """Every member's ranking statistics, in member order (for tools and
        probes) — those not resident yet read in one wave, the reads a cold
        ranked query adds to its lookup wave."""
        plans = [member.plan((), ranked=True) for member in self._require_members()]
        self._resolve(plans, LatencyBreakdown())
        return [plan.statistics() for plan in plans]

    # -- execution ------------------------------------------------------------------

    def _execute(
        self,
        tree: BooleanQuery,
        words: list[str],
        label: str,
        top_k: int | None,
        fail_fast: bool,
    ) -> SearchResult:
        """Both waves of a membership query, each once for every member."""
        latency = LatencyBreakdown()
        with (
            span("visibility.filter", tombstones=len(self._exclude))
            if self._exclude
            else nullcontext()
        ):
            candidates, condemned, _ = self._lookup(tree, words, fail_fast, latency)
            with span("search.retrieve", candidates=len(candidates)) as retrieve_span:
                if condemned:
                    retrieve_span.set(
                        excluded=len(condemned), refunded_bytes=condemned.document_bytes()
                    )
                matched, fetched = self._retrieve(candidates, tree, top_k, latency)
                if candidates:
                    retrieve_span.set(
                        fetched=fetched,
                        matched=len(matched),
                        false_positives=fetched - len(matched),
                    )
        return SearchResult(
            query=label,
            documents=matched,
            candidate_postings=candidates,
            false_positive_count=fetched - len(matched),
            latency=latency,
        )

    def _lookup(
        self,
        tree: BooleanQuery,
        words: Sequence[str],
        fail_fast: bool,
        latency: LatencyBreakdown,
        ranked: bool = False,
    ) -> tuple[Candidates, Superpost, list[Sequence[IndexStats]]]:
        """Wave 1, once: every member's plan in one batch, then the merge.

        Returns the surviving candidates in member order — each member's
        share being what no earlier member produced, so the first member
        producing a posting owns it — the condemned candidates dropped on
        the way (they never reach the fetch wave, so their bytes are
        refunded outright and top-k sampling stays effective) and, for a
        ``ranked`` lookup, every member's statistics.
        """
        plans = [member.plan(words, fail_fast, ranked) for member in self._require_members()]
        shares: list[tuple[int, Superpost]] = []
        condemned: list[Superpost] = []
        for index, per_word in enumerate(self._resolve(plans, latency)):
            found = tree.candidates(per_word.__getitem__)
            if not found:
                continue
            if self._exclude:
                found, dropped = found.split(self._exclude)
                condemned.append(dropped)
            for _, earlier in shares:
                found = found.difference(earlier)
            if found:
                shares.append((index, found))
        statistics = [plan.statistics() for plan in plans] if ranked else []
        return Candidates(shares), Superpost.union_all(condemned), statistics

    def _resolve(
        self, plans: Sequence[LookupPlan], latency: LatencyBreakdown
    ) -> list[dict[str, Superpost]]:
        """Wave 1, once: every plan's reads in one batch, then each plan
        resolved from its share of the payloads."""
        reading = [plan for plan in plans if plan.reads]
        payloads: list[bytes | None] = []
        if reading:
            requests = [read for plan in reading for read in plan.reads]
            # The L+ drop reasons about one word's layer reads, and with
            # shards (or several members) a query already fans out wide.
            hedged = self._hedging.enabled and len(reading) == 1 and reading[0].hedgeable
            with span(
                "search.lookup",
                words=list(dict.fromkeys(word for plan in reading for word in plan.words)),
                requests=len(requests),
                shards=sum(plan.shards for plan in reading),
                hedged=hedged,
            ):
                payloads = self._wave(
                    requests,
                    latency.add_lookup,
                    self._hedging.required_of(len(requests)) if hedged else None,
                )
        resolved = []
        start = 0
        for plan in plans:
            resolved.append(plan.resolve(payloads[start : start + len(plan.reads)]))
            start += len(plan.reads)
        return resolved

    def _retrieve(
        self,
        candidates: Candidates,
        predicate: BooleanQuery,
        top_k: int | None,
        latency: LatencyBreakdown,
    ) -> tuple[list[Document], int]:
        """Wave 2 of a membership query: the true matches among ``candidates``
        (the first ``top_k`` of them), and how many documents it took."""

        def matching(start: int, stop: int) -> list[Document]:
            return [
                document
                for document in self._fetch(*candidates.owned(start, stop), latency)
                if predicate.matches(self._tokenizer.distinct_terms(document.text))
            ]

        total = len(candidates)
        if top_k is None:
            return matching(0, total), total
        fetched = total
        if top_k > 0:
            # Equation 6, once over the merged list: F0 adds up because any
            # member's false positives may sit in the sampled prefix.
            expected = sum(m.expected_false_positives for m in self._require_members())
            fetched = top_k_sample_size(top_k, total, expected, self._top_k_delta)
        matched = matching(0, fetched)
        if len(matched) < top_k and fetched < total:
            # The probabilistic sample came up short (probability <= delta);
            # fall back to fetching the remaining candidates.
            matched += matching(fetched, total)
            fetched = total
        return matched[:top_k], fetched

    def _fetch(
        self,
        postings: Sequence[Posting],
        owners: Sequence[int],
        latency: LatencyBreakdown,
    ) -> list[Document]:
        """Wave 2, once: the named documents, unfiltered, in the order given —
        from their owner's memory when resident, else in one batch."""
        members = self._require_members()
        documents = [
            members[owner].resident(posting) for posting, owner in zip(postings, owners)
        ]
        remote = [at for at, document in enumerate(documents) if document is None]
        if remote:
            payloads = self._wave(
                [postings[at].to_range_read() for at in remote], latency.add_retrieval
            )
            for at, payload in zip(remote, payloads):
                if payload is not None:
                    documents[at] = Document(
                        ref=postings[at], text=payload.decode("utf-8", errors="replace")
                    )
        return [document for document in documents if document is not None]

    def _wave(
        self,
        requests: list[RangeRead],
        account: Callable[[float, float, float, int], None],
        required: int | None = None,
    ) -> list[bytes | None]:
        """One batch of range reads; what the query waited for it goes to
        ``account``."""
        assert self.pipeline is not None, "no member of this searcher was opened on a store"
        if required is None:
            fetch = self.pipeline.fetch(requests)
        else:
            # Hedging needs per-request latencies, so it bypasses the pipeline.
            fetch = self.pipeline.store.read_batch(
                requests, self.pipeline.max_concurrency, required=required
            )
        if fetch.batch.requests:
            batch = fetch.batch
            account(batch.total_ms, batch.wait_ms, batch.download_ms, batch.nbytes)
        return fetch.payloads
