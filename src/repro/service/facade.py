"""The Airphant service facade: one entry point for the whole query side.

:class:`AirphantService` is what a long-lived query node runs (paper
Figure 3, right half): it owns an :class:`~repro.service.catalog.IndexCatalog`
of named indexes on one object store, shares a single
:class:`~repro.service.config.ServiceConfig` across them, and answers typed
:class:`~repro.service.api.SearchRequest` objects in any query mode —
keyword, Boolean, or regex, each with optional top-K.  The CLI, the HTTP
server, and the examples all drive this facade instead of constructing
searchers by hand.
"""

from __future__ import annotations

import dataclasses
import re
import time
import weakref
from typing import Any, Callable, Sequence

from repro.cluster.router import QueryRouter
from repro.core.config import SketchConfig
from repro.observability import (
    NULL_REGISTRY,
    Counter,
    Histogram,
    MetricsRegistry,
    get_registry,
)
from repro.observability.tracing import (
    TraceHandle,
    Tracer,
    current_span,
    explain_payload,
    span,
)
from repro.index.sharding import check_partitioning
from repro.index.store_layout import (
    CorruptIndexError,
    UnsupportedIndexFormatError,
    is_index_name,
)
from repro.index.updates import SnapshotRestoreError
from repro.ingest.live import IngestCoordinator, IngestOverloadedError
from repro.parsing.corpus import LineDelimitedCorpusParser
from repro.parsing.documents import Posting
from repro.search.member import Member
from repro.search.ranking import DEFAULT_RANKED_K
from repro.search.regexsearch import RegexSearcher
from repro.search.results import LatencyBreakdown, SearchResult
from repro.search.searcher import AirphantSearcher
from repro.service.api import IndexInfo, SearchRequest, SearchResponse, ServiceError
from repro.service.catalog import IndexCatalog
from repro.service.config import ServiceConfig
from repro.storage.base import (
    BlobNotFoundError,
    ObjectStore,
    ReadOnlyStoreError,
    StoreAccessError,
    TransientStoreError,
)
from repro.storage.registry import open_store


def _error_code(error: Exception) -> str:
    """The typed code a failure is counted and traced under.

    Anything without one (a programming error) surfaces as HTTP 500 — label
    it all the same, so the worst outage class is never a flat line.
    """
    return error.info.error if isinstance(error, ServiceError) else "internal_error"


class _StoreErrors:
    """Translates storage failures into the service's typed errors.

    One definition for every endpoint: stored index bytes that do not
    decode become ``502 index_corrupt``, and an index in a retired layout
    ``409 index_format`` (rebuild it) — both before any ``ValueError`` can
    read as the request's fault; transient failures (including exhausted
    retries) become ``503 store_unavailable``; definitive access denials
    become ``403 store_access_denied``; write refusals (builds or ingest
    against e.g. a static http:// export) become ``400 store_read_only``.
    Stateless, so one shared instance serves every request.
    """

    _TYPED = (
        (CorruptIndexError, 502, "index_corrupt"),
        (UnsupportedIndexFormatError, 409, "index_format"),
        (TransientStoreError, 503, "store_unavailable"),
        (StoreAccessError, 403, "store_access_denied"),
        (ReadOnlyStoreError, 400, "store_read_only"),
    )

    def __enter__(self) -> None:
        pass

    def __exit__(self, kind: type | None, error: BaseException | None, tb: Any) -> None:
        if error is None:
            return
        for failure, status, code in self._TYPED:
            if isinstance(error, failure):
                raise ServiceError(status, code, str(error)) from error


_STORE_ERRORS = _StoreErrors()


class _Accounted:
    """One request's accounting: ``done`` + wall-clock ``seconds`` when it
    is answered, ``errors`` (by typed code) when it is rejected."""

    __slots__ = ("_errors", "_done", "_seconds", "_labels", "_started")

    def __init__(
        self, errors: Counter, done: Counter, seconds: Histogram, labels: dict[str, str]
    ) -> None:
        self._errors, self._done, self._seconds, self._labels = errors, done, seconds, labels

    def __enter__(self) -> None:
        self._started = time.perf_counter()

    def __exit__(self, kind: type | None, error: BaseException | None, tb: Any) -> None:
        if error is None:
            self._done.inc(**self._labels)
            self._seconds.observe(time.perf_counter() - self._started, **self._labels)
        elif isinstance(error, Exception):
            self._errors.inc(error=_error_code(error))


class _Traced:
    """Finishes a request's root span, stamped with the error code if it failed."""

    __slots__ = ("_handle",)

    def __init__(self, handle: TraceHandle | None) -> None:
        self._handle = handle

    def __enter__(self) -> None:
        pass

    def __exit__(self, kind: type | None, error: BaseException | None, tb: Any) -> None:
        if self._handle is not None:
            if isinstance(error, Exception):
                self._handle.root.set(error=_error_code(error))
            self._handle.finish()


class AirphantService:
    """Serves keyword / Boolean / regex queries over cataloged indexes."""

    def __init__(
        self,
        store: ObjectStore,
        config: ServiceConfig | None = None,
        store_uri: str | None = None,
        metrics: MetricsRegistry | None = None,
    ) -> None:
        self._config = config if config is not None else ServiceConfig()
        self._catalog = IndexCatalog(store, self._config)
        #: Recorded for /healthz; informational only (the store is already
        #: resolved).  Set by from_uri and by the CLI's --store path.
        self._store_uri = store_uri
        # One registry for the whole node: the facade's own query accounting
        # lands here, and the storage layers underneath default to the same
        # process-wide registry, so /metrics shows one coherent picture.
        if metrics is not None:
            self._metrics = metrics
        else:
            self._metrics = get_registry() if self._config.metrics_enabled else NULL_REGISTRY
        self._queries_metric = self._metrics.counter(
            "airphant_queries_total",
            "Queries answered, by query mode and index",
            label_names=("mode", "index"),
        )
        self._query_seconds_metric = self._metrics.histogram(
            "airphant_query_seconds",
            "End-to-end wall-clock query latency, by query mode and index",
            label_names=("mode", "index"),
        )
        self._query_errors_metric = self._metrics.counter(
            "airphant_query_errors_total",
            "Requests rejected with a typed service error, by error code",
            label_names=("error",),
        )
        self._builds_metric = self._metrics.counter(
            "airphant_builds_total", "Index builds completed through the facade"
        )
        self._build_seconds_metric = self._metrics.histogram(
            "airphant_build_seconds",
            "Wall-clock latency of facade index builds",
            # Builds run seconds-to-minutes, far beyond the latency ladder.
            buckets=(0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 30.0, 60.0, 300.0),
        )
        # Live occupancy gauges: bound to callables so /metrics and /healthz
        # always report the current value with no update hooks.  On the
        # shared process registry the most recently constructed service
        # answers (set_function re-binds), matching the one-node-per-process
        # deployment every other facade metric assumes.  The binding is weak:
        # a registry-held strong reference would pin the service (and its
        # store's fetch threads) for the life of the process.
        service_ref = weakref.ref(self)
        self._metrics.gauge(
            "airphant_open_indexes",
            "Indexes whose searcher (headers in memory) is currently open",
        ).set_function(
            lambda: s._catalog.open_count() if (s := service_ref()) is not None else 0
        )
        self._metrics.gauge(
            "airphant_read_cache_bytes_used",
            "Bytes currently held by read-pipeline block caches, all open indexes",
        ).set_function(
            lambda: s._read_cache_bytes() if (s := service_ref()) is not None else 0
        )
        # Request-scoped tracing: with tracing enabled every query builds a
        # span tree (explain / propagated / slow / sampled trees are kept in
        # the ring served by GET /traces); disabled, the instrumentation
        # collapses to one contextvar read per site.
        self._tracer = Tracer(
            enabled=self._config.tracing_enabled,
            sample_rate=self._config.trace_sample_rate,
            slow_query_ms=self._config.slow_query_ms,
        )
        # The live write path: per-index ingesters (WAL + memtable) plus the
        # background flush/compaction worker.
        self._ingest = IngestCoordinator(
            self.store, self._config, self._metrics, self._catalog.manager
        )
        # The scale-out query tier: with peers configured this node doubles
        # as a router that sends each query whole to one peer (possibly this
        # node itself, via its own URL); requests a router sent are answered
        # locally.
        self._router: QueryRouter | None = None
        if self._config.peers:
            self._router = QueryRouter(
                self._config.peers,
                shard_timeout_s=self._config.shard_timeout_s,
                node_hedge_ms=self._config.node_hedge_ms,
                node_retries=self._config.node_retries,
                probe_interval_s=self._config.probe_interval_s,
                metrics=self._metrics,
            )

    def _read_cache_bytes(self) -> int:
        """Current block-cache occupancy summed over every open searcher."""
        return sum(
            searcher.pipeline.cached_bytes for searcher in self._catalog.open_searchers()
        )

    def _accounted(self, done: Counter, seconds: Histogram, **labels: str) -> "_Accounted":
        """The accounting of one request (see :class:`_Accounted`)."""
        return _Accounted(self._query_errors_metric, done, seconds, labels)

    @classmethod
    def from_uri(cls, uri: str, config: ServiceConfig | None = None) -> "AirphantService":
        """Open a service over the backend a store URI names.

        The URI is resolved through the storage registry (``mem://``,
        ``file://``, ``sim://``, ``http(s)://``, ``s3://``; see
        :func:`repro.storage.registry.open_store`) and wrapped with the
        config's resilience policy (retries / timeout / hedged reads) via
        :meth:`ServiceConfig.wrap_store`.  The CLI's ``--store`` flag builds
        the same registry + wrap pipeline (plus its ``--simulate-latency``
        layer) and passes the URI through the ``store_uri`` parameter, so
        ``/healthz`` reports it either way.

        Raises :class:`~repro.storage.registry.StoreURIError` on unknown
        schemes or malformed URIs.
        """
        config = config if config is not None else ServiceConfig()
        return cls(config.wrap_store(open_store(uri)), config, store_uri=uri)

    @property
    def store_uri(self) -> str | None:
        """The URI this service was opened from (``None`` for direct stores)."""
        return self._store_uri

    @property
    def store(self) -> ObjectStore:
        """The object store backing every served index."""
        return self._catalog.store

    @property
    def config(self) -> ServiceConfig:
        """The shared query-side configuration."""
        return self._config

    @property
    def metrics(self) -> MetricsRegistry:
        """The registry this node's request metrics land in.

        The process-wide registry unless the constructor was handed a
        private one; a permanently disabled registry when the config says
        ``metrics_enabled=False``.
        """
        return self._metrics

    @property
    def tracer(self) -> Tracer:
        """The per-service tracer (disabled when the config says so)."""
        return self._tracer

    @property
    def catalog(self) -> IndexCatalog:
        """The catalog of named indexes."""
        return self._catalog

    def close(self) -> None:
        """Close every opened searcher and the store, releasing caches and threads.

        First stops the background ingest worker and drains any in-flight
        flush/compaction (unflushed memtable documents stay durable in their
        WAL segments and replay on the next open).  Then closes each
        catalog-opened searcher (dropping its members' block caches) *and*
        the store, whose one ``read_batch`` pool every member shared, so no
        worker thread outlives the service.  The service stays usable: the
        next query simply reopens its index, and the store's next batch
        builds a fresh pool.
        """
        if self._router is not None:
            self._router.close()
        self._ingest.close()
        self._catalog.close()
        self.store.close()

    def __enter__(self) -> "AirphantService":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # -- health & inspection ---------------------------------------------------------

    def health(self) -> dict[str, Any]:
        """Liveness payload: status, catalog size, store, and configuration.

        Always answers (that is the point of a liveness probe): when the
        backing store cannot even be listed, the status degrades to
        ``"degraded"`` with the storage error attached instead of failing
        the probe outright.
        """
        store_info: dict[str, Any] = {"type": type(self.store).__name__}
        if self._store_uri is not None:
            store_info["uri"] = self._store_uri
        payload: dict[str, Any] = {
            "status": "ok",
            "store": store_info,
            "config": self._config.to_dict(),
        }
        if self._metrics.enabled:
            # Compact totals + latency summaries; the full per-label series
            # live on GET /metrics (Prometheus exposition).
            payload["metrics"] = self._metrics.summary()
        # Live write-path state: memtable occupancy, unflushed WAL segments,
        # stacked deltas, worker liveness.  Degrades like the catalog block:
        # a live index's WAL-manifest read hitting a down store must not
        # fail the liveness probe.
        try:
            payload["ingest"] = self._ingest.summary()
        except (TransientStoreError, StoreAccessError, BlobNotFoundError) as error:
            payload["status"] = "degraded"
            payload["ingest"] = {"error": str(error)}
        # The scale-out tier's view: peer count, live / marked-down nodes,
        # last-probe ages.  Same contract as the ingest block — the probe
        # must answer even when the cluster state itself misbehaves.
        if self._router is None:
            payload["cluster"] = {"enabled": False, "peers": 0}
        else:
            try:
                payload["cluster"] = self._router.summary()
            except Exception as error:  # noqa: BLE001 - liveness must answer
                payload["status"] = "degraded"
                payload["cluster"] = {"enabled": True, "error": str(error)}
        try:
            names = self._catalog.names()
        except (TransientStoreError, StoreAccessError, BlobNotFoundError) as error:
            # BlobNotFoundError here means the *container* itself is missing
            # (e.g. an s3:// URI naming a nonexistent bucket answers 404 on
            # the listing) — degraded, not a crash.
            payload["status"] = "degraded"
            payload["store_error"] = str(error)
        else:
            payload["indexes"] = len(names)
            payload["open_indexes"] = sum(
                1 for name in names if self._catalog.is_open(name)
            )
        return payload

    def list_indexes(self) -> list[IndexInfo]:
        """Describe every index the service can answer queries against."""
        try:
            with _STORE_ERRORS:
                return self._catalog.list_infos()
        except BlobNotFoundError as error:
            # The store's container itself is missing (nonexistent bucket):
            # a typed 404, not an internal error.
            raise ServiceError(404, "store_not_found", str(error)) from None

    def index_info(self, name: str) -> IndexInfo:
        """Describe one index; raises :class:`ServiceError` (404) if unknown."""
        try:
            with _STORE_ERRORS:
                return self._catalog.info(name)
        except KeyError:
            raise ServiceError(404, "index_not_found", f"no index named {name!r}") from None

    # -- querying ---------------------------------------------------------------------

    @property
    def router(self) -> QueryRouter | None:
        """The cluster query router (``None`` when no peers are configured)."""
        return self._router

    def search(
        self,
        request: SearchRequest,
        trace_id: str | None = None,
        parent_span_id: str | None = None,
        routed: bool = False,
    ) -> SearchResponse:
        """Answer one typed search request (the service's main entry point).

        On a clustered node a request goes to one of the peers; a ``routed``
        one — a router sent it — is always answered locally, which is what
        keeps routing from recursing when a router is one of its own peers.

        ``trace_id``/``parent_span_id`` carry propagated trace context from
        the HTTP layer (a router upstream asked this node to trace the
        query).  The span tree is attached to the response — for the
        client on ``explain`` requests, for the router to graft on
        propagated ones; otherwise tracing stays internal (the ``/traces``
        ring and the slow-query log).
        """
        # A parent span id marks a routed request (the caller grafts the
        # returned tree); a bare trace_id only *names* the trace — the HTTP
        # layer pre-generates one so access-log lines correlate — and must
        # not force retention or a trace-bearing response.
        propagated = parent_span_id is not None
        handle = self._tracer.begin(
            "query",
            trace_id=trace_id,
            parent_span_id=parent_span_id,
            force=request.explain or propagated,
            index=request.index,
            mode=request.mode,
            query=request.query,
        )
        with _Traced(handle):
            if self._router is not None and not routed:
                response = self._router.route(request)
            else:
                response = SearchResponse.from_result(request, self.execute(request))
        if handle is not None and (request.explain or propagated):
            response = dataclasses.replace(response, trace=explain_payload(handle.root))
        return response

    def execute(self, request: SearchRequest) -> SearchResult:
        """Dispatch ``request`` to the right query mode, returning the raw result.

        Most callers want :meth:`search`; this variant serves those (like the
        CLI) that render document text straight from the
        :class:`~repro.search.results.SearchResult`.  Every call is
        accounted: answered queries by mode with end-to-end wall-clock
        latency, rejected ones by typed error code.
        """
        # Callers arriving through search() already run inside that root
        # span; direct callers (the CLI's document-rendering path, library
        # embedders) get their own so sampling and the slow-query log still
        # see every query exactly once.
        handle = (
            self._tracer.begin(
                "query", index=request.index, mode=request.mode, query=request.query
            )
            if current_span() is None
            else None
        )
        with _Traced(handle), self._accounted(
            self._queries_metric,
            self._query_seconds_metric,
            mode=request.mode,
            index=request.index,
        ):
            return self._execute(request)

    def _execute(self, request: SearchRequest) -> SearchResult:
        def answer(searcher: AirphantSearcher) -> SearchResult:
            if request.mode == "boolean":
                return searcher.search_boolean(request.query, top_k=request.top_k)
            if request.mode == "regex":
                return RegexSearcher(searcher).search(request.query, top_k=request.top_k)
            if request.mode == "topk_bm25":
                return searcher.search_topk(
                    request.query,
                    k=request.top_k if request.top_k is not None else DEFAULT_RANKED_K,
                    weights=request.weight_map,
                )
            return searcher.search(request.query, top_k=request.top_k)

        try:
            return self._answer(request.index, answer)
        except (ValueError, re.error) as error:
            # Malformed Boolean syntax, bad regex, or a regex with no literal
            # words to filter on — the request, not the service, is at fault.
            raise ServiceError(400, "bad_query", str(error)) from error

    def _answer(self, index: str, query: Callable[[AirphantSearcher], Any]) -> Any:
        """``query`` over ``index``, with storage failures typed.

        A searcher opened earlier holds the manifest it read then; two swaps
        later its builds are purged.  A query that meets a missing blob on
        it (a missing ``stats.json`` reads as a format error) reopens the
        index from the current manifest once; a blob missing after that is
        the store's fault, ``502 index_corrupt``.
        """
        with _STORE_ERRORS:
            try:
                if self._catalog.is_open(index):
                    try:
                        return query(self._open(index))
                    except (BlobNotFoundError, UnsupportedIndexFormatError):
                        self._catalog.invalidate(index)
                return query(self._open(index))
            except BlobNotFoundError as error:
                raise ServiceError(
                    502, "index_corrupt", f"index {index!r} misses {error.name!r}"
                ) from error

    def lookup_postings(self, index: str, word: str) -> tuple[list[Posting], LatencyBreakdown]:
        """Term-index lookup only (the paper's Figure 14 operation)."""
        with self._accounted(
            self._queries_metric, self._query_seconds_metric, mode="lookup", index=index
        ):
            return self._answer(index, lambda searcher: searcher.lookup_postings(word))

    def searcher(self, index: str) -> AirphantSearcher:
        """A searcher over ``index`` as it stands now, for callers needing raw
        :class:`SearchResult` — persisted members plus live memtables, with
        the pending deletes excluded.  It is a snapshot: take a fresh one to
        see later flushes and compactions.

        Raises :class:`ServiceError` (404) if the index does not exist.
        """
        return self._open(index)

    def _open(self, index: str) -> AirphantSearcher:
        """Resolve ``index``'s members, once, into the searcher for one request.

        The combined live view: the catalog's (cached) persisted members —
        re-resolved per request, so a flush's or compaction's new builds are
        served from the next query on — plus one exact member per live memtable,
        with the pending deletes excluded on every route a condemned
        document could surface through.  For an index with no write state
        this is exactly the catalog searcher's members.
        """
        try:
            # _STORE_ERRORS: the open's waves failing (they carry the first
            # touch of the index's WAL state too).
            with _STORE_ERRORS:
                opened = self._catalog.open(index, self._ingest)
                live = self._ingest.live(index)
        except KeyError:
            raise ServiceError(404, "index_not_found", f"no index named {index!r}") from None
        with span("live.members") as members_span:
            members: list[Member] = opened.searchers
            exclude: frozenset[Posting] = frozenset()
            if live is not None:
                members += live.memtable_members()
                exclude = live.tombstone_refs()
            searcher = opened.with_members(members, exclude)
            members_span.set(members=len(searcher.searchers))
        return searcher

    # -- live ingestion ----------------------------------------------------------------

    @property
    def ingest(self) -> IngestCoordinator:
        """The live-ingestion coordinator (per-index WAL + memtable state)."""
        return self._ingest

    def append_documents(self, index: str, documents: Sequence[str]) -> dict[str, Any]:
        """Durably append documents to a live index; searchable on return.

        The batch is committed to a WAL segment first and then becomes
        visible through the in-memory memtable — keyword, Boolean, and regex
        queries all see the documents before any flush.  Raises
        :class:`ServiceError` 404 for unknown indexes and 400 for payloads
        the line-delimited WAL format cannot hold.
        """
        if not documents:
            raise ServiceError(400, "bad_ingest_request", "append needs at least one document")
        with _STORE_ERRORS:
            self._require_index(index)
            live = self._ingest.live(index, create=True)
            try:
                return live.append(documents)
            except IngestOverloadedError as error:
                raise ServiceError(429, "ingest_overloaded", str(error)) from error
            except ValueError as error:
                raise ServiceError(400, "bad_ingest_request", str(error)) from error

    def delete_documents(
        self, index: str, refs: Sequence[Posting]
    ) -> dict[str, Any]:
        """Durably delete documents by reference; invisible on return.

        The deletes are committed as one manifest PUT, applied
        physically in the memtable tier, filtered at query time everywhere
        else, and purged for good at the next compaction.  Unknown refs are
        accepted (deletes are idempotent).  Raises :class:`ServiceError` 404
        for unknown indexes and 400 for an empty batch.
        """
        if not refs:
            raise ServiceError(
                400, "bad_ingest_request", "delete needs at least one document reference"
            )
        with _STORE_ERRORS:
            self._require_index(index)
            live = self._ingest.live(index, create=True)
            try:
                return live.delete(refs)
            except ValueError as error:
                raise ServiceError(400, "bad_ingest_request", str(error)) from error

    def update_document(self, index: str, ref: Posting, text: str) -> dict[str, Any]:
        """Durably replace one document; read-your-writes on return.

        Atomic: one manifest write commits the replacement segment and
        the old reference's tombstone together, so no query sees both (or
        neither) version.  Raises :class:`ServiceError` 404 for unknown
        indexes, 400 for text the WAL format cannot hold, and 429 under
        memtable backpressure.
        """
        with _STORE_ERRORS:
            self._require_index(index)
            live = self._ingest.live(index, create=True)
            try:
                return live.update(ref, text)
            except IngestOverloadedError as error:
                raise ServiceError(429, "ingest_overloaded", str(error)) from error
            except ValueError as error:
                raise ServiceError(400, "bad_ingest_request", str(error)) from error

    def _require_index(self, index: str) -> None:
        """404 unless ``index`` exists — without store probes when avoidable.

        The write path runs this per batch: an already-opened searcher or
        registered live index answers from memory; only the first touch of
        an unknown name pays the catalog's existence round trips.
        """
        if self._catalog.is_open(index) or self._ingest.live(index) is not None:
            return
        if not self._catalog.contains(index):
            raise ServiceError(404, "index_not_found", f"no index named {index!r}")

    def flush_index(self, index: str) -> dict[str, Any]:
        """Fold ``index``'s memtable into a delta now (no-op when empty)."""
        with _STORE_ERRORS:
            live = self._ingest.live(index)
            if live is None:
                self._require_index(index)
                outcome = None
            else:
                outcome = live.flush()
        if outcome is None:
            return {"index": index, "flushed": 0, "delta": None}
        return outcome

    def compact_index(self, index: str) -> dict[str, Any]:
        """Flush, then fold every delta into a new base generation now.

        Answers ``{"compacted": false}`` when there is nothing to fold.
        """
        with _STORE_ERRORS:
            live = self._ingest.live(index)
            if live is None:
                self._require_index(index)
                # No write state this process and nothing replayable: only
                # pre-existing deltas (e.g. built offline via the manager)
                # would justify registering a live index + worker here.
                if not self._catalog.manager(index).refresh().delta_indexes:
                    return {"index": index, "compacted": False, "deltas_folded": 0}
                live = self._ingest.live(index, create=True)
            outcome = live.compact()
        if outcome is None:
            return {"index": index, "compacted": False, "deltas_folded": 0}
        return {"compacted": True, **outcome}

    # -- snapshots ---------------------------------------------------------------------

    def create_snapshot(self, index: str, snapshot: str) -> dict[str, Any]:
        """Create (or overwrite) a named point-in-time snapshot of ``index``.

        The memtable is flushed first, so the frozen manifest covers every
        acknowledged write; the manifest's pending deletes ride along as the
        snapshot's tombstone set.  Raises :class:`ServiceError` 404 for unknown indexes
        and 400 for invalid snapshot names.
        """
        with _STORE_ERRORS:
            self._require_index(index)
            live = self._ingest.live(index)
            if live is not None:
                live.flush()
            try:
                info = self._catalog.manager(index).create_snapshot(snapshot)
            except ValueError as error:
                raise ServiceError(400, "bad_snapshot_name", str(error)) from error
        return {
            "index": index,
            "snapshot": info.snapshot,
            "created_at": info.created_at,
            "generation": info.manifest.generation,
            "delta_indexes": len(info.manifest.delta_indexes),
            "tombstones": len(info.tombstones),
        }

    def list_snapshots(self, index: str) -> list[dict[str, Any]]:
        """Describe every snapshot of ``index`` (404 for unknown indexes)."""
        with _STORE_ERRORS:
            self._require_index(index)
            infos = self._catalog.manager(index).list_snapshots()
        return [
            {
                "snapshot": info.snapshot,
                "created_at": info.created_at,
                "generation": info.manifest.generation,
                "delta_indexes": len(info.manifest.delta_indexes),
                "tombstones": len(info.tombstones),
            }
            for info in infos
        ]

    def restore_snapshot(self, index: str, snapshot: str) -> dict[str, Any]:
        """Roll ``index`` back to a snapshot (point-in-time restore).

        One atomic manifest PUT re-points the index at the frozen base +
        delta set and resets the WAL to the snapshot's write state (its
        tombstones pending again, every later append abandoned), under the
        index's maintenance lock, so no flush or compaction of this process
        interleaves; the live write state is discarded, and the next query
        reopens the index at the restored builds.  Raises
        :class:`ServiceError` 404 for unknown indexes/snapshots and 409 when
        the snapshot's blobs no longer exist.
        """
        manager = self._catalog.manager(index)
        with _STORE_ERRORS, manager.maintenance_lock:
            self._require_index(index)
            try:
                info = manager.restore_snapshot(snapshot)
            except KeyError:
                raise ServiceError(
                    404, "snapshot_not_found", f"index {index!r} has no snapshot {snapshot!r}"
                ) from None
            except SnapshotRestoreError as error:
                raise ServiceError(409, "snapshot_unrestorable", str(error)) from error
            # Abandon the live write state *after* the swap: the next touch
            # replays the restored WAL.  Swaps hold this lock: the manifest is
            # the restore's.
            self._ingest.discard(index)
            generation = manager.manifest().generation
        return {
            "index": index,
            "snapshot": info.snapshot,
            "restored": True,
            "generation": generation,
            "tombstones": len(info.tombstones),
        }

    def delete_snapshot(self, index: str, snapshot: str) -> dict[str, Any]:
        """Drop one snapshot; its pinned blobs become purgeable at compaction."""
        with _STORE_ERRORS:
            self._require_index(index)
            try:
                self._catalog.manager(index).delete_snapshot(snapshot)
            except KeyError:
                raise ServiceError(
                    404, "snapshot_not_found", f"index {index!r} has no snapshot {snapshot!r}"
                ) from None
        return {"index": index, "snapshot": snapshot, "deleted": True}

    # -- building ---------------------------------------------------------------------

    def build_index(
        self,
        name: str,
        blobs: Sequence[str],
        sketch_config: SketchConfig | None = None,
        num_shards: int = 1,
    ) -> IndexInfo:
        """Build (or rebuild) index ``name`` over the given corpus blobs.

        ``num_shards > 1`` builds a sharded index: documents are routed to
        shards by document hash, the build is one sketch whose every list is
        cut by shard, and a query reads each run (every shard's share of one
        bin) as one range.  ``sketch_config``'s bin budget, accuracy target
        and seed are recorded in the header, and the index's deltas and
        compactions are built under them.  An existing name is rebuilt as a
        generation swap (:meth:`AppendOnlyIndexManager.build_base`).  Any
        cached searcher for ``name`` is invalidated.
        """
        with self._accounted(self._builds_metric, self._build_seconds_metric):
            return self._build_index(
                name, blobs, sketch_config=sketch_config, num_shards=num_shards
            )

    def _build_index(
        self,
        name: str,
        blobs: Sequence[str],
        sketch_config: SketchConfig | None = None,
        num_shards: int = 1,
    ) -> IndexInfo:
        if not is_index_name(name):
            raise ServiceError(400, "bad_index_name", f"invalid index name {name!r}")
        blobs = list(blobs)
        if not blobs:
            raise ServiceError(400, "bad_build_request", "build needs at least one corpus blob")
        missing = [blob for blob in blobs if not self.store.exists(blob)]
        if missing:
            raise ServiceError(
                404, "blob_not_found", f"corpus blob(s) not found: {', '.join(missing)}"
            )
        try:
            check_partitioning(num_shards)
        except ValueError as error:
            # A bad num_shards — the request is at fault.
            raise ServiceError(400, "bad_build_request", str(error)) from error
        # A read-only backend (static http:// export) surfaces as 400
        # store_read_only through _STORE_ERRORS.
        with _STORE_ERRORS:
            table = LineDelimitedCorpusParser().table(self.store, blobs)
            manager = self._catalog.manager(name)
            with manager.maintenance_lock:
                manager.build_base(
                    table, corpus_name=name, num_shards=num_shards, config=sketch_config
                )
                # Snapshots and the live write state describe documents
                # that are no longer part of this index.
                manager.delete_all_snapshots()
                self._ingest.discard(name)
        self._catalog.invalidate(name)
        return self.index_info(name)
