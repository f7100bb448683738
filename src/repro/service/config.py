"""Shared query-side configuration of the Airphant service.

One :class:`ServiceConfig` governs every index the service opens: the
tokenizer (which must match the one used at build time for exact keyword
semantics), the fetch concurrency, and the read cache.  It
replaces the previous pattern of threading the same half-dozen constructor
kwargs through ``AirphantSearcher`` and the CLI by hand.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Any, Mapping

from repro.observability import NULL_REGISTRY
from repro.parsing.tokenizer import SimpleAnalyzer, Tokenizer, WhitespaceAnalyzer
from repro.storage.base import ObjectStore
from repro.storage.resilient import ResilientStore

#: Named tokenizers a config (or an HTTP client) can select.
TOKENIZERS = ("whitespace", "simple")

#: The service's block-cache budget per opened index.  Every blob is
#: immutable once written, so a cached ``(blob, offset, length)`` range
#: never goes stale while its searcher is open, and a repeated word or
#: document costs no store read.  Measured with ``perfbench/run.py --trace 0``
#: (seed 14, one run per cell on a 2-vCPU box, 0 failures everywhere; counts
#: are deterministic), requests / bytes per query:
#:
#: ================  ==============  =================  ===================
#: workload          no cache        block cache 8 MiB  per-word cache 1024
#: ================  ==============  =================  ===================
#: ``logsearch_s3``  22.97 / 1 780   8.56 / 650         22.83 / 1 734
#: ``heavy_mem``     24.39 / 15 045  1.93 / 3 890       23.40 / 5 643
#: ``ranked_delay``  15.61 / 6 983   13.71 / 5 424      13.88 / 5 526
#: ``ingest_file``   7.68 / 1 115    6.49 / 1 019       7.60 / 1 112
#: ================  ==============  =================  ===================
#:
#: The block cache beat a per-word postings-list cache on every workload —
#: that cache never held the documents of wave 2 — for at most
#: +1.1 MB of peak RSS; 1 MiB gave the same counts on ``logsearch_s3`` and
#: ``heavy_mem``, so a round's working set fits well inside the budget.
READ_CACHE_BYTES = 8 << 20


@dataclass(frozen=True)
class ServiceConfig:
    """Settings shared by all indexes the service serves: the query side
    (tokenizer, fetch width, read cache), store resilience, the live write
    path's flush, compaction and backpressure triggers, the cluster tier and
    observability.  Sketch parameters are not among them: an index's are
    chosen at build time and recorded in its header, and its deltas and
    compactions are built under them.

    Parameters
    ----------
    tokenizer:
        ``"whitespace"`` (the paper's analyzer) or ``"simple"``
        (lowercasing + punctuation stripping).
    max_concurrency:
        In-flight range reads per fetch batch.  The paper uses 32, and so do
        the library defaults (``AirphantSearcher``, the baselines), which
        keeps the simulated-clock figures where they were.  The service
        ships 128: with reused connections a read costs little enough client
        CPU that a scan's 80–400 document reads go out as one wave instead
        of three or more back-to-back sub-waves.  ``logsearch_s3``
        ``query_ms_p95`` (10 ms per GET over loopback, client on one CPU of
        a 2-vCPU box; median of 4 runs each, seed 14):

        =====================  ========  =========
        connections            width 32  width 128
        =====================  ========  =========
        one per read (urllib)  59.7 ms   52.2 ms
        pooled keep-alive      56.6 ms   37.2 ms
        =====================  ========  =========

        Sharded indexes widen this by their shard count, capped at 128.
    read_cache_bytes:
        Byte budget of the read pipeline's LRU block cache — one pipeline
        per opened index, shared by its base and its deltas; 0 disables
        it.  Defaults to
        :data:`READ_CACHE_BYTES`.
    retries:
        Transient store failures retried per request by the
        :class:`~repro.storage.resilient.ResilientStore` wrapper; 0 leaves
        the store unwrapped (unless a timeout or hedging asks for it).
    retry_backoff_ms:
        First-retry backoff in milliseconds (doubles per retry, jittered).
    request_timeout_s:
        Per-attempt wall-clock bound on store requests; ``None`` disables.
    hedge_ms:
        Floor of the hedged-read delay in milliseconds; 0 disables hedged
        duplicate reads.
    ingest_flush_docs:
        Memtable document count that triggers a background flush into a
        delta index.
    ingest_flush_bytes:
        Memtable byte budget (raw document bytes) that triggers a flush.
    ingest_compact_deltas:
        Stacked-delta count that triggers background compaction into a new
        base generation (the one compaction trigger); 0 disables it.
    ingest_interval_s:
        Poll interval of the background ingest worker; 0 disables the
        worker entirely (flush/compaction happen only on explicit calls).
    ingest_max_memtable_docs:
        Memtable occupancy (documents) above which writes are rejected
        with ``ingest_overloaded`` (HTTP 429); 0 — the default — disables
        the limit.  Backpressure for when the memtable outruns the flusher.
    ingest_max_memtable_bytes:
        Memtable occupancy (raw document bytes) above which writes are
        rejected with ``ingest_overloaded``; 0 disables the limit.
    ingest_overload_wait_s:
        How long an over-limit write blocks waiting for a flush to drain
        the memtable before the 429 is raised; 0 rejects immediately.
    peers:
        Base URLs of the cluster's searcher nodes (this node's own URL may
        be one of them).  Empty — the default — keeps the node standalone;
        non-empty turns the service into a query router that sends each
        ``POST /search`` whole to one peer (see :mod:`repro.cluster`).
    shard_timeout_s:
        Wall-clock bound on one node's answer to a routed query; a
        timed-out node counts as failed and the next node is tried.  (The
        name predates whole-query routing and is kept so configs that set
        it keep working.)
    node_hedge_ms:
        Delay after which the router duplicates a still-unanswered query
        to the next node (node-level hedged reads, mirroring the storage
        layer's :class:`ResilientStore`); 0 disables hedging and nodes are
        only tried one after another on failure.
    node_retries:
        Extra full passes over the peer list before the router fails the
        query with ``503 cluster_unavailable``.
    probe_interval_s:
        Period of the background ``/healthz`` probes feeding the router's
        mark-down/mark-up decisions; 0 disables background probing (peers
        are then only marked down when queries to them fail).
    metrics_enabled:
        Whether the service *exports* metrics (``GET /metrics``, the
        ``metrics`` block of ``/healthz``) and records its own query/build
        accounting.  When off, the facade and the resilience wrapper
        record into a disabled registry and ``/metrics`` answers 404;
        storage-layer counters (pipeline, backends, simulated store) still
        record into the process-wide registry — they are shared across
        services and near-free — they are simply not served by this node.
    tracing_enabled:
        Whether the service builds a :class:`~repro.observability.tracing.Tracer`
        at all.  When off, ``explain`` requests carry no trace, ``GET
        /traces`` answers 404, and queries run with the no-op ambient span
        (a single contextvar read per instrumented site).
    trace_sample_rate:
        Fraction of ordinary (non-explain) queries whose span trees are
        retained in the in-memory trace buffer; 0 keeps only explained,
        propagated, and slow queries, 1 keeps everything.
    slow_query_ms:
        Queries slower than this emit a structured JSON line to the
        slow-query log and are always retained in the trace buffer
        regardless of sampling; 0 disables slow-query capture.
    """

    tokenizer: str = "whitespace"
    max_concurrency: int = 128
    read_cache_bytes: int = READ_CACHE_BYTES
    retries: int = 0
    retry_backoff_ms: float = 20.0
    request_timeout_s: float | None = None
    hedge_ms: float = 0.0
    ingest_flush_docs: int = 512
    ingest_flush_bytes: int = 1_048_576
    ingest_compact_deltas: int = 4
    ingest_interval_s: float = 0.25
    ingest_max_memtable_docs: int = 0
    ingest_max_memtable_bytes: int = 0
    ingest_overload_wait_s: float = 0.0
    peers: tuple[str, ...] = ()
    shard_timeout_s: float = 5.0
    node_hedge_ms: float = 0.0
    node_retries: int = 1
    probe_interval_s: float = 5.0
    metrics_enabled: bool = True
    tracing_enabled: bool = True
    trace_sample_rate: float = 0.0
    slow_query_ms: float = 1000.0

    def __post_init__(self) -> None:
        if self.tokenizer not in TOKENIZERS:
            raise ValueError(
                f"unknown tokenizer {self.tokenizer!r}; expected one of {', '.join(TOKENIZERS)}"
            )
        if self.max_concurrency <= 0:
            raise ValueError("max_concurrency must be positive")
        if self.read_cache_bytes < 0:
            raise ValueError("read_cache_bytes must be non-negative")
        if self.retries < 0:
            raise ValueError("retries must be non-negative")
        if self.retry_backoff_ms < 0:
            raise ValueError("retry_backoff_ms must be non-negative")
        if self.request_timeout_s is not None and self.request_timeout_s <= 0:
            raise ValueError("request_timeout_s must be positive when set")
        if self.hedge_ms < 0:
            raise ValueError("hedge_ms must be non-negative")
        if self.ingest_flush_docs <= 0:
            raise ValueError("ingest_flush_docs must be positive")
        if self.ingest_flush_bytes <= 0:
            raise ValueError("ingest_flush_bytes must be positive")
        if self.ingest_compact_deltas < 0:
            raise ValueError("ingest_compact_deltas must be non-negative")
        if self.ingest_interval_s < 0:
            raise ValueError("ingest_interval_s must be non-negative")
        if self.ingest_max_memtable_docs < 0:
            raise ValueError("ingest_max_memtable_docs must be non-negative")
        if self.ingest_max_memtable_bytes < 0:
            raise ValueError("ingest_max_memtable_bytes must be non-negative")
        if self.ingest_overload_wait_s < 0:
            raise ValueError("ingest_overload_wait_s must be non-negative")
        # Normalize peers: accept any iterable of URLs (from_dict hands a
        # JSON list), dedupe preserving order, strip trailing slashes.
        if isinstance(self.peers, (str, bytes)):
            raise ValueError("peers must be a sequence of base URLs, not a string")
        peers = tuple(dict.fromkeys(str(peer).rstrip("/") for peer in self.peers))
        for peer in peers:
            if not peer.startswith(("http://", "https://")):
                raise ValueError(f"peer {peer!r} must be an http(s):// base URL")
        object.__setattr__(self, "peers", peers)
        if self.shard_timeout_s <= 0:
            raise ValueError("shard_timeout_s must be positive")
        if self.node_hedge_ms < 0:
            raise ValueError("node_hedge_ms must be non-negative")
        if self.node_retries < 0:
            raise ValueError("node_retries must be non-negative")
        if self.probe_interval_s < 0:
            raise ValueError("probe_interval_s must be non-negative")
        if not 0.0 <= self.trace_sample_rate <= 1.0:
            raise ValueError("trace_sample_rate must be within [0, 1]")
        if self.slow_query_ms < 0:
            raise ValueError("slow_query_ms must be non-negative")

    def make_tokenizer(self) -> Tokenizer:
        """Instantiate the configured tokenizer."""
        if self.tokenizer == "simple":
            return SimpleAnalyzer()
        return WhitespaceAnalyzer()

    @property
    def resilience_enabled(self) -> bool:
        """Whether any retry / timeout / hedged-read knob is active."""
        return self.retries > 0 or self.request_timeout_s is not None or self.hedge_ms > 0

    def wrap_store(self, store: ObjectStore) -> ObjectStore:
        """Apply the configured resilience policy to ``store``.

        Returns
        -------
        ``store`` untouched when every resilience knob is off (no wrapper,
        no overhead), else :meth:`ResilientStore.wrap
        <repro.storage.resilient.ResilientStore.wrap>` of it (which keeps a
        simulator on top and never double-wraps).
        """
        if not self.resilience_enabled:
            return store
        return ResilientStore.wrap(
            store,
            retries=self.retries,
            backoff_ms=self.retry_backoff_ms,
            timeout_s=self.request_timeout_s,
            hedge_ms=self.hedge_ms,
            metrics=None if self.metrics_enabled else NULL_REGISTRY,
        )

    def to_dict(self) -> dict[str, Any]:
        """JSON-serializable representation (reported by ``/healthz``).

        Derived from the dataclass fields, so a new field cannot be missed.
        """
        data = {field.name: getattr(self, field.name) for field in fields(self)}
        data["peers"] = list(self.peers)
        return data

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "ServiceConfig":
        """Rebuild from :meth:`to_dict` output (unknown keys ignored)."""
        known = set(cls.__dataclass_fields__)
        return cls(**{key: value for key, value in data.items() if key in known})
