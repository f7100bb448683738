"""Coalescing read pipeline between callers and a store's ``read_batch``.

Airphant's query path issues *batches* of small range reads against one or
two blobs (superposts inside the compacted blob, documents inside corpus
blobs).  Issuing each logical read as its own store request wastes request
quota and first-byte waits whenever ranges repeat or sit next to each other.
:class:`ReadPipeline` sits between callers and
:meth:`ObjectStore.read_batch <repro.storage.base.ObjectStore.read_batch>`
and, per batch:

1. **deduplicates** identical ranges (one physical request serves them all);
2. **coalesces** overlapping or exactly adjacent ranges on the same blob
   into fewer, larger requests — never transferring a byte that raw fetching
   would not;
3. serves repeated ranges from a bounded **LRU block cache** without touching
   the store at all.  Every blob is immutable once written, so a range keyed
   by ``(blob, offset, length)`` never goes stale while its searcher is open.

Logical payloads are sliced back out of the physical payloads, so callers
observe byte-for-byte the same results as raw fetching (including end-of-blob
truncation, which slicing reproduces exactly).  Everything the pipeline saved
or spent is accounted in :class:`PipelineStats`.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Any

from repro.observability import MetricsRegistry, MirroredStats, get_registry
from repro.observability.tracing import span
from repro.storage.base import ObjectStore, RangeRead
from repro.storage.parallel import FetchResult

#: Cache key of one bounded logical range.
_RangeKey = tuple[str, int, int]

#: PipelineStats field -> (registry counter name, help) mirrored on update.
_PIPELINE_COUNTERS: dict[str, tuple[str, str]] = {
    "requests_in": (
        "airphant_pipeline_logical_requests_total",
        "Logical range reads handed to the read pipeline",
    ),
    "requests_out": (
        "airphant_pipeline_physical_requests_total",
        "Physical range reads the pipeline issued to the store",
    ),
    "batches": (
        "airphant_pipeline_batches_total",
        "Physical batches issued (at most one per pipeline fetch)",
    ),
    "cache_hits": (
        "airphant_pipeline_cache_hits_total",
        "Logical requests answered from the block cache",
    ),
    "cache_misses": (
        "airphant_pipeline_cache_misses_total",
        "Logical requests that needed bytes from the store",
    ),
    "coalesced_requests": (
        "airphant_pipeline_coalesced_requests_total",
        "Logical requests folded into a wider or shared physical request",
    ),
    "bytes_requested": (
        "airphant_pipeline_bytes_requested_total",
        "Bytes covered by logical requests (what raw fetching would transfer)",
    ),
    "bytes_fetched": (
        "airphant_pipeline_bytes_fetched_total",
        "Bytes actually transferred from the store",
    ),
}


@dataclass
class PipelineStats(MirroredStats):
    """What one :class:`ReadPipeline` received, issued, and saved.

    Updates go through :meth:`~repro.observability.MirroredStats.add`,
    which is atomic (its own lock, so pool and server threads can report
    concurrently) and mirrors every increment into the bound
    :class:`~repro.observability.MetricsRegistry` — the unified accounting
    path ``/metrics`` exports.  Field reads stay plain attributes;
    :meth:`~repro.observability.MirroredStats.snapshot` gives a consistent
    point-in-time copy.
    """

    _COUNTER_TABLE = _PIPELINE_COUNTERS

    #: Logical range reads handed to :meth:`ReadPipeline.fetch`.
    requests_in: int = 0
    #: Physical range reads actually issued to the store.
    requests_out: int = 0
    #: Physical batches issued (at most one per :meth:`ReadPipeline.fetch`).
    batches: int = 0
    #: Logical requests answered from the block cache (no store traffic).
    cache_hits: int = 0
    #: Logical requests that needed bytes from the store.
    cache_misses: int = 0
    #: Logical requests folded into a wider or shared physical request.
    coalesced_requests: int = 0
    #: Bytes covered by logical requests (what raw fetching would transfer):
    #: a pass-through read counts the bytes it returned.
    bytes_requested: int = 0
    #: Bytes actually transferred from the store (never more than requested).
    bytes_fetched: int = 0

    @property
    def requests_saved(self) -> int:
        """Store requests avoided by dedup + coalescing + caching."""
        return self.requests_in - self.requests_out

    def to_dict(self) -> dict[str, Any]:
        """JSON-serializable representation (used by benchmarks)."""
        return {
            "requests_in": self.requests_in,
            "requests_out": self.requests_out,
            "requests_saved": self.requests_saved,
            "batches": self.batches,
            "cache_hits": self.cache_hits,
            "cache_misses": self.cache_misses,
            "coalesced_requests": self.coalesced_requests,
            "bytes_requested": self.bytes_requested,
            "bytes_fetched": self.bytes_fetched,
        }


@dataclass(frozen=True)
class _Placement:
    """Where one logical request's bytes come from."""

    source: str  # "cache", "physical", or "empty"
    physical_index: int = 0
    start: int = 0  # slice start within the physical payload
    length: int | None = None  # slice length (None = to the end)
    payload: bytes = b""  # resolved bytes for "cache"/"empty" placements


@dataclass
class _Run:
    """One physical read covering a set of coalesced logical ranges."""

    blob: str
    start: int
    end: int  # exclusive
    keys: list[_RangeKey] = field(default_factory=list)

    def to_range_read(self) -> RangeRead:
        return RangeRead(blob=self.blob, offset=self.start, length=self.end - self.start)


class ReadPipeline:
    """Coalesces, deduplicates, and caches batched range reads.

    Parameters
    ----------
    store:
        The store whose :meth:`~repro.storage.base.ObjectStore.read_batch`
        executes the physical batches.
    max_concurrency:
        Most physical requests in flight at once, handed to ``read_batch``.
    cache_bytes:
        Byte budget of the LRU block cache keyed by exact logical range.
        ``0`` (the default) disables caching, keeping the pipeline a pure
        per-batch optimizer with no cross-query state.
    metrics:
        Registry the pipeline's :class:`PipelineStats` mirror into;
        defaults to the process-wide registry
        (:func:`repro.observability.get_registry`).

    Open-ended reads (``length=None``) pass through without coalescing or
    caching: their extent is unknown until the store answers, so neither
    optimization is sound for them.  So do ``optional`` reads, whose answer
    may be "missing" (a ``None`` payload) — a merged range or a cached block
    could not say that.
    """

    def __init__(
        self,
        store: ObjectStore,
        max_concurrency: int = 32,
        cache_bytes: int = 0,
        metrics: MetricsRegistry | None = None,
    ) -> None:
        if max_concurrency <= 0:
            raise ValueError("max_concurrency must be positive")
        if cache_bytes < 0:
            raise ValueError("cache_bytes must be non-negative")
        self._store = store
        self._max_concurrency = max_concurrency
        self._cache_bytes = cache_bytes
        self._cache: OrderedDict[_RangeKey, bytes] = OrderedDict()
        self._cached_bytes = 0
        # The cache is shared across server threads; all cache mutations
        # happen under this lock (the physical fetch itself runs outside it;
        # the stats object carries its own lock).
        self._lock = threading.Lock()
        self.stats = PipelineStats().bind(
            metrics if metrics is not None else get_registry()
        )

    @property
    def store(self) -> ObjectStore:
        """The store the physical batches run on."""
        return self._store

    @property
    def max_concurrency(self) -> int:
        """Most physical requests in flight per batch."""
        return self._max_concurrency

    @property
    def cache_bytes(self) -> int:
        """Byte budget of the block cache (0 = disabled)."""
        return self._cache_bytes

    @property
    def cached_bytes(self) -> int:
        """Bytes currently held by the block cache."""
        return self._cached_bytes

    def clear_cache(self) -> None:
        """Drop every cached block (call after the underlying blobs change)."""
        with self._lock:
            self._cache.clear()
            self._cached_bytes = 0

    # -- fetching ----------------------------------------------------------------

    def fetch(self, requests: list[RangeRead]) -> FetchResult:
        """Fetch all ``requests``, returning payloads in request order.

        At most one physical batch is issued; a batch fully served from the
        cache issues none and does not call the store at all (its
        :class:`~repro.storage.metrics.BatchRecord` is empty with zero
        latency, which callers can detect via ``batch.requests``).

        Parameters
        ----------
        requests:
            Logical range reads; duplicates and overlaps are welcome — that
            is exactly what the pipeline optimizes.

        Returns
        -------
        A :class:`~repro.storage.parallel.FetchResult` whose payloads are
        byte-for-byte what raw fetching would have returned (end-of-blob
        truncation included) and whose batch record carries the timing of
        the *physical* batch.  Timing caveat: against a simulated store the
        recorded latency covers only the coalesced physical requests — the
        whole point — so it is not comparable with a raw per-request
        replay of the same logical batch.
        """
        if not requests:
            return FetchResult()

        with span("pipeline.fetch") as trace_span:
            placements, physical, passed, deltas = self._plan(requests)
            # Commit everything known at planning time — including the physical
            # requests about to be issued — BEFORE the fetch: if the store fails
            # (e.g. retries exhausted), the batch must still be accounted, or
            # the pipeline counters would flatline exactly when the backend
            # counters spike and operators look at them.
            deltas["requests_out"] = len(physical)
            deltas["batches"] = 1 if physical else 0
            self.stats.add(**deltas)
            fetch = (
                self._store.read_batch(physical, self._max_concurrency)
                if physical
                else FetchResult()
            )

            payloads = self._resolve(requests, placements, fetch.payloads)
            fetched_bytes = sum(len(data) for data in fetch.payloads if data is not None)
            # A pass-through read's extent is what it returned: raw fetching
            # would have transferred exactly that, so it is requested too.
            passed_bytes = sum(len(data) for data in fetch.payloads[:passed] if data is not None)
            self.stats.add(bytes_fetched=fetched_bytes, bytes_requested=passed_bytes)
            # The span mirrors exactly the deltas committed to PipelineStats,
            # so explain output is checkable against the counters to the byte.
            trace_span.set(
                requests=deltas["requests_in"],
                physical_requests=deltas["requests_out"],
                batches=deltas["batches"],
                cache_hits=deltas["cache_hits"],
                cache_misses=deltas["cache_misses"],
                coalesced=deltas["coalesced_requests"],
                bytes_requested=deltas["bytes_requested"] + passed_bytes,
                bytes_fetched=fetched_bytes,
                batch_ms=round(fetch.batch.total_ms, 3),
            )
        return FetchResult(payloads=payloads, batch=fetch.batch)

    # -- planning ----------------------------------------------------------------

    def _plan(
        self, requests: list[RangeRead]
    ) -> tuple[list[_Placement], list[RangeRead], int, dict[str, int]]:
        """Map logical requests to cache hits and coalesced physical reads.

        Returns the placements, the physical reads to issue (the pass-through
        reads first), how many of them pass through, and the stats deltas of
        the planning phase — committed by :meth:`fetch` before the physical
        batch is issued.
        """
        placements: list[_Placement | None] = [None] * len(requests)
        bounded: dict[_RangeKey, list[int]] = {}
        passthrough: list[int] = []
        deltas = {
            "requests_in": len(requests),
            "cache_hits": 0,
            "cache_misses": 0,
            "bytes_requested": 0,
            "coalesced_requests": 0,
        }

        with self._lock:
            for index, request in enumerate(requests):
                if request.length == 0:
                    # Zero-length reads need no bytes at all.
                    placements[index] = _Placement(source="empty")
                    continue
                if request.length is None or request.optional:
                    passthrough.append(index)
                    deltas["cache_misses"] += 1
                    continue
                deltas["bytes_requested"] += request.length
                key = (request.blob, request.offset, request.length)
                cached = self._cache_get(key)
                if cached is not None:
                    placements[index] = _Placement(source="cache", payload=cached)
                    deltas["cache_hits"] += 1
                    continue
                deltas["cache_misses"] += 1
                bounded.setdefault(key, []).append(index)

        physical: list[RangeRead] = []
        # Open-ended and optional reads pass through one-to-one, uncoalesced.
        for index in passthrough:
            placements[index] = _Placement(
                source="physical", physical_index=len(physical), start=0, length=None
            )
            physical.append(requests[index])

        runs = self._coalesce(sorted(bounded))
        coalesced = 0
        for run in runs:
            physical_index = len(physical)
            physical.append(run.to_range_read())
            folded = sum(len(bounded[key]) for key in run.keys)
            if folded > 1:
                coalesced += folded
            for key in run.keys:
                _, offset, length = key
                for index in bounded[key]:
                    placements[index] = _Placement(
                        source="physical",
                        physical_index=physical_index,
                        start=offset - run.start,
                        length=length,
                    )
        deltas["coalesced_requests"] = coalesced

        assert all(placement is not None for placement in placements)
        return placements, physical, len(passthrough), deltas  # type: ignore[return-value]

    def _coalesce(self, keys: list[_RangeKey]) -> list[_Run]:
        """Merge sorted unique ranges into physical runs.

        ``keys`` is sorted by (blob, offset, length); ranges on the same blob
        merge while the next range overlaps or exactly abuts the current
        run, so a run never covers a byte no logical range asked for.
        """
        runs: list[_Run] = []
        current: _Run | None = None
        for key in keys:
            blob, offset, length = key
            if current is None or blob != current.blob or offset > current.end:
                current = _Run(blob=blob, start=offset, end=offset + length)
                runs.append(current)
            else:
                current.end = max(current.end, offset + length)
            current.keys.append(key)
        return runs

    def _resolve(
        self,
        requests: list[RangeRead],
        placements: list[_Placement],
        physical_payloads: list[bytes | None],
    ) -> list[bytes | None]:
        """Slice each logical payload out of its physical (or cached) source."""
        payloads: list[bytes | None] = []
        fills: list[tuple[_RangeKey, bytes]] = []
        for request, placement in zip(requests, placements):
            if placement.source == "empty":
                payloads.append(b"")
                continue
            if placement.source == "cache":
                payloads.append(placement.payload)
                continue
            source = physical_payloads[placement.physical_index]
            if source is None:  # an optional read of a missing blob
                payloads.append(None)
                continue
            if placement.length is None:  # passed through: neither sliced nor cached
                payloads.append(source)
                continue
            data = source[placement.start : placement.start + placement.length]
            payloads.append(data)
            fills.append(((request.blob, request.offset, request.length), data))
        if fills and self._cache_bytes > 0:
            with self._lock:
                for key, data in fills:
                    self._cache_put(key, data)
        return payloads

    # -- cache (callers hold self._lock) ------------------------------------------

    def _cache_get(self, key: _RangeKey) -> bytes | None:
        if self._cache_bytes <= 0:
            return None
        data = self._cache.get(key)
        if data is None:
            return None
        self._cache.move_to_end(key)
        return data

    def _cache_put(self, key: _RangeKey, data: bytes) -> None:
        if len(data) > self._cache_bytes:
            return  # a block larger than the whole budget is never cached
        previous = self._cache.pop(key, None)
        if previous is not None:
            self._cached_bytes -= len(previous)
        self._cache[key] = data
        self._cached_bytes += len(data)
        while self._cached_bytes > self._cache_bytes:
            _, evicted = self._cache.popitem(last=False)
            self._cached_bytes -= len(evicted)
