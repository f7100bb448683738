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
truncation, which slicing reproduces exactly).  A read that carries a decoder
(:attr:`RangeRead.decode <repro.storage.base.RangeRead.decode>` — a
superpost's) gets the decoded value instead: its range is decoded once,
straight from the physical payload, and the cache holds the decoded value,
frozen and charged its ``nbytes``, so a warm read decodes nothing.  Everything the pipeline saved or spent is
accounted in :class:`PipelineStats`.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Any, Protocol, Sequence

from repro.observability import MetricsRegistry, MirroredStats, get_registry
from repro.observability.stats import counter
from repro.observability.tracing import span
from repro.storage.base import ObjectStore, RangeRead
from repro.storage.parallel import FetchResult

#: One bounded logical range, ``(blob, offset, length)``, read as bytes: what
#: :meth:`ReadPipeline.fetch_ranges` takes, and the block cache's key.
ByteRange = tuple[str, int, int]


class Decoded(Protocol):
    """What a read's decoder returns, as the block cache holds it."""

    #: What holding the value costs the cache's byte budget.
    nbytes: int

    def freeze(self) -> Any:
        """Make the value read-only: a cached value is shared by every reader."""
        ...


#: One cached range: its bytes, or the decoded value of a read with a decoder.
_Entry = bytes | Decoded


def _charge(entry: _Entry) -> int:
    """What ``entry`` costs the cache's byte budget."""
    return len(entry) if isinstance(entry, bytes) else entry.nbytes


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

    requests_in: int = counter(
        "airphant_pipeline_logical_requests_total",
        "Logical range reads handed to the read pipeline",
    )
    requests_out: int = counter(
        "airphant_pipeline_physical_requests_total",
        "Physical range reads the pipeline issued to the store",
    )
    batches: int = counter(
        "airphant_pipeline_batches_total",
        "Physical batches issued (at most one per pipeline fetch)",
    )
    cache_hits: int = counter(
        "airphant_pipeline_cache_hits_total",
        "Logical requests answered from the block cache",
    )
    cache_misses: int = counter(
        "airphant_pipeline_cache_misses_total",
        "Logical requests that needed bytes from the store",
    )
    coalesced_requests: int = counter(
        "airphant_pipeline_coalesced_requests_total",
        "Logical requests folded into a wider or shared physical request",
    )
    #: Bytes covered by logical requests (what raw fetching would transfer):
    #: a pass-through read counts the bytes it returned.
    bytes_requested: int = counter(
        "airphant_pipeline_bytes_requested_total",
        "Bytes covered by logical requests (what raw fetching would transfer)",
    )
    bytes_fetched: int = counter(
        "airphant_pipeline_bytes_fetched_total",
        "Bytes actually transferred from the store",
    )

    @property
    def requests_saved(self) -> int:
        """Store requests avoided by dedup + coalescing + caching."""
        return self.requests_in - self.requests_out

    def to_dict(self) -> dict[str, Any]:
        """Every counter, plus :attr:`requests_saved`."""
        return {**super().to_dict(), "requests_saved": self.requests_saved}


class _Plan:
    """One wave's plan.  Cache hits and zero-length reads are answered in
    :attr:`payloads` while planning; only misses are recorded: the
    pass-through reads, each bounded range's requesting indexes (in request
    order), and the coalesced runs covering those ranges — together the
    :attr:`physical` batch, pass-through reads first."""

    __slots__ = (
        "payloads", "passthrough", "bounded", "runs", "physical",
        "cache_hits", "cache_misses", "bytes_requested", "coalesced",
    )

    def __init__(self, size: int) -> None:
        self.payloads: list[Any] = [b""] * size
        self.passthrough: list[int] = []
        self.bounded: dict[ByteRange, list[int]] = {}
        self.runs: list[_Run] = []
        self.physical: list[RangeRead] = []
        #: Stats deltas of the planning phase, completed by the fetch.
        self.cache_hits = self.cache_misses = self.bytes_requested = self.coalesced = 0


@dataclass
class _Run:
    """One physical read covering a set of coalesced logical ranges."""

    blob: str
    start: int
    end: int  # exclusive
    keys: list[ByteRange] = field(default_factory=list)

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
        Byte budget of the LRU block cache keyed by exact logical range:
        a range of bytes is charged its length, a decoded value its
        ``nbytes``.  ``0`` (the default) disables caching, keeping the
        pipeline a pure per-batch optimizer with no cross-query state.
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
        self._cache: OrderedDict[ByteRange, _Entry] = OrderedDict()
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
        """What the block cache's entries are charged in total (never more
        than :attr:`cache_bytes`)."""
        return self._cached_bytes

    def clear_cache(self) -> None:
        """Drop every cached block (call after the underlying blobs change)."""
        with self._lock:
            self._cache.clear()
            self._cached_bytes = 0

    # -- fetching ----------------------------------------------------------------

    def fetch(self, requests: list[RangeRead]) -> FetchResult:
        """Fetch all ``requests``, returning payloads in request order — a
        read with a decoder gets its decoded value.

        At most one physical batch is issued; a batch fully served from the
        cache issues none and does not call the store at all (its result
        counts zero ``requests`` and zero latency).

        Parameters
        ----------
        requests:
            Logical range reads; duplicates and overlaps are welcome — that
            is exactly what the pipeline optimizes.

        Returns
        -------
        A :class:`~repro.storage.parallel.FetchResult` whose payloads are
        byte-for-byte what raw fetching would have returned (end-of-blob
        truncation included), or those bytes decoded by the read's decoder,
        and whose cost is that of the *physical* batch.  Timing caveat:
        against a simulated store the recorded latency covers only the
        coalesced physical requests — the whole point — so it is not
        comparable with a raw per-request replay of the same logical batch.
        """
        ranges = [
            None if request.length is None or (request.optional and request.length)
            else (request.blob, request.offset, request.length)
            for request in requests
        ]
        return self._fetch(ranges, requests)

    def fetch_ranges(self, ranges: Sequence[ByteRange]) -> FetchResult:
        """:meth:`fetch` of bounded ranges read as bytes, ``(blob, offset,
        length)`` each: the same payloads, counters and span, with no
        :class:`RangeRead` made for a range — only for the runs the store
        reads, so a cache hit costs no read object at all."""
        return self._fetch(ranges, None)

    def _fetch(
        self, ranges: Sequence[ByteRange | None], requests: Sequence[RangeRead] | None
    ) -> FetchResult:
        """One wave over ``ranges`` (``None`` for a pass-through read, which
        only ``requests`` — the reads they came from, if any — can carry)."""
        if not ranges:
            return FetchResult()

        with span("pipeline.fetch") as trace_span:
            plan = self._plan(ranges, requests)
            wave = FetchResult()
            try:
                if plan.physical:
                    wave = self._store.read_batch(plan.physical, self._max_concurrency)
                    self._fill(requests, plan, wave.payloads)
            finally:
                # One commit per wave, also when the store raised (retries
                # exhausted): the pipeline counters must not flatline exactly
                # when the backend counters spike and operators look at them.
                # A pass-through read's extent is what it returned: raw
                # fetching would have transferred exactly that, so it is
                # requested too.
                bytes_requested = plan.bytes_requested
                if plan.passthrough:
                    passed = wave.payloads[: len(plan.passthrough)]
                    bytes_requested += sum(len(data) for data in passed if data is not None)
                batches = 1 if plan.physical else 0
                self.stats.add(
                    requests_in=len(ranges),
                    requests_out=len(plan.physical),
                    batches=batches,
                    cache_hits=plan.cache_hits,
                    cache_misses=plan.cache_misses,
                    coalesced_requests=plan.coalesced,
                    bytes_requested=bytes_requested,
                    bytes_fetched=wave.nbytes,
                )
                # The span carries the very deltas committed, so explain
                # output is checkable against the counters to the byte.
                trace_span.set(
                    requests=len(ranges),
                    physical_requests=len(plan.physical),
                    batches=batches,
                    cache_hits=plan.cache_hits,
                    cache_misses=plan.cache_misses,
                    coalesced=plan.coalesced,
                    bytes_requested=bytes_requested,
                    bytes_fetched=wave.nbytes,
                    batch_ms=round(wave.total_ms, 3),
                )
        return FetchResult(
            plan.payloads, wave.requests, wave.nbytes, wave.wait_ms, wave.download_ms
        )

    # -- planning ----------------------------------------------------------------

    def _plan(
        self, ranges: Sequence[ByteRange | None], requests: Sequence[RangeRead] | None
    ) -> _Plan:
        """Resolve what needs no store; plan one physical batch for the rest."""
        plan = _Plan(len(ranges))
        payloads, passthrough, bounded = plan.payloads, plan.passthrough, plan.bounded
        cache = self._cache
        hits = requested = 0
        with self._lock:
            for index, key in enumerate(ranges):
                if key is None:
                    passthrough.append(index)
                    continue
                length = key[2]
                if length == 0:
                    continue  # needs no bytes at all: its payload stays b""
                requested += length
                cached = cache.get(key)
                if cached is not None:
                    cache.move_to_end(key)
                    payloads[index] = cached
                    hits += 1
                else:
                    bounded.setdefault(key, []).append(index)
        plan.cache_hits, plan.bytes_requested = hits, requested
        plan.cache_misses = len(passthrough) + sum(map(len, bounded.values()))
        if passthrough or bounded:
            # Open-ended and optional reads pass through one-to-one, first.
            plan.physical = [requests[index] for index in passthrough]
            plan.runs = self._coalesce(sorted(bounded))
            for run in plan.runs:
                plan.physical.append(run.to_range_read())
                folded = sum(len(bounded[key]) for key in run.keys)
                if folded > 1:
                    plan.coalesced += folded
        return plan

    def _coalesce(self, keys: list[ByteRange]) -> list[_Run]:
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

    def _fill(
        self,
        requests: Sequence[RangeRead] | None,
        plan: _Plan,
        physical_payloads: list[bytes | None],
    ) -> None:
        """Place each miss's payload: a pass-through read's as it came, a
        bounded range's sliced out of its run — decoded once per range when
        its read has a decoder — and cached in request order."""
        payloads = plan.payloads
        for index, source in zip(plan.passthrough, physical_payloads):
            payloads[index] = requests[index].decoded(source)
        placed: dict[ByteRange, tuple[bytes, int]] = {}
        for run, source in zip(plan.runs, physical_payloads[len(plan.passthrough) :]):
            for key in run.keys:
                placed[key] = (source, key[1] - run.start)
        for key, indexes in plan.bounded.items():
            source, start = placed[key]
            decode = None if requests is None else requests[indexes[0]].decode
            if decode is None:
                entry = source[start : start + key[2]]
            else:  # decoded straight from the physical payload: no copy
                entry = decode(memoryview(source)[start : start + key[2]])
            for index in indexes:
                payloads[index] = entry
        if self._cache_bytes > 0:
            with self._lock:
                for key, indexes in plan.bounded.items():
                    self._cache_put(key, payloads[indexes[0]])

    # -- cache (callers hold self._lock) ------------------------------------------

    def _cache_put(self, key: ByteRange, entry: _Entry) -> None:
        charge = _charge(entry)
        if charge > self._cache_bytes:
            return  # an entry larger than the whole budget is never cached
        if not isinstance(entry, bytes):
            entry.freeze()
        previous = self._cache.pop(key, None)
        if previous is not None:
            self._cached_bytes -= _charge(previous)
        self._cache[key] = entry
        self._cached_bytes += charge
        while self._cached_bytes > self._cache_bytes:
            _, evicted = self._cache.popitem(last=False)
            self._cached_bytes -= _charge(evicted)
