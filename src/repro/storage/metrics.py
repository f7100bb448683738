"""Per-request and aggregate metrics for simulated storage traffic.

The paper's latency-breakdown study (Figures 8 and 11) splits every search
into *wait time* (time spent blocked on the network before bytes arrive) and
*download time* (time spent receiving bytes).  The simulator produces both
quantities directly for every request, so the breakdown experiments simply
aggregate these records.

:class:`StorageMetrics` also mirrors its totals into the unified
:class:`~repro.observability.MetricsRegistry` (``airphant_sim_*`` counters),
so the paper figures and live serving share one accounting path — the
simulated round-trip counts show up on the same ``/metrics`` page as the
real backends' request latencies.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.observability import MirroredStats, get_registry

#: StorageMetrics field -> (registry counter name, help) mirrored on update.
_SIM_COUNTERS: dict[str, tuple[str, str]] = {
    "request_count": ("airphant_sim_requests_total", "Simulated storage requests recorded"),
    "round_trips": (
        "airphant_sim_round_trips_total",
        "Logical round trips charged on the virtual clock",
    ),
    "total_bytes": ("airphant_sim_bytes_total", "Bytes transferred by simulated requests"),
    "total_wait_ms": (
        "airphant_sim_wait_ms_total",
        "Summed first-byte wait time of simulated requests (ms)",
    ),
    "total_download_ms": (
        "airphant_sim_download_ms_total",
        "Summed transfer time of simulated requests (ms)",
    ),
}


@dataclass(frozen=True)
class RequestRecord:
    """Timing of one simulated storage request."""

    blob: str
    nbytes: int
    wait_ms: float = 0.0
    download_ms: float = 0.0

    @property
    def total_ms(self) -> float:
        """End-to-end latency of this request."""
        return self.wait_ms + self.download_ms


@dataclass(frozen=True)
class BatchRecord:
    """Timing of one *batch* of concurrent requests.

    ``wait_ms`` is the slowest first-byte latency in the batch (requests do
    not block each other) and ``download_ms`` accounts for shared-bandwidth
    transfer of all payloads.
    """

    requests: tuple[RequestRecord, ...] = ()
    wait_ms: float = 0.0
    download_ms: float = 0.0

    @property
    def total_ms(self) -> float:
        """End-to-end latency of the batch."""
        return self.wait_ms + self.download_ms

    @property
    def nbytes(self) -> int:
        """Total bytes transferred by the batch."""
        return sum(record.nbytes for record in self.requests)


@dataclass
class StorageMetrics(MirroredStats):
    """Running totals of the requests one simulated store was charged.

    Recording is O(1) in time and memory — five totals, no per-request
    state — and thread-safe, and every increment is mirrored as an
    ``airphant_sim_*`` counter into the bound registry: the process-wide one
    unless :meth:`~repro.observability.MirroredStats.bind` says otherwise.
    """

    _COUNTER_TABLE = _SIM_COUNTERS

    #: Number of individual requests issued.
    request_count: int = 0
    #: Logical round trips: one per single request, one per concurrent batch.
    round_trips: int = 0
    #: Total bytes fetched.
    total_bytes: int = 0
    #: Sum of first-byte wait times across all requests.
    total_wait_ms: float = 0.0
    #: Sum of transfer times across all requests.
    total_download_ms: float = 0.0

    def __post_init__(self) -> None:
        super().__post_init__()
        self.bind(get_registry())

    def record(self, record: RequestRecord) -> None:
        """Add a single request (counts as one round-trip)."""
        self.record_batch(BatchRecord(requests=(record,)))

    def record_batch(self, batch: BatchRecord) -> None:
        """Add a concurrent batch (counts as one *logical* round-trip)."""
        self.add(
            request_count=len(batch.requests),
            round_trips=1,
            total_bytes=batch.nbytes,
            total_wait_ms=sum(record.wait_ms for record in batch.requests),
            total_download_ms=sum(record.download_ms for record in batch.requests),
        )

    def reset(self) -> None:
        """Zero the totals (registry counters stay monotonic)."""
        with self._lock:
            self.request_count = self.round_trips = self.total_bytes = 0
            self.total_wait_ms = self.total_download_ms = 0.0
