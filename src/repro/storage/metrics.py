"""Aggregate metrics of simulated storage traffic.

The paper's latency-breakdown study (Figures 8 and 11) splits every search
into *wait time* (time spent blocked on the network before bytes arrive) and
*download time* (time spent receiving bytes).  The simulator charges both
for every round trip it serves, as the
:class:`~repro.storage.parallel.FetchResult` it returns, and
:class:`StorageMetrics` adds those results up.

:class:`StorageMetrics` also mirrors its totals into the unified
:class:`~repro.observability.MetricsRegistry` (``airphant_sim_*`` counters),
so the paper figures and live serving share one accounting path — the
simulated round-trip counts show up on the same ``/metrics`` page as the
real backends' request latencies.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

from repro.observability import MirroredStats, get_registry
from repro.observability.stats import counter
from repro.storage.parallel import FetchResult


@dataclass
class StorageMetrics(MirroredStats):
    """Running totals of the round trips one simulated store was charged.

    Recording is O(1) in time and memory — five totals, no per-request
    state — and thread-safe, and every increment is mirrored as an
    ``airphant_sim_*`` counter into the bound registry: the process-wide one
    unless :meth:`~repro.observability.MirroredStats.bind` says otherwise.
    """

    request_count: int = counter(
        "airphant_sim_requests_total", "Simulated storage requests recorded"
    )
    #: Logical round trips: one per single request, one per concurrent batch.
    round_trips: int = counter(
        "airphant_sim_round_trips_total", "Logical round trips charged on the virtual clock"
    )
    total_bytes: int = counter(
        "airphant_sim_bytes_total", "Bytes transferred by simulated requests"
    )
    #: Sum of the round trips' first-byte waits.
    total_wait_ms: float = counter(
        "airphant_sim_wait_ms_total", "Summed first-byte wait time of simulated requests (ms)"
    )
    #: Sum of the round trips' transfer times.
    total_download_ms: float = counter(
        "airphant_sim_download_ms_total", "Summed transfer time of simulated requests (ms)"
    )

    def __post_init__(self) -> None:
        super().__post_init__()
        self.bind(get_registry())

    def record(self, fetch: FetchResult) -> None:
        """Add one round trip: a single request, or a concurrent batch."""
        self.add(
            request_count=fetch.requests,
            round_trips=1,
            total_bytes=fetch.nbytes,
            total_wait_ms=fetch.wait_ms,
            total_download_ms=fetch.download_ms,
        )

    def reset(self) -> None:
        """Zero the totals (registry counters stay monotonic)."""
        with self._lock:
            for declared in fields(self):
                setattr(self, declared.name, 0)
