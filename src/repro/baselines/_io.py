"""The dependent read shared by the hierarchical-index baselines.

Hierarchical term indexes traverse node by node: each step is a *dependent*
read whose location is only known after the previous read completes, so the
costs of those reads add up sequentially — a loop of one-request batches,
the opposite of Airphant's one concurrent wave.
"""

from __future__ import annotations

from repro.search.results import LatencyBreakdown
from repro.storage.base import ObjectStore, RangeRead


def dependent_read(
    store: ObjectStore,
    blob: str,
    offset: int,
    length: int | None,
    latency: LatencyBreakdown | None,
) -> bytes:
    """Read one byte range as its own round trip, charging ``latency`` for it."""
    fetch = store.read_batch([RangeRead(blob, offset, length)])
    if latency is not None:
        latency.add_lookup(fetch)
    return fetch.payloads[0]
