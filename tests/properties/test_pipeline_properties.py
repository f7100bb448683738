"""Property-based tests: the read pipeline is invisible except in metrics.

Two seeded Hypothesis properties over random range-read workloads:

* **Transparency** — whatever mix of duplicate, overlapping, adjacent,
  zero-length, open-ended, and past-end-of-blob ranges a query batch
  contains, and whatever coalescing gap / cache budget the pipeline runs
  with, callers receive byte-for-byte what a raw
  :meth:`~repro.storage.base.ObjectStore.read_batch` would return.
* **Accounting exactness** — the pipeline's reported metrics are not merely
  plausible but *exactly* consistent with the traffic a counting wrapper
  observed reaching the store (physical request count, bytes transferred),
  with the workload itself (logical requests, requested bytes), and with
  the mirrored registry counters.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st
from harness.stores import CountingStore

from repro.observability import MetricsRegistry
from repro.storage.base import RangeRead
from repro.storage.memory import InMemoryObjectStore
from repro.storage.pipeline import ReadPipeline

#: Fixed blob layout: an empty blob, a small one, and one spanning several
#: typical coalescing windows.  Offsets/lengths are drawn past the ends on
#: purpose — truncation must behave identically to raw fetching.
BLOB_SIZES = {"empty.bin": 0, "small.bin": 37, "large.bin": 300}


def _make_store() -> InMemoryObjectStore:
    store = InMemoryObjectStore()
    for name, size in BLOB_SIZES.items():
        store.put(name, bytes(i % 251 for i in range(size)))
    return store


request_strategy = st.builds(
    RangeRead,
    blob=st.sampled_from(sorted(BLOB_SIZES)),
    offset=st.integers(min_value=0, max_value=350),
    length=st.one_of(st.none(), st.integers(min_value=0, max_value=120)),
)

workload_strategy = st.lists(
    st.lists(request_strategy, max_size=25), min_size=1, max_size=4
)


@settings(max_examples=60, deadline=None)
@given(
    batches=workload_strategy,
    max_gap=st.integers(min_value=0, max_value=64),
    cache_bytes=st.sampled_from([0, 128, 8192]),
)
def test_pipeline_is_byte_identical_to_raw_fetching_and_exactly_accounted(
    batches, max_gap, cache_bytes
):
    counting = CountingStore(_make_store())
    registry = MetricsRegistry()
    raw = _make_store()
    pipeline = ReadPipeline(
        counting,
        max_concurrency=4,
        max_gap=max_gap,
        cache_bytes=cache_bytes,
        metrics=registry,
    )
    try:
        for batch in batches:
            assert pipeline.fetch(batch).payloads == raw.read_batch(batch, max_concurrency=4).payloads

        stats = pipeline.stats.snapshot()
        requests = [request for batch in batches for request in batch]

        # Logical-side accounting matches the workload exactly.
        assert stats["requests_in"] == len(requests)
        assert stats["bytes_requested"] == sum(
            request.length for request in requests if request.length is not None
        )
        assert stats["cache_hits"] + stats["cache_misses"] == sum(
            1 for request in requests if request.length != 0
        )
        if cache_bytes == 0:
            assert stats["cache_hits"] == 0

        # Physical-side accounting matches what the store actually saw.
        assert stats["requests_out"] == counting.read_calls
        assert stats["bytes_fetched"] == counting.bytes_returned
        assert stats["requests_out"] <= stats["requests_in"]
        assert stats["requests_saved"] >= 0
        # Gap-free coalescing never transfers more than raw fetching would
        # (bridged gaps may, by at most the gap per merge).  Open-ended
        # reads are excluded: they transfer to end-of-blob but carry no
        # requested-byte count.
        if max_gap == 0 and all(request.length is not None for request in requests):
            assert stats["bytes_fetched"] <= stats["bytes_requested"]

        # The mirrored registry counters agree with the stats object: one
        # accounting path, two views.
        assert (
            registry.counter("airphant_pipeline_physical_requests_total").value()
            == stats["requests_out"]
        )
        assert (
            registry.counter("airphant_pipeline_logical_requests_total").value()
            == stats["requests_in"]
        )
        assert (
            registry.counter("airphant_pipeline_bytes_fetched_total").value()
            == stats["bytes_fetched"]
        )
        assert (
            registry.counter("airphant_pipeline_cache_hits_total").value()
            == stats["cache_hits"]
        )
    finally:
        counting.close()
        raw.close()


@settings(max_examples=30, deadline=None)
@given(batch=st.lists(request_strategy, min_size=1, max_size=25))
def test_repeating_a_batch_with_cache_serves_bounded_reads_from_memory(batch):
    """Second replay of an identical batch must not re-fetch bounded ranges."""
    counting = CountingStore(_make_store())
    pipeline = ReadPipeline(
        counting, max_concurrency=4, cache_bytes=1 << 20, metrics=MetricsRegistry()
    )
    try:
        first = pipeline.fetch(batch).payloads
        calls_after_first = counting.read_calls
        second = pipeline.fetch(batch).payloads
        assert first == second
        open_ended = sum(1 for request in batch if request.length is None)
        # Only open-ended reads (never cached) may hit the store again.
        assert counting.read_calls - calls_after_first == open_ended
    finally:
        counting.close()
