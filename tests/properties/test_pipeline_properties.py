"""Property-based tests: the read pipeline is invisible except in metrics.

Two seeded Hypothesis properties over random range-read workloads:

* **Transparency** — whatever mix of duplicate, overlapping, adjacent,
  zero-length, open-ended, optional and past-end-of-blob ranges a query
  batch contains, and whatever cache budget the pipeline runs with, callers
  receive byte-for-byte what a raw
  :meth:`~repro.storage.base.ObjectStore.read_batch` would return.
* **Accounting exactness** — the pipeline's reported metrics are not merely
  plausible but *exactly* consistent with the traffic a counting wrapper
  observed reaching the store (physical request count, bytes transferred),
  with the workload itself (logical requests, requested bytes), and with
  the mirrored registry counters — and no batch ever transfers a byte more
  than raw fetching would.
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
#: A blob that is never written: only an ``optional`` read may name it.
MISSING = "missing.bin"


def _make_store() -> InMemoryObjectStore:
    store = InMemoryObjectStore()
    for name, size in BLOB_SIZES.items():
        store.put(name, bytes(i % 251 for i in range(size)))
    return store


request_strategy = st.one_of(
    st.builds(
        RangeRead,
        blob=st.sampled_from(sorted(BLOB_SIZES)),
        offset=st.integers(min_value=0, max_value=350),
        length=st.one_of(st.none(), st.integers(min_value=0, max_value=120)),
        optional=st.booleans(),
    ),
    st.builds(RangeRead, blob=st.just(MISSING), optional=st.just(True)),
)

workload_strategy = st.lists(
    st.lists(request_strategy, max_size=25), min_size=1, max_size=4
)


def _passes_through(request: RangeRead) -> bool:
    return request.length != 0 and (request.length is None or request.optional)


@settings(max_examples=60, deadline=None)
@given(batches=workload_strategy, cache_bytes=st.sampled_from([0, 128, 8192]))
def test_pipeline_is_byte_identical_to_raw_fetching_and_exactly_accounted(
    batches, cache_bytes
):
    counting = CountingStore(_make_store())
    registry = MetricsRegistry()
    raw = _make_store()
    pipeline = ReadPipeline(
        counting, max_concurrency=4, cache_bytes=cache_bytes, metrics=registry
    )
    try:
        requested = 0
        for batch in batches:
            before = pipeline.stats.snapshot()
            expected = raw.read_batch(batch, max_concurrency=4).payloads
            assert pipeline.fetch(batch).payloads == expected
            after = pipeline.stats.snapshot()
            # A pass-through read requests what it returns; a bounded one its
            # length, whatever end of blob truncates it to.
            requested += sum(
                len(payload or b"") if _passes_through(request) else request.length or 0
                for request, payload in zip(batch, expected)
            )
            # Never a byte more than raw fetching would transfer, per batch.
            assert (
                after["bytes_fetched"] - before["bytes_fetched"]
                <= after["bytes_requested"] - before["bytes_requested"]
            )

        stats = pipeline.stats.snapshot()
        requests = [request for batch in batches for request in batch]

        # Logical-side accounting matches the workload exactly.
        assert stats["requests_in"] == len(requests)
        assert stats["bytes_requested"] == requested
        assert stats["cache_hits"] + stats["cache_misses"] == sum(
            1 for request in requests if request.length != 0
        )
        if cache_bytes == 0:
            assert stats["cache_hits"] == 0

        # Physical-side accounting matches what the store actually saw.
        # (A read of the missing blob is issued, but the backend serves nothing.)
        missing = sum(1 for request in requests if request.blob == MISSING)
        assert stats["requests_out"] == counting.read_calls + missing
        assert stats["bytes_fetched"] == counting.bytes_returned
        assert stats["requests_out"] <= stats["requests_in"]
        assert stats["requests_saved"] >= 0

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
        assert (
            registry.counter("airphant_pipeline_bytes_requested_total").value()
            == stats["bytes_requested"]
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
        passed = sum(
            1 for request in batch if _passes_through(request) and request.blob != MISSING
        )
        # Only open-ended and optional reads (never cached) reach the store again.
        assert counting.read_calls - calls_after_first == passed
    finally:
        counting.close()
