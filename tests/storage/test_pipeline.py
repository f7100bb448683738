"""Unit tests for the coalescing read pipeline."""

import pytest
from harness.stores import RecordingStore

from repro.storage.base import RangeRead
from repro.storage.latency import AffineLatencyModel
from repro.storage.memory import InMemoryObjectStore
from repro.storage.pipeline import ReadPipeline
from repro.storage.simulated import SimulatedCloudStore

BLOB_DATA = bytes(range(256)) * 8  # 2048 bytes of recognizable content


@pytest.fixture
def memory_store() -> InMemoryObjectStore:
    store = InMemoryObjectStore()
    store.put("blob", BLOB_DATA)
    store.put("other", BLOB_DATA[::-1])
    return store


@pytest.fixture
def sim_store() -> SimulatedCloudStore:
    store = SimulatedCloudStore(
        latency_model=AffineLatencyModel(first_byte_ms=50.0, jitter_sigma=0.0)
    )
    store.put("blob", BLOB_DATA)
    store.put("other", BLOB_DATA[::-1])
    return store


def direct(store, requests):
    return [store.read(request) for request in requests]


class TestCoalescing:
    def test_adjacent_ranges_merge_into_one_request(self, memory_store):
        pipeline = ReadPipeline(memory_store)
        requests = [RangeRead("blob", 0, 8), RangeRead("blob", 8, 8), RangeRead("blob", 16, 8)]
        result = pipeline.fetch(requests)
        assert result.payloads == direct(memory_store, requests)
        assert pipeline.stats.requests_out == 1
        assert pipeline.stats.coalesced_requests == 3

    def test_overlapping_ranges_merge(self, memory_store):
        pipeline = ReadPipeline(memory_store)
        requests = [RangeRead("blob", 0, 16), RangeRead("blob", 8, 16), RangeRead("blob", 4, 4)]
        result = pipeline.fetch(requests)
        assert result.payloads == direct(memory_store, requests)
        assert pipeline.stats.requests_out == 1

    def test_disjoint_ranges_stay_separate(self, memory_store):
        pipeline = ReadPipeline(memory_store)
        requests = [RangeRead("blob", 0, 8), RangeRead("blob", 9, 8)]  # 1-byte gap
        result = pipeline.fetch(requests)
        assert result.payloads == direct(memory_store, requests)
        assert pipeline.stats.requests_out == 2
        assert pipeline.stats.coalesced_requests == 0
        # A hole is never bridged: not a byte more than the raw requests.
        assert pipeline.stats.bytes_fetched == pipeline.stats.bytes_requested

    def test_ranges_on_different_blobs_never_merge(self, memory_store):
        pipeline = ReadPipeline(memory_store)
        requests = [RangeRead("blob", 0, 8), RangeRead("other", 8, 8)]
        result = pipeline.fetch(requests)
        assert result.payloads == direct(memory_store, requests)
        assert pipeline.stats.requests_out == 2

    def test_identical_ranges_deduplicate(self, memory_store):
        pipeline = ReadPipeline(memory_store)
        requests = [RangeRead("blob", 32, 8)] * 4
        result = pipeline.fetch(requests)
        assert result.payloads == direct(memory_store, requests)
        assert pipeline.stats.requests_out == 1
        assert pipeline.stats.requests_saved == 3

    def test_contained_range_is_served_from_the_wider_one(self, memory_store):
        pipeline = ReadPipeline(memory_store)
        requests = [RangeRead("blob", 0, 64), RangeRead("blob", 16, 8)]
        result = pipeline.fetch(requests)
        assert result.payloads == direct(memory_store, requests)
        assert pipeline.stats.requests_out == 1

    def test_truncation_at_end_of_blob_matches_direct_reads(self, memory_store):
        pipeline = ReadPipeline(memory_store)
        size = len(BLOB_DATA)
        requests = [
            RangeRead("blob", size - 4, 16),  # partially past EOF
            RangeRead("blob", size + 10, 8),  # fully past EOF
            RangeRead("blob", size - 8, 8),
        ]
        result = pipeline.fetch(requests)
        assert result.payloads == direct(memory_store, requests)

    def test_open_ended_reads_pass_through_unmerged(self, memory_store):
        pipeline = ReadPipeline(memory_store)
        requests = [RangeRead("blob", 2000, None), RangeRead("blob", 1990, 8)]
        result = pipeline.fetch(requests)
        assert result.payloads == direct(memory_store, requests)
        assert pipeline.stats.requests_out == 2

    def test_pass_through_reads_count_what_they_return_as_requested(self, memory_store):
        """Raw fetching would transfer a pass-through read's whole answer, so
        the bytes it returned are requested bytes too, and nothing the
        pipeline fetched is over-fetch."""
        pipeline = ReadPipeline(memory_store)
        requests = [
            RangeRead("blob", 2000, None),  # open-ended: 48 bytes to the end
            RangeRead("other", 0, 16, optional=True),
            RangeRead("missing", 0, 16, optional=True),  # answered None
            RangeRead("blob", 0, 8),
        ]
        result = pipeline.fetch(requests)
        assert result.payloads == direct(memory_store, requests)
        assert pipeline.stats.bytes_requested == 48 + 16 + 0 + 8
        assert pipeline.stats.bytes_fetched == pipeline.stats.bytes_requested

    def test_zero_length_reads_cost_nothing(self, memory_store):
        pipeline = ReadPipeline(memory_store)
        result = pipeline.fetch([RangeRead("blob", 5, 0)])
        assert result.payloads == [b""]
        assert pipeline.stats.requests_out == 0

    def test_empty_batch(self, memory_store):
        pipeline = ReadPipeline(memory_store)
        result = pipeline.fetch([])
        assert result.payloads == []
        assert result.total_ms == 0.0

    def test_invalid_parameters_rejected(self, memory_store):
        with pytest.raises(ValueError):
            ReadPipeline(memory_store, cache_bytes=-1)


class TestEquivalenceOnSimulatedStore:
    def test_payloads_match_direct_reads(self, sim_store):
        pipeline = ReadPipeline(sim_store, cache_bytes=4096)
        requests = [
            RangeRead("blob", 0, 32),
            RangeRead("blob", 8, 8),
            RangeRead("blob", 40, 8),
            RangeRead("other", 100, 24),
            RangeRead("blob", 0, 32),
        ]
        result = pipeline.fetch(requests)
        assert result.payloads == direct(sim_store, requests)

    def test_single_batch_is_one_logical_round_trip(self, sim_store):
        pipeline = ReadPipeline(sim_store)
        sim_store.metrics.reset()
        pipeline.fetch([RangeRead("blob", 0, 8), RangeRead("blob", 100, 8)])
        assert sim_store.metrics.round_trips == 1

    def test_coalescing_reduces_physical_request_records(self, sim_store):
        pipeline = ReadPipeline(sim_store)
        requests = [RangeRead("blob", i * 8, 8) for i in range(10)]  # all adjacent
        result = pipeline.fetch(requests)
        assert len(result.batch.requests) == 1
        assert result.payloads == direct(sim_store, requests)


class TestBlockCache:
    def test_repeat_fetch_hits_cache_and_skips_the_store(self, sim_store):
        pipeline = ReadPipeline(sim_store, cache_bytes=4096)
        requests = [RangeRead("blob", 0, 8), RangeRead("blob", 100, 8)]
        first = pipeline.fetch(requests)
        assert first.batch.requests  # physical traffic happened
        sim_store.metrics.reset()
        second = pipeline.fetch(requests)
        assert second.payloads == first.payloads
        assert not second.batch.requests  # fully served from cache
        assert second.total_ms == 0.0
        assert sim_store.metrics.round_trips == 0
        assert pipeline.stats.cache_hits == 2
        assert pipeline.stats.cache_misses == 2

    def test_a_batch_served_wholly_from_the_cache_does_not_call_the_store(
        self, memory_store
    ):
        store = RecordingStore(memory_store)
        pipeline = ReadPipeline(store, cache_bytes=4096)
        requests = [RangeRead("blob", 0, 8), RangeRead("blob", 64, 8), RangeRead("blob", 5, 0)]
        pipeline.fetch(requests)
        assert pipeline.fetch(requests).payloads == direct(memory_store, requests)
        assert pipeline.fetch([RangeRead("blob", 9, 0)]).payloads == [b""]
        assert [call for call in store.calls if call[0] == "read_batch"] == [
            ["read_batch", "", 0, 2]
        ]
        assert pipeline.stats.batches == 1

    def test_partial_hit_fetches_only_the_misses(self, sim_store):
        pipeline = ReadPipeline(sim_store, cache_bytes=4096)
        pipeline.fetch([RangeRead("blob", 0, 8)])
        result = pipeline.fetch([RangeRead("blob", 0, 8), RangeRead("blob", 500, 8)])
        assert result.payloads == direct(sim_store, [RangeRead("blob", 0, 8), RangeRead("blob", 500, 8)])
        assert pipeline.stats.requests_out == 2  # one per miss, none for the hit
        assert pipeline.stats.cache_hits == 1

    def test_lru_eviction_respects_byte_budget(self, memory_store):
        pipeline = ReadPipeline(memory_store, cache_bytes=16)
        pipeline.fetch([RangeRead("blob", 0, 8)])
        pipeline.fetch([RangeRead("blob", 100, 8)])  # cache now full (16 bytes)
        pipeline.fetch([RangeRead("blob", 200, 8)])  # evicts the oldest block
        assert pipeline.cached_bytes <= 16
        pipeline.fetch([RangeRead("blob", 0, 8)])  # was evicted -> miss
        assert pipeline.stats.cache_hits == 0

    def test_block_larger_than_budget_is_never_cached(self, memory_store):
        pipeline = ReadPipeline(memory_store, cache_bytes=4)
        pipeline.fetch([RangeRead("blob", 0, 8)])
        assert pipeline.cached_bytes == 0

    def test_clear_cache_forces_refetch(self, memory_store):
        pipeline = ReadPipeline(memory_store, cache_bytes=4096)
        pipeline.fetch([RangeRead("blob", 0, 8)])
        pipeline.clear_cache()
        pipeline.fetch([RangeRead("blob", 0, 8)])
        assert pipeline.stats.cache_hits == 0
        assert pipeline.stats.requests_out == 2

    def test_cache_serves_correct_bytes_after_many_mixed_batches(self, memory_store):
        pipeline = ReadPipeline(memory_store, cache_bytes=512)
        for offset in (0, 16, 64, 16, 0, 128, 64):
            requests = [RangeRead("blob", offset, 16), RangeRead("blob", offset + 20, 8)]
            assert pipeline.fetch(requests).payloads == direct(memory_store, requests)


class TestReadBatchDelegation:
    def test_read_batch_is_one_round_trip_on_simulated_stores(self, sim_store):
        sim_store.metrics.reset()
        payloads = sim_store.read_batch(
            [RangeRead("blob", 0, 4), RangeRead("blob", 4, 4), RangeRead("blob", 100, 4)]
        ).payloads
        assert payloads == [BLOB_DATA[0:4], BLOB_DATA[4:8], BLOB_DATA[100:104]]
        # One logical round trip for the whole call, not one per request.
        assert sim_store.metrics.round_trips == 1


class TestLifecycle:
    def test_a_pipeline_owns_a_cache_not_a_pool(self, memory_store):
        pipeline = ReadPipeline(memory_store, cache_bytes=64)
        pipeline.fetch([RangeRead("blob", 0, 4)])
        assert pipeline.cached_bytes == 4
        pool = memory_store.__dict__["_fetch_pool"]._pool
        pipeline.clear_cache()
        assert pipeline.cached_bytes == 0
        # The worker pool is the store's: it outlives any pipeline over it.
        assert memory_store.__dict__["_fetch_pool"]._pool is pool
        memory_store.close()

    def test_store_pool_is_reused_across_batches_and_pipelines(self, memory_store):
        first = ReadPipeline(memory_store, max_concurrency=4)
        first.fetch([RangeRead("blob", 0, 4)])
        fetch_pool = memory_store.__dict__["_fetch_pool"]
        pool = fetch_pool._pool
        assert pool is not None
        ReadPipeline(memory_store, max_concurrency=4).fetch([RangeRead("blob", 4, 4)])
        memory_store.read_batch([RangeRead("blob", 8, 4)], max_concurrency=4)
        assert fetch_pool._pool is pool  # same executor, not a fresh one per batch
        memory_store.close()
        assert fetch_pool._pool is None

    def test_store_close_is_idempotent(self, memory_store):
        memory_store.close()
        memory_store.close()

    def test_store_context_manager(self, memory_store):
        with memory_store as store:
            result = store.read_batch([RangeRead("blob", 0, 4)])
        assert result.payloads == [BLOB_DATA[0:4]]
        assert store.__dict__["_fetch_pool"]._pool is None

    def test_invalid_concurrency_rejected(self, memory_store):
        with pytest.raises(ValueError):
            ReadPipeline(memory_store, max_concurrency=0)


class TestFailureAccounting:
    def test_failed_physical_fetch_still_accounts_the_batch(self, memory_store):
        """A store failure must not erase the batch from the pipeline counters.

        When the backend is down, the pipeline counters are exactly what an
        operator correlates with the spiking backend counters — planning-side
        accounting therefore commits before the physical fetch.
        """
        from repro.observability import MetricsRegistry
        from repro.storage.base import TransientStoreError

        class _DownStore(InMemoryObjectStore):
            def get_range(self, name, offset, length=None):
                raise TransientStoreError("backend down")

        store = _DownStore()
        store.put("blob", BLOB_DATA)
        registry = MetricsRegistry()
        pipeline = ReadPipeline(store, max_concurrency=2, metrics=registry)
        with pytest.raises(TransientStoreError):
            pipeline.fetch([RangeRead("blob", 0, 8), RangeRead("blob", 0, 8)])
        assert pipeline.stats.requests_in == 2
        assert pipeline.stats.requests_out == 1  # deduplicated, then issued
        assert pipeline.stats.batches == 1
        assert pipeline.stats.bytes_fetched == 0  # nothing ever arrived
        assert (
            registry.counter("airphant_pipeline_physical_requests_total").value() == 1
        )
        store.close()
