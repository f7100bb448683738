"""Unit tests for the coalescing read pipeline."""

import pytest
from harness.stores import BlockingStore, RecordingStore

from repro.storage.base import RangeRead, TransientStoreError
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
        assert result.requests == 1
        assert result.payloads == direct(sim_store, requests)


class TestBlockCache:
    def test_repeat_fetch_hits_cache_and_skips_the_store(self, sim_store):
        pipeline = ReadPipeline(sim_store, cache_bytes=4096)
        requests = [RangeRead("blob", 0, 8), RangeRead("blob", 100, 8)]
        first = pipeline.fetch(requests)
        assert first.requests  # physical traffic happened
        sim_store.metrics.reset()
        second = pipeline.fetch(requests)
        assert second.payloads == first.payloads
        assert not second.requests  # fully served from cache
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


class _Decoded:
    """A decoded range: its bytes reversed, charged ten bytes per byte."""

    def __init__(self, data: memoryview) -> None:
        self.data = bytes(data[::-1])
        self.nbytes = 10 * len(data)
        self.frozen = False

    def freeze(self) -> "_Decoded":
        self.frozen = True
        return self


class _Decoder:
    """Decodes into :class:`_Decoded`, remembering every payload it decoded."""

    def __init__(self) -> None:
        self.calls: list[bytes] = []

    def __call__(self, data: memoryview) -> _Decoded:
        self.calls.append(bytes(data))
        return _Decoded(data)


def _decoded_reads(decoder, *ranges) -> list[RangeRead]:
    return [RangeRead("blob", offset, length, decode=decoder) for offset, length in ranges]


class TestDecodedEntries:
    def test_the_decoder_is_not_part_of_a_reads_identity(self):
        assert RangeRead("blob", 0, 8, decode=_Decoder()) == RangeRead("blob", 0, 8)
        assert hash(RangeRead("blob", 0, 8, decode=_Decoder())) == hash(RangeRead("blob", 0, 8))

    def test_a_coalesced_payload_is_split_and_each_range_decoded_once(self, memory_store):
        decoder = _Decoder()
        pipeline = ReadPipeline(memory_store)
        requests = _decoded_reads(decoder, (0, 8), (8, 8), (0, 8))
        payloads = pipeline.fetch(requests).payloads
        assert pipeline.stats.requests_out == 1  # one physical read
        assert decoder.calls == [BLOB_DATA[0:8], BLOB_DATA[8:16]]  # one decode per range
        assert [p.data for p in payloads] == [BLOB_DATA[7::-1], BLOB_DATA[15:7:-1], BLOB_DATA[7::-1]]
        assert payloads[0] is payloads[2]

    def test_a_warm_read_returns_the_cached_value_without_decoding(self, memory_store):
        decoder = _Decoder()
        pipeline = ReadPipeline(memory_store, cache_bytes=4096)
        requests = _decoded_reads(decoder, (0, 8), (100, 4))
        first = pipeline.fetch(requests).payloads
        second = pipeline.fetch(requests).payloads
        assert len(decoder.calls) == 2
        assert all(cold is warm and warm.frozen for cold, warm in zip(first, second))
        assert pipeline.cached_bytes == 80 + 40  # charged nbytes, not length
        assert (pipeline.stats.cache_hits, pipeline.stats.cache_misses) == (2, 2)

    def test_an_uncached_pipeline_decodes_every_read(self, memory_store):
        decoder = _Decoder()
        pipeline = ReadPipeline(memory_store)
        for _ in range(3):
            pipeline.fetch(_decoded_reads(decoder, (0, 8)))
        assert len(decoder.calls) == 3 and pipeline.cached_bytes == 0

    def test_charged_total_never_exceeds_a_tiny_budget(self, memory_store):
        decoder = _Decoder()
        budget = 200
        pipeline = ReadPipeline(memory_store, cache_bytes=budget)
        for step in range(40):
            offset = (step * 37) % 1000
            pipeline.fetch(
                [*_decoded_reads(decoder, (offset, 8), (offset + 500, 3)), RangeRead("other", offset, 30)]
            )
            charged = sum(
                len(entry) if isinstance(entry, bytes) else entry.nbytes
                for entry in pipeline._cache.values()
            )
            assert pipeline.cached_bytes == charged <= budget
        assert pipeline.cached_bytes > 0
        # A 21-byte range charges 210: larger than the whole budget, never cached.
        pipeline.clear_cache()
        pipeline.fetch(_decoded_reads(decoder, (0, 21)))
        assert pipeline.cached_bytes == 0

    def test_undecoded_and_pass_through_reads_keep_their_bytes(self, memory_store):
        decoder = _Decoder()
        pipeline = ReadPipeline(memory_store, cache_bytes=4096)
        requests = [
            RangeRead("blob", 0, 8),
            RangeRead("blob", 8, 8, decode=decoder),
            RangeRead("blob", 16, None, decode=decoder),
            RangeRead("missing", optional=True, decode=decoder),
        ]
        payloads = pipeline.fetch(requests).payloads
        assert payloads[0] == BLOB_DATA[0:8]
        assert payloads[1].data == BLOB_DATA[15:7:-1]
        assert payloads[2].data == BLOB_DATA[16:][::-1]  # decoded, never cached
        assert payloads[3] is None
        assert len(pipeline._cache) == 2

    def test_stats_are_those_of_the_byte_cache(self, memory_store):
        """Decoders change what a cached range holds, never what is read or counted."""
        sequence = [[(0, 8), (8, 8)], [(0, 8), (64, 16)], [(8, 8), (0, 8), (300, 4)], [(64, 16)]]
        counted = []
        for decoder in (None, _Decoder()):
            pipeline = ReadPipeline(memory_store, cache_bytes=1 << 20)
            for batch in sequence:
                pipeline.fetch(_decoded_reads(decoder, *batch))
            counted.append(pipeline.stats.to_dict())
        assert counted[0] == counted[1]


class TestReadBatchDelegation:
    def test_read_batch_is_one_round_trip_on_simulated_stores(self, sim_store):
        sim_store.metrics.reset()
        payloads = sim_store.read_batch(
            [RangeRead("blob", 0, 4), RangeRead("blob", 4, 4), RangeRead("blob", 100, 4)]
        ).payloads
        assert payloads == [BLOB_DATA[0:4], BLOB_DATA[4:8], BLOB_DATA[100:104]]
        # One logical round trip for the whole call, not one per request.
        assert sim_store.metrics.round_trips == 1


@pytest.fixture
def waiting_store() -> BlockingStore:
    """A store whose reads wait, already measured slow: its batches use the pool."""
    store = BlockingStore(InMemoryObjectStore())
    store.put("blob", BLOB_DATA)
    store.read_batch([RangeRead("blob", 0, 1)])  # the inline probe
    return store


class TestLifecycle:
    def test_a_pipeline_owns_a_cache_not_a_pool(self, waiting_store):
        pipeline = ReadPipeline(waiting_store, cache_bytes=64)
        pipeline.fetch([RangeRead("blob", 0, 4)])
        assert pipeline.cached_bytes == 4
        pool = waiting_store.__dict__["_fetch_pool"]._pool
        assert pool is not None
        pipeline.clear_cache()
        assert pipeline.cached_bytes == 0
        # The worker pool is the store's: it outlives any pipeline over it.
        assert waiting_store.__dict__["_fetch_pool"]._pool is pool
        waiting_store.close()

    def test_store_pool_is_reused_across_batches_and_pipelines(self, waiting_store):
        first = ReadPipeline(waiting_store, max_concurrency=4)
        first.fetch([RangeRead("blob", 0, 4)])
        fetch_pool = waiting_store.__dict__["_fetch_pool"]
        pool = fetch_pool._pool
        assert pool is not None
        ReadPipeline(waiting_store, max_concurrency=4).fetch([RangeRead("blob", 4, 4)])
        waiting_store.read_batch([RangeRead("blob", 8, 4)], max_concurrency=4)
        assert fetch_pool._pool is pool  # same executor, not a fresh one per batch
        waiting_store.close()
        assert fetch_pool._pool is None

    def test_store_close_is_idempotent(self, memory_store):
        memory_store.close()
        memory_store.close()

    def test_store_context_manager(self, waiting_store):
        with waiting_store as store:
            result = store.read_batch([RangeRead("blob", 0, 4)])
            assert store.__dict__["_fetch_pool"]._pool is not None
        assert result.payloads == [BLOB_DATA[0:4]]
        assert store.__dict__["_fetch_pool"]._pool is None

    def test_invalid_concurrency_rejected(self, memory_store):
        with pytest.raises(ValueError):
            ReadPipeline(memory_store, max_concurrency=0)


class _DownStore(InMemoryObjectStore):
    """Holds blobs but every range read fails, as a backend that is down."""

    def get_range(self, name, offset, length=None):
        raise TransientStoreError("backend down")


class TestFailureAccounting:
    def test_failed_physical_fetch_still_accounts_the_batch(self, memory_store):
        """A store failure must not erase the batch from the pipeline counters.

        When the backend is down, the pipeline counters are exactly what an
        operator correlates with the spiking backend counters — the wave is
        therefore committed whether or not the physical fetch returns.
        """
        from repro.observability import MetricsRegistry

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

    def test_a_failed_wave_s_span_carries_the_counted_deltas(self):
        """The explain tree of a failed query agrees with the counters too."""
        from repro.observability import MetricsRegistry
        from repro.observability.tracing import Tracer

        store = _DownStore()
        store.put("blob", BLOB_DATA)
        pipeline = ReadPipeline(store, max_concurrency=2, metrics=MetricsRegistry())
        pipeline.fetch([RangeRead("blob", 0, 0)])  # counted, reads nothing
        before = pipeline.stats.snapshot()
        handle = Tracer(sample_rate=1.0).begin("query")
        try:
            with pytest.raises(TransientStoreError):
                pipeline.fetch([RangeRead("blob", 0, 8), RangeRead("blob", 0, 8)])
        finally:
            root = handle.finish()
        (wave,) = [child for child in root.children if child.name == "pipeline.fetch"]
        after = pipeline.stats.snapshot()
        delta = {name: after[name] - before[name] for name in before}
        assert (wave.attrs["requests"], delta["requests_in"]) == (2, 2)
        assert (wave.attrs["physical_requests"], delta["requests_out"]) == (1, 1)
        assert (wave.attrs["batches"], delta["batches"]) == (1, 1)
        assert wave.attrs["bytes_fetched"] == delta["bytes_fetched"] == 0
        store.close()


def _reversed(data: bytes) -> _Decoded:
    return _Decoded(memoryview(data))


#: One wave per shape: (cache_bytes, warm-up wave or None, the wave, its
#: payloads, and its PipelineStats deltas in the order of
#: ``_DELTA_FIELDS``).  The numbers were recorded before the planner kept
#: cache hits out of its placement records, and must not move with it.
_WAVES = {
    "all_hits": (
        4096,
        [RangeRead("blob", 0, 8), RangeRead("other", 16, 8)],
        [RangeRead("blob", 0, 8), RangeRead("other", 16, 8)],
        [BLOB_DATA[0:8], BLOB_DATA[::-1][16:24]],
        (2, 0, 0, 2, 0, 0, 16, 0),
    ),
    "all_misses": (
        0,
        None,
        [RangeRead("blob", 0, 8), RangeRead("other", 100, 4)],
        [BLOB_DATA[0:8], BLOB_DATA[::-1][100:104]],
        (2, 2, 1, 0, 2, 0, 12, 12),
    ),
    "mixed": (
        4096,
        [RangeRead("blob", 0, 8)],
        [RangeRead("blob", 0, 8), RangeRead("blob", 32, 8), RangeRead("other", 0, 4)],
        [BLOB_DATA[0:8], BLOB_DATA[32:40], BLOB_DATA[::-1][0:4]],
        (3, 2, 1, 1, 2, 0, 20, 12),
    ),
    "duplicates": (
        0,
        None,
        [RangeRead("blob", 32, 8)] * 3,
        [BLOB_DATA[32:40]] * 3,
        (3, 1, 1, 0, 3, 3, 24, 8),
    ),
    "abutting": (
        0,
        None,
        [
            RangeRead("blob", 8, 8),
            RangeRead("blob", 0, 8),
            RangeRead("blob", 16, 4),
            RangeRead("blob", 40, 4),
            RangeRead("blob", 12, 8),
        ],
        [BLOB_DATA[8:16], BLOB_DATA[0:8], BLOB_DATA[16:20], BLOB_DATA[40:44], BLOB_DATA[12:20]],
        (5, 2, 1, 0, 5, 4, 32, 24),
    ),
    "zero_length": (
        4096,
        None,
        [RangeRead("blob", 5, 0), RangeRead("blob", 0, 4), RangeRead("missing", 0, 0)],
        [b"", BLOB_DATA[0:4], b""],
        (3, 1, 1, 0, 1, 0, 4, 4),
    ),
    "optional": (
        0,
        None,
        [
            RangeRead("blob", 0, 4, optional=True),
            RangeRead("missing", 0, 4, optional=True),
            RangeRead("blob", 0, 4),
        ],
        [BLOB_DATA[0:4], None, BLOB_DATA[0:4]],
        (3, 3, 1, 0, 3, 0, 8, 8),
    ),
    "open_ended": (
        4096,
        None,
        [RangeRead("blob", 2040), RangeRead("blob", 2044, 4), RangeRead("blob", 2040, 100)],
        [BLOB_DATA[2040:], BLOB_DATA[2044:], BLOB_DATA[2040:]],
        (3, 2, 1, 0, 3, 2, 112, 16),
    ),
    "decoded": (
        4096,
        [RangeRead("blob", 0, 8, decode=_reversed)],
        [
            RangeRead("blob", 0, 8, decode=_reversed),
            RangeRead("blob", 8, 8, decode=_reversed),
            RangeRead("blob", 8, 8, decode=_reversed),
            RangeRead("blob", 2040, None, decode=_reversed),
        ],
        [BLOB_DATA[7::-1], BLOB_DATA[15:7:-1], BLOB_DATA[15:7:-1], BLOB_DATA[:2039:-1]],
        (4, 2, 1, 1, 3, 2, 32, 16),
    ),
    "store_raises": (
        0,
        None,
        [RangeRead("blob", 0, 8), RangeRead("blob", 0, 8), RangeRead("blob", 4, 0)],
        None,
        (3, 1, 1, 0, 2, 2, 16, 0),
    ),
}

_DELTA_FIELDS = (
    "requests_in",
    "requests_out",
    "batches",
    "cache_hits",
    "cache_misses",
    "coalesced_requests",
    "bytes_requested",
    "bytes_fetched",
)

#: The ``pipeline.fetch`` attribute each delta is carried under.
_SPAN_ATTRS = (
    "requests",
    "physical_requests",
    "batches",
    "cache_hits",
    "cache_misses",
    "coalesced",
    "bytes_requested",
    "bytes_fetched",
)


class TestWaveAccounting:
    @pytest.mark.parametrize("shape", list(_WAVES))
    def test_every_wave_shape_counts_what_it_counted_before(self, shape):
        """Payloads, counter deltas and the wave's span attributes, pinned per
        wave shape — a planner rewrite must leave all three as they were."""
        from repro.observability import MetricsRegistry
        from repro.observability.tracing import Tracer

        cache_bytes, warm, wave, payloads, deltas = _WAVES[shape]
        store = _DownStore() if shape == "store_raises" else InMemoryObjectStore()
        store.put("blob", BLOB_DATA)
        store.put("other", BLOB_DATA[::-1])
        pipeline = ReadPipeline(store, cache_bytes=cache_bytes, metrics=MetricsRegistry())
        if warm is not None:
            pipeline.fetch(warm)
        before = pipeline.stats.snapshot()
        handle = Tracer(sample_rate=1.0).begin("query")
        try:
            if payloads is None:
                with pytest.raises(TransientStoreError):
                    pipeline.fetch(wave)
            else:
                got = pipeline.fetch(wave).payloads
                assert [p.data if isinstance(p, _Decoded) else p for p in got] == payloads
        finally:
            root = handle.finish()
        after = pipeline.stats.snapshot()
        assert tuple(after[name] - before[name] for name in _DELTA_FIELDS) == deltas
        (fetch_span,) = [child for child in root.children if child.name == "pipeline.fetch"]
        assert fetch_span.attrs == {**dict(zip(_SPAN_ATTRS, deltas)), "batch_ms": 0.0}
        store.close()


class TestByteRanges:
    @pytest.mark.parametrize(
        "shape",
        [
            shape
            for shape, (_, _, wave, _, _) in _WAVES.items()
            if all(
                read.length is not None and not read.optional and read.decode is None
                for read in wave
            )
        ],
    )
    def test_byte_ranges_count_what_their_reads_count(self, shape):
        """``fetch_ranges`` over a wave's ranges: the payloads, counter deltas
        and span ``fetch`` pins for the same wave as reads."""
        from repro.observability import MetricsRegistry
        from repro.observability.tracing import Tracer

        cache_bytes, warm, wave, payloads, deltas = _WAVES[shape]
        store = _DownStore() if shape == "store_raises" else InMemoryObjectStore()
        store.put("blob", BLOB_DATA)
        store.put("other", BLOB_DATA[::-1])
        pipeline = ReadPipeline(store, cache_bytes=cache_bytes, metrics=MetricsRegistry())
        if warm is not None:
            pipeline.fetch_ranges([(read.blob, read.offset, read.length) for read in warm])
        ranges = [(read.blob, read.offset, read.length) for read in wave]
        before = pipeline.stats.snapshot()
        handle = Tracer(sample_rate=1.0).begin("query")
        try:
            if payloads is None:
                with pytest.raises(TransientStoreError):
                    pipeline.fetch_ranges(ranges)
            else:
                assert pipeline.fetch_ranges(ranges).payloads == payloads
        finally:
            root = handle.finish()
        after = pipeline.stats.snapshot()
        assert tuple(after[name] - before[name] for name in _DELTA_FIELDS) == deltas
        (fetch_span,) = [child for child in root.children if child.name == "pipeline.fetch"]
        assert fetch_span.attrs == {**dict(zip(_SPAN_ATTRS, deltas)), "batch_ms": 0.0}
        store.close()
