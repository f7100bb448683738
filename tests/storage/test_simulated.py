"""Unit tests for the simulated cloud store."""

import pytest

from repro.storage.base import RangeRead
from repro.storage.latency import AffineLatencyModel
from repro.storage.memory import InMemoryObjectStore
from repro.storage.simulated import SimulatedCloudStore


@pytest.fixture
def store() -> SimulatedCloudStore:
    model = AffineLatencyModel(first_byte_ms=50.0, jitter_sigma=0.0, bandwidth_mb_per_s=1.0)
    return SimulatedCloudStore(latency_model=model)


class TestDataPassThrough:
    def test_put_get_roundtrip(self, store):
        store.put("a", b"payload")
        assert store.get("a") == b"payload"

    def test_get_range_matches_backend(self, store):
        store.put("a", b"0123456789")
        assert store.get_range("a", 2, 3) == b"234"

    def test_size_exists_delete_list(self, store):
        store.put("x/a", b"123")
        assert store.size("x/a") == 3
        assert store.exists("x/a")
        assert store.list_blobs("x/") == ["x/a"]
        store.delete("x/a")
        assert not store.exists("x/a")

    def test_wraps_existing_backend(self):
        backend = InMemoryObjectStore()
        backend.put("pre", b"existing")
        store = SimulatedCloudStore(backend=backend)
        assert store.get("pre") == b"existing"

    def test_wrap_never_stacks_two_simulators(self, store):
        assert SimulatedCloudStore.wrap(store) is store
        inner = InMemoryObjectStore()
        assert SimulatedCloudStore.wrap(inner).backend is inner

    def test_with_latency_model_shares_backend(self, store):
        store.put("a", b"shared")
        other = store.with_latency_model(AffineLatencyModel(first_byte_ms=500.0, jitter_sigma=0.0))
        assert other.get("a") == b"shared"
        assert other.latency_model.first_byte_ms == 500.0


class TestTiming:
    def test_timed_get_charges_first_byte_plus_transfer(self, store):
        store.put("a", b"x" * (1024 * 1024))
        batch = store.read_batch([RangeRead("a")]).batch
        assert batch.wait_ms == pytest.approx(50.0)
        assert batch.download_ms == pytest.approx(1000.0, rel=0.01)

    def test_timed_get_range_charges_only_fetched_bytes(self, store):
        store.put("a", b"x" * (2 * 1024 * 1024))
        batch = store.read_batch([RangeRead("a", 0, 1024)]).batch
        assert batch.nbytes == 1024
        assert batch.download_ms < 2.0

    def test_sequential_reads_accumulate_latency(self, store):
        store.put("a", b"x" * 4096)
        requests = [RangeRead("a", i * 10, 10) for i in range(5)]
        # A dependent chain is a loop of one-request batches.
        total = sum(store.read_batch([request]).total_ms for request in requests)
        assert total >= 5 * 50.0
        assert store.metrics.round_trips == 5

    def test_batch_wait_is_single_round_trip(self, store):
        store.put("a", b"x" * 4096)
        requests = [RangeRead("a", i * 10, 10) for i in range(5)]
        batch = store.read_batch(requests, max_concurrency=32).batch
        assert batch.wait_ms == pytest.approx(50.0)
        assert len(batch.requests) == 5

    def test_batch_beyond_concurrency_runs_in_waves(self, store):
        store.put("a", b"x" * 4096)
        requests = [RangeRead("a", i, 1) for i in range(10)]
        batch = store.read_batch(requests, max_concurrency=4).batch
        # 10 requests at concurrency 4 -> 3 waves of first-byte latency.
        assert batch.wait_ms == pytest.approx(150.0)

    def test_batch_is_faster_than_sequential(self, store):
        store.put("a", b"x" * 4096)
        requests = [RangeRead("a", i * 100, 100) for i in range(8)]
        sequential_ms = sum(store.read_batch([request]).total_ms for request in requests)
        assert store.read_batch(requests).total_ms < sequential_ms

    def test_batch_invalid_concurrency_rejected(self, store):
        store.put("a", b"1234")
        with pytest.raises(ValueError):
            store.read_batch([RangeRead("a", 0, 1)], max_concurrency=0)

    def test_empty_batch(self, store):
        result = store.read_batch([])
        assert result.payloads == []
        assert result.total_ms == 0.0


class TestMetricsRecording:
    def test_requests_are_recorded(self, store):
        store.put("a", b"12345")
        store.get("a")
        store.get_range("a", 0, 2)
        assert store.metrics.request_count == 2
        assert store.metrics.round_trips == 2
        assert store.metrics.total_bytes == 7

    def test_batch_counts_one_round_trip(self, store):
        store.put("a", b"x" * 100)
        store.read_batch([RangeRead("a", 0, 10), RangeRead("a", 10, 10)])
        assert store.metrics.round_trips == 1
        assert store.metrics.request_count == 2

    def test_metrics_reset(self, store):
        store.put("a", b"abc")
        store.get("a")
        store.metrics.reset()
        assert store.metrics.request_count == 0
        assert store.metrics.total_bytes == 0

    def test_recording_keeps_no_per_request_state(self, store):
        """50 000 batched reads: five running totals, nothing per request."""
        store.put("a", bytes(64))
        requests = [RangeRead("a", offset, 4) for offset in range(0, 40, 4)]
        expected = {"wait": 0.0, "download": 0.0}
        for _ in range(5_000):
            batch = store.read_batch(requests).batch
            expected["wait"] += sum(record.wait_ms for record in batch.requests)
            expected["download"] += sum(record.download_ms for record in batch.requests)
        metrics = store.metrics
        assert metrics.request_count == 50_000
        assert metrics.round_trips == 5_000
        assert metrics.total_bytes == 200_000
        assert metrics.total_wait_ms == pytest.approx(expected["wait"])
        assert metrics.total_download_ms == pytest.approx(expected["download"])
        # Nothing on the metrics object grew with the traffic.
        assert not hasattr(metrics, "records")
        assert not any(
            isinstance(value, (list, tuple, dict, set)) and len(value) > 16
            for value in vars(metrics).values()
        )

    def test_put_does_not_count_as_request(self, store):
        store.put("a", b"abc")
        assert store.metrics.request_count == 0
