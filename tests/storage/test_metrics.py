"""Unit tests for a wave's cost record and the simulated store's totals."""

from repro.storage.metrics import StorageMetrics
from repro.storage.parallel import FetchResult


class TestFetchResult:
    def test_total_is_wait_plus_download(self):
        fetch = FetchResult(requests=1, nbytes=10, wait_ms=40.0, download_ms=2.5)
        assert fetch.total_ms == 42.5

    def test_a_wave_is_charged_once(self):
        fetch = FetchResult(
            payloads=[b"a" * 10, b"b" * 30], requests=2, nbytes=40, wait_ms=1.0, download_ms=0.4
        )
        assert fetch.nbytes == 40
        assert fetch.total_ms == 1.4

    def test_empty_wave(self):
        fetch = FetchResult()
        assert (fetch.payloads, fetch.requests, fetch.nbytes) == ([], 0, 0)
        assert fetch.total_ms == 0.0


class TestStorageMetrics:
    def test_record_accumulates(self):
        metrics = StorageMetrics()
        metrics.record(FetchResult(requests=1, nbytes=5, wait_ms=10.0, download_ms=1.0))
        metrics.record(FetchResult(requests=1, nbytes=15, wait_ms=20.0, download_ms=2.0))
        assert metrics.request_count == 2
        assert metrics.round_trips == 2
        assert metrics.total_bytes == 20
        assert metrics.total_wait_ms == 30.0
        assert metrics.total_download_ms == 3.0

    def test_a_wave_counts_a_single_round_trip(self):
        metrics = StorageMetrics()
        metrics.record(FetchResult(requests=2, nbytes=10, wait_ms=12.0, download_ms=2.0))
        assert metrics.round_trips == 1
        assert metrics.request_count == 2
        assert (metrics.total_wait_ms, metrics.total_download_ms) == (12.0, 2.0)

    def test_reset_clears_everything(self):
        metrics = StorageMetrics()
        metrics.record(FetchResult(requests=1, nbytes=5, wait_ms=10.0, download_ms=1.0))
        metrics.reset()
        assert metrics.to_dict() == dict.fromkeys(
            ["request_count", "round_trips", "total_bytes", "total_wait_ms", "total_download_ms"],
            0,
        )
