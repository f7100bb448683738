"""Thread-safety of the stats objects mutated from pool threads.

``PipelineStats`` and ``ResilienceStats`` are updated by fetcher workers,
hedge-pool workers, and HTTP server threads simultaneously.  These tests
hammer both the raw :meth:`add` path and the real components under heavy
thread contention and assert the counts are *exact* — a lost update shows
up as an off-by-N immediately.
"""

from __future__ import annotations

import threading

from harness.stores import CountingStore

from repro.observability import MetricsRegistry
from repro.storage.base import RangeRead, TransientStoreError
from repro.storage.faults import FlakyStore
from repro.storage.memory import InMemoryObjectStore
from repro.storage.pipeline import PipelineStats, ReadPipeline
from repro.storage.resilient import ResilientStore
from repro.storage.resilient import RetriesExhaustedError


def _hammer(worker, threads: int) -> None:
    pool = [threading.Thread(target=worker) for _ in range(threads)]
    for thread in pool:
        thread.start()
    for thread in pool:
        thread.join()


class TestRawAddAtomicity:
    def test_pipeline_stats_add_loses_no_updates(self):
        registry = MetricsRegistry()
        stats = PipelineStats().bind(registry)
        threads, iterations = 8, 5_000

        def worker():
            for _ in range(iterations):
                stats.add(requests_in=3, requests_out=1, bytes_fetched=10)

        _hammer(worker, threads)
        assert stats.requests_in == 3 * threads * iterations
        assert stats.requests_out == threads * iterations
        assert stats.bytes_fetched == 10 * threads * iterations
        assert (
            registry.counter("airphant_pipeline_logical_requests_total").value()
            == stats.requests_in
        )

    def test_resilience_stats_add_loses_no_updates(self):
        registry = MetricsRegistry()
        stats = ResilientStore(InMemoryObjectStore(), metrics=registry).stats
        threads, iterations = 8, 5_000

        def worker():
            for _ in range(iterations):
                stats.add(attempts=1, retries=1)

        _hammer(worker, threads)
        assert stats.attempts == threads * iterations
        assert stats.retries == threads * iterations
        assert (
            registry.counter("airphant_resilience_attempts_total").value()
            == stats.attempts
        )


class TestConcurrentComponents:
    def test_concurrent_pipeline_fetches_account_exactly(self):
        base = InMemoryObjectStore()
        base.put("blob", bytes(i % 251 for i in range(4096)))
        counting = CountingStore(base)
        pipeline = ReadPipeline(
            counting, max_concurrency=8, cache_bytes=0, metrics=MetricsRegistry()
        )
        threads, batches_per_thread, batch_size = 8, 40, 5

        def worker():
            for i in range(batches_per_thread):
                requests = [
                    RangeRead("blob", (i * 64 + j * 16) % 4000, 16)
                    for j in range(batch_size)
                ]
                payloads = pipeline.fetch(requests).payloads
                assert [len(p) for p in payloads] == [16] * batch_size

        _hammer(worker, threads)
        stats = pipeline.stats.snapshot()
        assert stats["requests_in"] == threads * batches_per_thread * batch_size
        assert stats["batches"] == threads * batches_per_thread
        # Physical accounting matches what the store actually served, even
        # with every batch planned and committed from a different thread.
        assert stats["requests_out"] == counting.read_calls
        assert stats["bytes_fetched"] == counting.bytes_returned
        assert stats["cache_hits"] + stats["cache_misses"] == stats["requests_in"]
        counting.close()

    def test_concurrent_resilient_reads_account_exactly(self):
        base = InMemoryObjectStore()
        base.put("blob", b"x" * 512)
        flaky = FlakyStore(base, error_rate=0.2, seed=11)
        store = ResilientStore(
            flaky, retries=4, backoff_ms=0.05, backoff_jitter=0.0, metrics=MetricsRegistry()
        )
        threads, reads_per_thread = 16, 60
        failures = []

        def worker():
            for i in range(reads_per_thread):
                try:
                    assert store.get_range("blob", i % 256, 8) == b"x" * 8
                except RetriesExhaustedError:
                    failures.append(1)

        _hammer(worker, threads)
        stats = store.stats
        total = threads * reads_per_thread
        assert stats.operations == total
        # The defining identities hold exactly under contention: every
        # operation's first attempt plus every retry, no lost updates.
        assert stats.attempts == stats.operations + stats.retries
        assert stats.failures == len(failures)
        assert stats.recoveries <= stats.retries
        assert flaky.injected_errors == stats.attempts - (total - stats.failures)
        store.close()

    def test_fetcher_pool_reads_through_resilient_store_stay_consistent(self):
        """The full stack: fetch pool -> resilient wrapper -> flaky store."""
        base = InMemoryObjectStore()
        base.put("blob", bytes(range(256)))
        flaky = FlakyStore(base, error_rate=0.15, seed=5)
        store = ResilientStore(
            flaky, retries=5, backoff_ms=0.05, backoff_jitter=0.0, metrics=MetricsRegistry()
        )
        for _ in range(20):
            result = store.read_batch(
                [RangeRead("blob", i * 8, 8) for i in range(16)], max_concurrency=8
            )
            assert result.payloads == [bytes(range(i * 8, i * 8 + 8)) for i in range(16)]
        assert store.stats.operations == 20 * 16
        assert store.stats.attempts == store.stats.operations + store.stats.retries
        assert store.stats.failures == 0
        store.close()

    def test_transient_error_type_is_what_flaky_injects(self):
        flaky = FlakyStore(InMemoryObjectStore(), error_rate=1.0)
        flaky.backend.put("blob", b"x")
        try:
            flaky.get("blob")
        except TransientStoreError:
            pass
        else:  # pragma: no cover - defends the fixture's assumption
            raise AssertionError("FlakyStore should raise TransientStoreError")
