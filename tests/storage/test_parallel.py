"""Unit tests for ``ObjectStore.read_batch`` and the store-owned fetch pool
(including hedged batches)."""

import os
import threading

import pytest
from harness.stores import assert_no_fetch_threads, fetch_threads, passes_in_forked_child

from repro.storage.base import RangeRead
from repro.storage.latency import AffineLatencyModel
from repro.storage.memory import InMemoryObjectStore
from repro.storage.parallel import FetchPool
from repro.storage.simulated import SimulatedCloudStore


@pytest.fixture
def store() -> SimulatedCloudStore:
    model = AffineLatencyModel(first_byte_ms=50.0, jitter_sigma=0.0)
    store = SimulatedCloudStore(latency_model=model)
    store.put("blob", bytes(range(256)) * 16)
    return store


class TestFetch:
    def test_payloads_match_requests(self, store):
        requests = [RangeRead("blob", 0, 4), RangeRead("blob", 4, 4)]
        result = store.read_batch(requests)
        assert result.payloads == [bytes([0, 1, 2, 3]), bytes([4, 5, 6, 7])]

    def test_empty_fetch(self, store):
        result = store.read_batch([])
        assert result.payloads == []
        assert result.total_ms == 0.0

    def test_batch_latency_is_one_round_trip(self, store):
        requests = [RangeRead("blob", i, 8) for i in range(16)]
        result = store.read_batch(requests, max_concurrency=32)
        assert result.batch.wait_ms == pytest.approx(50.0)

    def test_invalid_concurrency_rejected(self, store):
        with pytest.raises(ValueError):
            store.read_batch([RangeRead("blob", 0, 1)], max_concurrency=0)
        with pytest.raises(ValueError):
            InMemoryObjectStore().read_batch([], max_concurrency=0)

    def test_plain_backend_uses_thread_pool(self):
        backend = InMemoryObjectStore()
        backend.put("b", b"0123456789")
        result = backend.read_batch([RangeRead("b", 0, 5), RangeRead("b", 5, 5)])
        assert result.payloads == [b"01234", b"56789"]
        assert result.total_ms == 0.0
        assert [record.nbytes for record in result.batch.requests] == [5, 5]
        assert fetch_threads()
        backend.close()


class TestHedgedFetch:
    def _straggler_store(self) -> SimulatedCloudStore:
        model = AffineLatencyModel(
            first_byte_ms=50.0,
            jitter_sigma=0.0,
            straggler_probability=0.5,
            straggler_multiplier=20.0,
            seed=9,
        )
        store = SimulatedCloudStore(latency_model=model)
        store.put("blob", bytes(1000))
        return store

    def test_hedged_fetch_drops_slowest_requests(self):
        store = self._straggler_store()
        requests = [RangeRead("blob", i * 10, 10) for i in range(6)]
        result = store.read_batch(requests, required=4)
        dropped = sum(1 for payload in result.payloads if payload is None)
        assert dropped == 2
        assert len(result.batch.requests) == 4

    def test_hedged_latency_not_worse_than_waiting_for_all(self):
        store = self._straggler_store()
        requests = [RangeRead("blob", i * 10, 10) for i in range(6)]
        hedged = store.read_batch(requests, required=3)
        full = self._straggler_store().read_batch(requests)
        assert hedged.total_ms <= full.total_ms + 1e-9

    def test_required_larger_than_requests_keeps_everything(self, store):
        requests = [RangeRead("blob", 0, 4), RangeRead("blob", 4, 4)]
        result = store.read_batch(requests, required=10)
        assert all(payload is not None for payload in result.payloads)

    def test_required_must_be_positive(self, store):
        with pytest.raises(ValueError):
            store.read_batch([RangeRead("blob", 0, 1)], required=0)
        with pytest.raises(ValueError):
            InMemoryObjectStore().read_batch([RangeRead("blob", 0, 1)], required=0)

    def test_hedged_on_plain_backend_waits_for_all(self):
        backend = InMemoryObjectStore()
        backend.put("b", b"0123456789")
        result = backend.read_batch([RangeRead("b", 0, 5), RangeRead("b", 5, 5)], required=1)
        assert result.payloads == [b"01234", b"56789"]
        backend.close()


class TestLifecycle:
    def _plain_store(self) -> InMemoryObjectStore:
        backend = InMemoryObjectStore()
        backend.put("b", b"0123456789")
        return backend

    @staticmethod
    def _pool(store: InMemoryObjectStore) -> FetchPool:
        """The store's lazily attached fetch pool."""
        return store.__dict__["_fetch_pool"]

    def test_double_close_is_a_noop(self):
        store = self._plain_store()
        store.read_batch([RangeRead("b", 0, 5)], max_concurrency=2)
        store.close()
        store.close()  # second close must not raise or hang
        # ...and close does not poison the store: a fresh pool appears.
        assert store.read_batch([RangeRead("b", 0, 5)]).payloads == [b"01234"]
        store.close()

    def test_close_before_any_fetch(self):
        self._plain_store().close()

    def test_close_joins_worker_threads(self):
        store = self._plain_store()
        store.read_batch([RangeRead("b", 0, 5)], max_concurrency=2)
        assert fetch_threads()
        store.close()
        assert_no_fetch_threads()

    def test_close_after_fork_drops_inherited_pool_without_shutdown(self, monkeypatch):
        """Simulated fork: the recorded owner pid no longer matches ours."""
        store = self._plain_store()
        store.read_batch([RangeRead("b", 0, 5)], max_concurrency=2)
        fetch_pool = self._pool(store)
        pool = fetch_pool._pool
        assert pool is not None
        monkeypatch.setattr(fetch_pool, "_pool_pid", os.getpid() + 1)
        store.close()
        # The parent's pool must not have been shut down from the "child".
        assert not pool._shutdown
        assert fetch_pool._pool is None
        pool.shutdown(wait=True)

    def test_fetch_after_fork_builds_a_fresh_pool(self, monkeypatch):
        store = self._plain_store()
        store.read_batch([RangeRead("b", 0, 5)], max_concurrency=2)
        fetch_pool = self._pool(store)
        inherited = fetch_pool._pool
        monkeypatch.setattr(fetch_pool, "_pool_pid", os.getpid() + 1)
        result = store.read_batch([RangeRead("b", 2, 3)], max_concurrency=2)
        assert result.payloads == [b"234"]
        assert fetch_pool._pool is not inherited
        assert not inherited._shutdown  # parent's pool untouched
        store.close()
        inherited.shutdown(wait=True)

    def test_a_real_forked_child_reads_on_a_fresh_pool(self):
        store = self._plain_store()
        store.read_batch([RangeRead("b", 0, 5)], max_concurrency=2)
        # The inherited executor has no threads in the child.
        assert passes_in_forked_child(
            lambda: store.read_batch([RangeRead("b", 2, 3), RangeRead("b", 0, 2)]).payloads
            == [b"234", b"01"]
        )
        # The parent's pool still works after the child came and went.
        assert store.read_batch([RangeRead("b", 0, 1)]).payloads == [b"0"]
        store.close()

    def test_service_close_leaves_no_fetch_threads(self, tmp_path):
        """AirphantService.close() must close the catalog's searchers and
        the store's fetch pool, which every member (sharded ones too) shares."""
        from repro.core.config import SketchConfig
        from repro.service import AirphantService, SearchRequest
        from repro.storage.local import LocalObjectStore

        store = LocalObjectStore(tmp_path / "bucket")
        store.put("corpora/logs.txt", b"error one\ninfo two\nerror three\nwarn four")
        service = AirphantService(store)
        service.build_index(
            "logs",
            ["corpora/logs.txt"],
            sketch_config=SketchConfig(num_bins=64),
            num_shards=2,
        )
        assert service.search(SearchRequest(query="error", index="logs")).num_results == 2
        # Exercise the store-level batch path too (shard headers).
        service.index_info("logs")
        assert fetch_threads()
        assert self._pool(store)._pool is not None
        service.close()
        # Direct evidence close() did the work (not the garbage collector):
        # the store's executor is gone and no catalog searcher remains.
        assert self._pool(store)._pool is None
        assert not service.catalog.is_open("logs")
        assert_no_fetch_threads()
        # Close is non-poisoning: querying again just reopens everything.
        assert service.search(SearchRequest(query="error", index="logs")).num_results == 2
        service.close()
        assert_no_fetch_threads()


class TestPoolWidth:
    """The pool is as wide as the widest ``max_concurrency`` asked for."""

    def test_raises_the_ceiling(self):
        pool = FetchPool()
        assert list(pool.map(4, abs, [-1])) == [1]
        assert list(pool.map(16, abs, [-2])) == [2]
        assert pool.width == 16
        assert pool._pool._max_workers == 16
        pool.close()

    def test_never_shrinks(self):
        pool = FetchPool()
        list(pool.map(16, abs, [-1]))
        wide = pool._pool
        list(pool.map(4, abs, [-1]))
        assert pool._pool is wide
        assert pool.width == 16
        pool.close()
        # Not even across a close: the next executor is as wide as before.
        list(pool.map(2, abs, [-1]))
        assert pool._pool._max_workers == 16
        pool.close()

    def test_existing_pool_is_replaced(self):
        backend = InMemoryObjectStore()
        backend.put("a", b"aa")
        backend.put("b", b"bb")
        backend.read_batch([RangeRead("a")], max_concurrency=2)  # builds the 2-wide pool
        narrow = backend.__dict__["_fetch_pool"]._pool
        result = backend.read_batch([RangeRead("a"), RangeRead("b")], max_concurrency=8)
        assert result.payloads == [b"aa", b"bb"]
        assert backend.__dict__["_fetch_pool"].width == 8
        assert narrow._shutdown
        backend.close()
        assert_no_fetch_threads()

    def test_wide_batch_is_one_concurrency_wave(self, store):
        requests = [RangeRead("blob", i, 8) for i in range(48)]
        # One wave: the batch charges a single 50ms first-byte wait, where
        # a 2-wide batch stacks 24 of them.
        assert store.read_batch(requests, max_concurrency=64).batch.wait_ms == pytest.approx(50.0)
        assert store.read_batch(requests, max_concurrency=2).batch.wait_ms == pytest.approx(
            24 * 50.0
        )

    def test_batches_survive_pool_swaps_and_closes(self):
        """Many threads widening and closing the pool under each other's batches."""
        backend = InMemoryObjectStore()
        backend.put("b", bytes(range(64)))
        requests = [RangeRead("b", i, 4) for i in range(16)]
        expected = [bytes(range(i, i + 4)) for i in range(16)]
        failures: list[BaseException] = []

        def hammer(width: int) -> None:
            try:
                for round_number in range(40):
                    assert backend.read_batch(requests, max_concurrency=width).payloads == expected
                    if round_number % 7 == 0:
                        backend.close()
            except BaseException as error:  # noqa: BLE001 - reported below
                failures.append(error)

        threads = [threading.Thread(target=hammer, args=(width,)) for width in (2, 3, 5, 8, 13, 21)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
        assert not any(thread.is_alive() for thread in threads)
        assert not failures
        backend.close()
        assert_no_fetch_threads()
