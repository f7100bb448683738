"""Unit tests for ``ObjectStore.read_batch`` and the store-owned fetch pool,
and the rule that decides between them.

A batch runs inline while the store's reads are measured to be fast, so the
tests of the pool itself run over :class:`~harness.stores.BlockingStore`,
whose reads wait.
"""

import os
import sys
import threading
import time

import pytest
from harness.stores import (
    BlockingStore,
    assert_no_fetch_threads,
    fetch_threads,
    passes_in_forked_child,
)

from repro.storage.base import BlobNotFoundError, RangeRead, TransientStoreError
from repro.storage.latency import AffineLatencyModel
from repro.storage.memory import InMemoryObjectStore
from repro.storage.parallel import FAST_RUN, FetchPool
from repro.storage.simulated import SimulatedCloudStore


def _waiting_store(delay_s: float = 0.005, data: bytes = b"0123456789") -> BlockingStore:
    """A store holding blob ``b`` whose reads wait ``delay_s``, already measured slow.

    Its first read is the inline probe every never-measured store makes; from
    then on its batches go to the pool whole.
    """
    store = BlockingStore(InMemoryObjectStore(), delay_s)
    store.put("b", data)
    store.read_batch([RangeRead("b", 0, 1)])
    assert store.pooled_reads() == 0
    return store


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
        assert result.wait_ms == pytest.approx(50.0)

    def test_invalid_concurrency_rejected(self, store):
        with pytest.raises(ValueError):
            store.read_batch([RangeRead("blob", 0, 1)], max_concurrency=0)
        with pytest.raises(ValueError):
            InMemoryObjectStore().read_batch([], max_concurrency=0)

    def test_plain_backend_uses_thread_pool(self):
        backend = _waiting_store()
        result = backend.read_batch([RangeRead("b", 0, 5), RangeRead("b", 5, 5)])
        assert result.payloads == [b"01234", b"56789"]
        assert result.total_ms == 0.0
        assert (result.requests, result.nbytes) == (2, 10)
        assert fetch_threads()
        backend.close()


class TestLifecycle:
    def _plain_store(self) -> BlockingStore:
        return _waiting_store()

    @staticmethod
    def _pool(store: BlockingStore) -> FetchPool:
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
        inherited = self._pool(store)._pool
        pooled = store.pooled_reads()
        # The inherited executor has no threads in the child.
        assert passes_in_forked_child(
            lambda: store.read_batch([RangeRead("b", 2, 3), RangeRead("b", 0, 2)]).payloads
            == [b"234", b"01"]
            and self._pool(store)._pool not in (None, inherited)
            and store.pooled_reads() == pooled + 2
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

        store = BlockingStore(LocalObjectStore(tmp_path / "bucket"))
        store.put("corpora/logs.txt", b"error one\ninfo two\nerror three\nwarn four")
        service = AirphantService(store)
        service.build_index(
            "logs",
            ["corpora/logs.txt"],
            sketch_config=SketchConfig(num_bins=64),
            num_shards=2,
        )
        assert service.search(SearchRequest(query="error", index="logs")).num_results == 2
        # Exercise the store-level batch path too (the sharded header).
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
        backend = _waiting_store()
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
        assert store.read_batch(requests, max_concurrency=64).wait_ms == pytest.approx(50.0)
        assert store.read_batch(requests, max_concurrency=2).wait_ms == pytest.approx(
            24 * 50.0
        )

    def test_batches_survive_pool_swaps_and_closes(self):
        """Many threads widening and closing the pool under each other's batches."""
        backend = _waiting_store(data=bytes(range(64)))
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


class TestInlineRule:
    """A batch needs threads only when the store's reads wait."""

    def test_a_fast_store_reads_inline_and_starts_no_thread(self):
        store = BlockingStore(InMemoryObjectStore(), delay_s=0.0)
        store.put("b", bytes(range(64)))
        for width in (1, 4, 32):
            requests = [RangeRead("b", i, 4) for i in range(40)]
            assert store.read_batch(requests, max_concurrency=width).payloads == [
                bytes(range(i, i + 4)) for i in range(40)
            ]
        assert store.pooled_reads() == 0
        assert store.__dict__["_fetch_pool"].width == 0  # no executor was ever built

    def test_a_waiting_store_has_the_whole_batch_in_flight(self):
        store = _waiting_store(data=bytes(range(64)))
        requests = [RangeRead("b", i, 4) for i in range(16)]
        store.read_batch(requests, max_concurrency=16)  # starts the 16 workers
        store.max_inflight = 0
        # The best of three batches, so that one scheduler stall on a busy
        # box does not read as a serialised wave.
        elapsed = []
        for _ in range(3):
            started = time.perf_counter()
            result = store.read_batch(requests, max_concurrency=16)
            elapsed.append(time.perf_counter() - started)
            assert result.payloads == [bytes(range(i, i + 4)) for i in range(16)]
        assert store.max_inflight == 16
        assert store.pooled_reads() == 16 * 4
        assert min(elapsed) < 3 * 0.005
        store.close()

    def test_a_never_measured_waiting_store_probes_one_read_inline(self):
        store = BlockingStore(InMemoryObjectStore(), delay_s=0.05)
        store.put("b", bytes(range(64)))
        requests = [RangeRead("b", i, 4) for i in range(8)]
        started = time.perf_counter()
        assert store.read_batch(requests, max_concurrency=8).payloads == [
            bytes(range(i, i + 4)) for i in range(8)
        ]
        elapsed = time.perf_counter() - started
        assert store.read_threads[0] == threading.current_thread().name
        assert store.pooled_reads() == 7 and store.max_inflight == 7
        assert elapsed < 3 * 0.05  # the probe, then one overlapped wave
        store.close()

    def test_a_store_turning_slow_runs_one_read_serially_then_overlaps(self):
        store = BlockingStore(InMemoryObjectStore(), delay_s=0.0)
        store.put("b", bytes(range(64)))
        requests = [RangeRead("b", i, 4) for i in range(8)]
        for _ in range(5):
            store.read_batch(requests, max_concurrency=8)
        assert store.pooled_reads() == 0
        store.delay_s = 0.05
        before = len(store.read_threads)
        started = time.perf_counter()
        assert store.read_batch(requests, max_concurrency=8).payloads == [
            bytes(range(i, i + 4)) for i in range(8)
        ]
        elapsed = time.perf_counter() - started
        this_batch = store.read_threads[before:]
        caller = threading.current_thread().name
        assert this_batch[0] == caller
        assert all(name.startswith("airphant-fetch") for name in this_batch[1:])
        assert store.max_inflight == 7
        assert elapsed < 3 * 0.05  # one serial read, then one overlapped wave
        # Latency-bound now: the next batch is on the pool from its first read.
        before = len(store.read_threads)
        store.read_batch(requests, max_concurrency=8)
        assert caller not in store.read_threads[before:]
        store.close()

    def test_a_store_turning_fast_runs_inline_after_a_run_of_fast_reads(self):
        store = _waiting_store()  # latency-bound
        store.delay_s = 0.0
        caller = threading.current_thread().name
        # One worker, so no other worker can take the interpreter mid-read.
        store.read_batch([RangeRead("b", 0, 1)] * (FAST_RUN - 1), max_concurrency=1)
        store.read_batch([RangeRead("b", 1, 1)], max_concurrency=1)
        assert store.pooled_reads() == FAST_RUN  # one short of the run, then the last
        before = len(store.read_threads)
        assert store.read_batch([RangeRead("b", 2, 1)] * 4).payloads == [b"2"] * 4
        assert store.read_threads[before:] == [caller] * 4
        store.close()

    def test_free_misses_do_not_bring_a_store_with_slow_hits_back_inline(self):
        """Misses answered at once, hits that wait: averaged over a batch of 40
        misses and one hit the reads look fast, yet after the first slow hit
        no batch runs inline."""
        store = BlockingStore(InMemoryObjectStore())
        store.put("b", bytes(range(64)))
        misses = [RangeRead(f"missing-{i}", optional=True) for i in range(40)]
        for round_number in range(12):
            batch = list(misses)
            # Round 0 leads with the hit, so the never-measured store's
            # inline probe is the first slow hit.
            batch.insert(round_number * 7 % 41, RangeRead("b", round_number, 4))
            payloads = store.read_batch(batch, max_concurrency=32).payloads
            assert [payload for payload in payloads if payload is not None] == [
                bytes(range(round_number, round_number + 4))
            ]
            if round_number % 3 == 2:
                store.read_batch(misses[:10])  # an all-miss batch in between
        assert len(store.read_threads) == 12 * 41 + 4 * 10
        assert store.read_threads[0] == threading.current_thread().name
        assert store.pooled_reads() == len(store.read_threads) - 1
        store.close()

    def test_concurrent_batches_lose_no_slow_read(self):
        """Eight client threads batch against a store whose every read waits,
        with the interpreter switching threads every microsecond: the record
        of recent reads the workers share loses no slow read, so no read runs
        inline after a client's first."""
        store = BlockingStore(InMemoryObjectStore())
        store.put("b", bytes(range(64)))
        requests = [RangeRead("b", i, 4) for i in range(8)]
        expected = [bytes(range(i, i + 4)) for i in range(8)]
        failures: list[BaseException] = []

        def client() -> None:
            try:
                for _ in range(20):
                    assert store.read_batch(requests, max_concurrency=16).payloads == expected
            except BaseException as error:  # noqa: BLE001 - reported below
                failures.append(error)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            clients = [threading.Thread(target=client, name=f"client-{n}") for n in range(8)]
            for thread in clients:
                thread.start()
            for thread in clients:
                thread.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in clients)
        assert not failures
        inline = [name for name in store.read_threads if name.startswith("client-")]
        assert len(inline) == len(set(inline)) <= 8  # at most each client's first read
        assert len(store.read_threads) == 8 * 20 * 8
        store.close()

    def test_a_forked_child_of_a_fast_store_reads_inline(self):
        store = BlockingStore(InMemoryObjectStore(), delay_s=0.0)
        store.put("b", b"0123456789")
        assert store.read_batch([RangeRead("b", 0, 5), RangeRead("b", 5, 5)]).payloads == [
            b"01234",
            b"56789",
        ]
        assert passes_in_forked_child(
            lambda: store.read_batch([RangeRead("b", 2, 3), RangeRead("b", 0, 2)]).payloads
            == [b"234", b"01"]
            and store.pooled_reads() == 0
            and store.__dict__["_fetch_pool"]._pool is None
        )
        assert store.pooled_reads() == 0
        assert store.__dict__["_fetch_pool"].width == 0


class _BrokenBackend(InMemoryObjectStore):
    """Blob ``broken`` fails with one particular error instance."""

    error = TransientStoreError("backend down")

    def get_range(self, name, offset, length=None):
        if name == "broken":
            raise self.error
        return super().get_range(name, offset, length)


@pytest.fixture(params=["inline", "pooled"])
def either_path(request):
    """A store of each kind of read: fast (inline) or waiting (pooled)."""
    store = BlockingStore(_BrokenBackend(), delay_s=0.0 if request.param == "inline" else 0.005)
    store.put("b", b"0123456789")
    store.put("broken", b"")
    store.read_batch([RangeRead("b", 0, 1)])  # the probe
    probed = len(store.read_threads)
    yield store
    batched = store.read_threads[probed:]
    assert batched, "the test issued no batch"
    if request.param == "inline":
        assert store.pooled_reads() == 0
    else:
        assert all(name.startswith("airphant-fetch") for name in batched)
    store.close()
    assert_no_fetch_threads()


class TestParityAcrossPaths:
    """Inline or pooled, a batch means the same thing."""

    def test_results_in_request_order_with_optional_misses(self, either_path):
        requests = [
            RangeRead("no/such", optional=True),
            RangeRead("b", 5, 5),
            RangeRead("b", 0, 2, optional=True),
            RangeRead("gone", 3, 1, optional=True),
            RangeRead("b", 8),
        ]
        result = either_path.read_batch(requests, max_concurrency=4)
        assert result.payloads == [None, b"56789", b"01", None, b"89"]
        assert (result.requests, result.nbytes) == (5, 9)
        assert result.total_ms == 0.0

    def test_a_required_miss_raises_blob_not_found(self, either_path):
        with pytest.raises(BlobNotFoundError) as caught:
            either_path.read_batch(
                [RangeRead("b", 0, 1), RangeRead("no/such", optional=True), RangeRead("absent")]
            )
        assert type(caught.value) is BlobNotFoundError
        assert caught.value.name == "absent"

    def test_a_store_error_propagates_unchanged(self, either_path):
        with pytest.raises(TransientStoreError) as caught:
            either_path.read_batch([RangeRead("b", 0, 1), RangeRead("broken")])
        assert caught.value is _BrokenBackend.error
        # The failed batch poisons nothing.
        assert either_path.read_batch([RangeRead("b", 1, 2)]).payloads == [b"12"]
