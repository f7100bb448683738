"""One contract, every store: ``read_batch`` is the timed batch-read seam.

Parametrised over every :class:`~repro.storage.base.ObjectStore` in the tree
— the three local backends, the two wrappers, the two socket backends
(against ``harness/s3_emulator.py``) and a bare pass-through subclass that
defines ``__init__`` without calling ``super().__init__()`` the way the
``perfbench/`` and ``harness`` wrappers do.  Whatever the store, a batch
returns what per-request ``get_range`` returns, in request order; errors come
through untouched; and the pool behind it is the store's to close, rebuild
and fork.
"""

from __future__ import annotations

import pytest
from harness.stores import assert_no_fetch_threads, fetch_threads, passes_in_forked_child

from repro.storage.base import BlobNotFoundError, ObjectStore, RangeRead
from repro.storage.faults import FlakyStore
from repro.storage.httpstore import HTTPRangeStore
from repro.storage.local import LocalObjectStore
from repro.storage.memory import InMemoryObjectStore
from repro.storage.parallel import FetchResult
from repro.storage.resilient import ResilientStore
from repro.storage.s3 import S3ObjectStore
from repro.storage.simulated import SimulatedCloudStore

BLOBS = {
    "dir/blob.bin": bytes(range(256)) * 4,
    "other.bin": bytes(reversed(range(200))),
}

REQUESTS = [
    RangeRead("dir/blob.bin", 0, 16),
    RangeRead("other.bin", 10, 5),
    RangeRead("dir/blob.bin", 1000, 100),  # truncated at end-of-blob
    RangeRead("dir/blob.bin", 8, 16),  # overlaps the first
    RangeRead("other.bin"),  # the whole blob
    RangeRead("dir/blob.bin", 900),  # open-ended
    RangeRead("dir/blob.bin", 0, 16),  # an exact repeat
    RangeRead("other.bin", 500, 4),  # entirely past the end
    RangeRead("other.bin", 3, 0),  # zero-length
]


class BarePassThrough(ObjectStore):
    """A wrapper that never runs ``ObjectStore.__init__`` (there is none to run)."""

    def __init__(self, inner: ObjectStore) -> None:
        self._inner = inner

    def put(self, name: str, data: bytes) -> None:
        self._inner.put(name, data)

    def get(self, name: str) -> bytes:
        return self._inner.get(name)

    def get_range(self, name: str, offset: int, length: int | None = None) -> bytes:
        return self._inner.get_range(name, offset, length)

    def size(self, name: str) -> int:
        return self._inner.size(name)

    def exists(self, name: str) -> bool:
        return self._inner.exists(name)

    def delete(self, name: str) -> None:
        self._inner.delete(name)

    def list_blobs(self, prefix: str = "") -> list[str]:
        return self._inner.list_blobs(prefix)


STORE_KINDS = [
    "memory",
    "file",
    "simulated",
    "resilient",
    "flaky",
    "http",
    "s3",
    "bare-pass-through",
]


@pytest.fixture(params=STORE_KINDS)
def store(request, tmp_path):
    kind = request.param
    if kind in ("http", "s3"):  # only these pay for starting the emulator
        s3_emulator = request.getfixturevalue("s3_emulator")
    if kind == "memory":
        built: ObjectStore = InMemoryObjectStore()
    elif kind == "file":
        built = LocalObjectStore(tmp_path / "bucket")
    elif kind == "simulated":
        built = SimulatedCloudStore()
    elif kind == "resilient":
        built = ResilientStore(InMemoryObjectStore(), retries=1, hedge_ms=50.0)
    elif kind == "flaky":
        built = FlakyStore(InMemoryObjectStore())
    elif kind == "s3":
        built = S3ObjectStore(s3_emulator.bucket, endpoint=s3_emulator.endpoint, credentials=None)
    elif kind == "http":
        built = HTTPRangeStore(f"{s3_emulator.endpoint}/{s3_emulator.bucket}", timeout_s=5.0)
    else:
        built = BarePassThrough(InMemoryObjectStore())
    for name, data in BLOBS.items():
        built.put(name, data)
    yield built
    built.close()
    assert_no_fetch_threads()


def test_batch_payloads_equal_per_request_get_range_in_request_order(store):
    expected = [store.get_range(r.blob, r.offset, r.length) for r in REQUESTS]
    result = store.read_batch(REQUESTS, max_concurrency=4)
    assert isinstance(result, FetchResult)
    assert result.payloads == expected
    assert [record.blob for record in result.batch.requests] == [r.blob for r in REQUESTS]
    assert result.batch.nbytes == sum(len(payload) for payload in expected)
    assert result.total_ms == result.batch.wait_ms + result.batch.download_ms


def test_whole_blob_requests_work(store):
    result = store.read_batch([RangeRead(name) for name in BLOBS])
    assert result.payloads == list(BLOBS.values())
    # A dependent chain is a loop of one-request batches.
    assert [store.read_batch([RangeRead(name)]).payloads[0] for name in BLOBS] == list(
        BLOBS.values()
    )


def test_required_returns_at_least_that_many_payloads(store):
    result = store.read_batch(REQUESTS[:6], required=4)
    kept = [payload for payload in result.payloads if payload is not None]
    assert len(result.payloads) == 6
    assert len(kept) >= 4
    for request, payload in zip(REQUESTS, result.payloads):
        if payload is not None:
            assert payload == store.get_range(request.blob, request.offset, request.length)
    with pytest.raises(ValueError):
        store.read_batch(REQUESTS, required=0)
    with pytest.raises(ValueError):
        store.read_batch(REQUESTS, max_concurrency=0)


def test_empty_batch(store):
    result = store.read_batch([])
    assert result.payloads == []
    assert result.batch.requests == ()
    assert result.total_ms == 0.0
    assert not fetch_threads()  # nothing to read, nothing started


def test_blob_not_found_propagates_untouched(store):
    with pytest.raises(BlobNotFoundError) as caught:
        store.read_batch([RangeRead("dir/blob.bin", 0, 4), RangeRead("no/such/blob", 0, 4)])
    assert caught.value.name == "no/such/blob"
    assert type(caught.value) is BlobNotFoundError
    # The failed batch poisons nothing.
    assert store.read_batch([RangeRead("dir/blob.bin", 0, 4)]).payloads == [bytes(range(4))]


def test_close_is_idempotent_non_poisoning_and_leaves_no_thread(store):
    store.close()  # before any batch
    store.read_batch(REQUESTS, max_concurrency=3)
    store.close()
    store.close()
    assert_no_fetch_threads()
    assert store.read_batch(REQUESTS[:2]).payloads == [bytes(range(16)), BLOBS["other.bin"][10:15]]
    store.close()
    assert_no_fetch_threads()


def test_a_forked_child_builds_a_fresh_pool(store):
    store.read_batch(REQUESTS, max_concurrency=4)  # the parent's pool is live
    expected = [store.get_range(r.blob, r.offset, r.length) for r in REQUESTS]
    # The child inherits executors whose threads stayed in the parent.
    assert passes_in_forked_child(
        lambda: store.read_batch(REQUESTS, max_concurrency=4).payloads == expected
    )
    # The parent's pool is untouched by the child's coming and going.
    assert store.read_batch(REQUESTS, max_concurrency=4).payloads == expected


# -- optional reads: a missing blob is an answer --------------------------------------


def test_an_optional_miss_is_none_in_request_order_and_zero_bytes(store):
    requests = [
        RangeRead("no/such/blob", optional=True),
        RangeRead("dir/blob.bin", 0, 16, optional=True),
        RangeRead("other.bin", 10, 5),
        RangeRead("also/missing", 4, 4, optional=True),
    ]
    result = store.read_batch(requests, max_concurrency=4)
    assert result.payloads == [None, bytes(range(16)), BLOBS["other.bin"][10:15], None]
    assert [record.blob for record in result.batch.requests] == [r.blob for r in requests]
    assert [record.nbytes for record in result.batch.requests] == [0, 16, 5, 0]
    assert result.batch.nbytes == 21
    assert store.read(requests[0]) is None
    assert store.read(requests[1]) == bytes(range(16))


def test_a_required_miss_still_raises_beside_optional_ones(store):
    with pytest.raises(BlobNotFoundError) as caught:
        store.read_batch(
            [RangeRead("no/such/blob", optional=True), RangeRead("not/there/either", 0, 4)]
        )
    assert caught.value.name == "not/there/either"
    assert type(caught.value) is BlobNotFoundError
    with pytest.raises(BlobNotFoundError):
        store.read(RangeRead("no/such/blob"))


def test_an_optional_miss_is_an_answer_to_the_resilience_layer():
    """No retry, no hedge, no failure counted: the store answered, the answer was "no"."""
    slept: list[float] = []
    resilient = ResilientStore(
        InMemoryObjectStore(), retries=3, hedge_ms=1.0, timeout_s=5.0, sleep=slept.append
    )
    resilient.put("there", b"payload")
    try:
        for _ in range(20):  # enough samples for the adaptive hedge delay to engage
            result = resilient.read_batch(
                [RangeRead("missing", optional=True), RangeRead("there")]
            )
            assert result.payloads == [None, b"payload"]
        stats = resilient.stats
        assert stats.operations == stats.attempts == 1 + 40  # the put, then the reads
        assert (stats.retries, stats.failures, stats.timeouts, stats.hedges) == (0, 0, 0, 0)
        assert slept == []
    finally:
        resilient.close()


def test_the_simulator_charges_a_missed_probe_a_first_byte_wait_and_no_bytes():
    simulated = SimulatedCloudStore()
    simulated.put("there", b"x" * 1000)
    result = simulated.read_batch([RangeRead("missing", optional=True), RangeRead("there")])
    missed, hit = result.batch.requests
    assert missed.wait_ms > 0 and missed.download_ms == 0 and missed.nbytes == 0
    assert hit.nbytes == 1000 and hit.download_ms > 0
    assert simulated.metrics.request_count == 2 and simulated.metrics.total_bytes == 1000
    assert result.total_ms >= max(missed.wait_ms, hit.wait_ms)


def test_the_read_pipeline_passes_optional_reads_through_uncached():
    """A ranked lookup wave carries "missing is an answer" stats reads: they
    pass through uncoalesced, a miss is ``None``, and nothing is cached for it."""
    from repro.storage.pipeline import ReadPipeline

    backend = InMemoryObjectStore()
    backend.put("there", b"payload")
    pipeline = ReadPipeline(backend, 4, max_gap=0, cache_bytes=1 << 16)
    requests = [
        RangeRead("there", 0, 4),
        RangeRead("missing", optional=True),
        RangeRead("there", 4, 3),
        RangeRead("there", optional=True),
        RangeRead("missing", 0, 4, optional=True),
    ]
    fetch = pipeline.fetch(requests)
    assert fetch.payloads == [b"payl", None, b"oad", b"payload", None]
    stats = pipeline.stats
    assert (stats.requests_in, stats.requests_out) == (5, 4)  # the two bounded reads merge
    assert stats.bytes_fetched == 7 + 7
    assert pipeline.fetch([RangeRead("missing", 0, 4, optional=True)]).payloads == [None]
    assert pipeline.cached_bytes == 7  # the merged bounded run only
    backend.close()
