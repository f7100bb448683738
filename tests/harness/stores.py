"""Observing store wrappers for exact-traffic assertions.

:class:`CountingStore` wraps any :class:`~repro.storage.base.ObjectStore`
and counts what actually reaches the backend — read calls and bytes
returned — so tests can assert that pipeline/resilience metrics are *exactly
consistent* with observed store traffic, not merely plausible.
:func:`fetch_threads` / :func:`assert_no_fetch_threads` observe the other
thing a store owns: the ``airphant-fetch*`` workers of its ``read_batch``
pool.  :class:`RecordingStore` keeps the ordered ``(method, blob, offset,
length)`` log of every call, for golden call-sequence tests.
:class:`BlockingStore` makes reads wait, so that ``read_batch`` — which runs
a batch inline while a store's reads are measured to be fast — puts them
on its pool.
"""

from __future__ import annotations

import gc
import os
import signal
import threading
import time
from typing import Callable, Iterable

from repro.storage.base import ObjectStore, RangeRead
from repro.storage.parallel import FetchResult


class CountingStore(ObjectStore):
    """Pass-through wrapper counting the reads that reach the backend."""

    def __init__(self, backend: ObjectStore) -> None:
        self._backend = backend
        self._lock = threading.Lock()
        #: get() calls served.
        self.get_calls = 0
        #: get_range() calls served.
        self.range_calls = 0
        #: Total bytes returned across get()/get_range().
        self.bytes_returned = 0

    @property
    def backend(self) -> ObjectStore:
        return self._backend

    @property
    def read_calls(self) -> int:
        """All read calls (whole-object plus range) served."""
        return self.get_calls + self.range_calls

    def reset_counts(self) -> None:
        with self._lock:
            self.get_calls = 0
            self.range_calls = 0
            self.bytes_returned = 0

    # -- ObjectStore interface ---------------------------------------------------

    def put(self, name: str, data: bytes) -> None:
        self._backend.put(name, data)

    def get(self, name: str) -> bytes:
        data = self._backend.get(name)
        with self._lock:
            self.get_calls += 1
            self.bytes_returned += len(data)
        return data

    def get_range(self, name: str, offset: int, length: int | None = None) -> bytes:
        data = self._backend.get_range(name, offset, length)
        with self._lock:
            self.range_calls += 1
            self.bytes_returned += len(data)
        return data

    def size(self, name: str) -> int:
        return self._backend.size(name)

    def exists(self, name: str) -> bool:
        return self._backend.exists(name)

    def delete(self, name: str) -> None:
        self._backend.delete(name)

    def list_blobs(self, prefix: str = "") -> list[str]:
        return self._backend.list_blobs(prefix)

    def close(self) -> None:
        super().close()
        self._backend.close()


class RecordingStore(ObjectStore):
    """Pass-through wrapper logging every call as ``[method, blob, offset, length]``.

    A ``read_batch`` is one ``["read_batch", "", 0, n]`` entry followed by its
    ``n`` requests in request order (the backend then serves the batch
    unrecorded, so pool scheduling never reorders the log); ``length`` is -1
    for an open-ended read.  :attr:`round_trips` counts what a caller waits
    for one after another: every direct call and every batch, once.
    """

    def __init__(self, backend: ObjectStore) -> None:
        self._backend = backend
        self._lock = threading.Lock()
        self.calls: list[list] = []

    @property
    def round_trips(self) -> int:
        return sum(1 for call in self.calls if call[0] != "batch_read")

    def _record(self, method: str, blob: str, offset: int = 0, length: int | None = None) -> None:
        with self._lock:
            self.calls.append([method, blob, offset, -1 if length is None else length])

    def put(self, name: str, data: bytes) -> None:
        self._record("put", name, 0, len(data))
        self._backend.put(name, data)

    def get(self, name: str) -> bytes:
        self._record("get", name)
        return self._backend.get(name)

    def get_range(self, name: str, offset: int, length: int | None = None) -> bytes:
        self._record("get_range", name, offset, length)
        return self._backend.get_range(name, offset, length)

    def read_batch(
        self,
        requests: Iterable[RangeRead],
        max_concurrency: int = 32,
    ) -> FetchResult:
        requests = list(requests)
        with self._lock:
            self.calls.append(["read_batch", "", 0, len(requests)])
            self.calls.extend(
                ["batch_read", r.blob, r.offset, -1 if r.length is None else r.length]
                for r in requests
            )
        return self._backend.read_batch(requests, max_concurrency)

    def size(self, name: str) -> int:
        self._record("size", name)
        return self._backend.size(name)

    def exists(self, name: str) -> bool:
        self._record("exists", name)
        return self._backend.exists(name)

    def delete(self, name: str) -> None:
        self._record("delete", name)
        self._backend.delete(name)

    def list_blobs(self, prefix: str = "") -> list[str]:
        self._record("list_blobs", prefix)
        return self._backend.list_blobs(prefix)

    def close(self) -> None:
        super().close()
        self._backend.close()


class BlockingStore(ObjectStore):
    """Pass-through wrapper whose reads wait, like a cloud store's.

    A read that finds its blob sleeps :attr:`delay_s` before it returns (set
    it at any time; 0 makes the store fast); a miss raises at once — the
    shape of a store whose 404s are free and whose hits cost a round trip.
    Every read notes the name of the thread it ran on, and the store counts
    the reads in flight, so tests can tell inline reads from pooled ones.
    """

    def __init__(self, backend: ObjectStore, delay_s: float = 0.005) -> None:
        self._backend = backend
        self.delay_s = delay_s
        self._lock = threading.Lock()
        self.inflight = 0
        self.max_inflight = 0
        #: ``threading.current_thread().name`` of every read, in start order.
        self.read_threads: list[str] = []

    def _read(self, call: Callable[[], bytes]) -> bytes:
        with self._lock:
            self.inflight += 1
            self.max_inflight = max(self.max_inflight, self.inflight)
            self.read_threads.append(threading.current_thread().name)
        try:
            data = call()
            if self.delay_s:
                time.sleep(self.delay_s)
            return data
        finally:
            with self._lock:
                self.inflight -= 1

    def pooled_reads(self) -> int:
        """How many reads so far ran on a ``read_batch`` pool worker."""
        return sum(name.startswith("airphant-fetch") for name in self.read_threads)

    def put(self, name: str, data: bytes) -> None:
        self._backend.put(name, data)

    def get(self, name: str) -> bytes:
        return self._read(lambda: self._backend.get(name))

    def get_range(self, name: str, offset: int, length: int | None = None) -> bytes:
        return self._read(lambda: self._backend.get_range(name, offset, length))

    def size(self, name: str) -> int:
        return self._backend.size(name)

    def exists(self, name: str) -> bool:
        return self._backend.exists(name)

    def delete(self, name: str) -> None:
        self._backend.delete(name)

    def list_blobs(self, prefix: str = "") -> list[str]:
        return self._backend.list_blobs(prefix)

    def close(self) -> None:
        super().close()
        self._backend.close()


def fetch_threads() -> list[threading.Thread]:
    """Every live ``read_batch`` pool worker in this process."""
    return [
        thread for thread in threading.enumerate() if thread.name.startswith("airphant-fetch")
    ]


def assert_no_fetch_threads(timeout: float = 3.0) -> None:
    """Assert all fetch workers are gone, tolerating asynchronous drains.

    Stores dropped unclosed earlier in the test session shut their pools
    down from a finalizer with ``wait=False`` — so force collection and give
    those threads a moment.
    """
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        gc.collect()
        if not fetch_threads():
            return
        time.sleep(0.05)
    assert not fetch_threads()


def passes_in_forked_child(check: Callable[[], bool], timeout: float = 30.0) -> bool:
    """Run ``check`` in a forked child; whether it returned true in time.

    The child leaves through ``os._exit`` (no pytest teardown, no atexit);
    a child that hangs — say on a pool whose threads stayed in the parent —
    is killed after ``timeout`` seconds and counts as a failure.
    """
    pid = os.fork()
    if pid == 0:
        status = 1
        try:
            status = 0 if check() else 2
        finally:
            os._exit(status)
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        finished, status = os.waitpid(pid, os.WNOHANG)
        if finished:
            return os.waitstatus_to_exitcode(status) == 0
        time.sleep(0.01)
    os.kill(pid, signal.SIGKILL)
    os.waitpid(pid, 0)
    return False
