"""The worker pool and the result type of a batched read.

IoU Sketch's key systems idea is replacing *dependent sequential* reads with
a *single batch of concurrent* reads.  The primitive that executes such a
batch is :meth:`ObjectStore.read_batch
<repro.storage.base.ObjectStore.read_batch>`; this module holds the two
things it is made of: :class:`FetchPool`, the one thread pool a store owns
for it, and :class:`FetchResult`, what it returns.  The same pool runs the
racers of a :class:`~repro.storage.resilient.ResilientStore` wrapped around
the store (:meth:`FetchPool.submit`).

A batch uses that pool only if the store's reads wait: concurrency exists to
overlap waiting, and a read of ``mem://`` or a page-cached ``file://`` that
does not wait would pay a thread hand-off for nothing (:meth:`FetchPool.run`).
"""

from __future__ import annotations

import os
import threading
import weakref
from collections import deque
from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import dataclass, field
from itertools import count
from time import perf_counter
from typing import Any, Callable, Iterable, Iterator, TypeVar

T = TypeVar("T")
R = TypeVar("R")

#: A read that blocked and took longer than this is worth a thread.  On a
#: 2-vCPU box a batch of in-memory reads costs 49 µs for 1 read and 0.91 ms
#: for 40 on a warm pool, 142 µs and 1.27 ms on a fresh one, and 2 µs and
#: 15 µs inline: a shorter wait is cheaper sat out in line.
SLOW_READ_S = 100e-6

#: Reads in a row that did not wait before a store that waited runs inline
#: again.  One slow read flips a store to the pool, so free misses beside
#: 10 ms hits cannot average their way back to serial reads: of the reads of
#: ``perfbench``'s 10 ms stores only each store's first waited inline (1 of
#: 3 356 on ``ranked_delay``, 3 of 3 222 on ``logsearch_s3``'s 3 set-ups).
FAST_RUN = 64


try:
    from resource import RUSAGE_THREAD, getrusage
except ImportError:  # no per-thread counts: every slow read counts as a wait
    _blocked_count = count().__next__
else:

    def _blocked_count() -> int:
        """How often the calling thread blocked (voluntary context switches):
        a slow read that never blocked was computing (copy-on-write faults in
        a forked child, a garbage collection) or preempted, and no thread
        could have overlapped it."""
        return getrusage(RUSAGE_THREAD).ru_nvcsw


def _shutdown_pool(pool: ThreadPoolExecutor, owner_pid: int) -> None:
    """Finalizer target: shut ``pool`` down, but only in the owning process.

    After ``os.fork()`` the child inherits the executor object but none of
    its worker threads; shutting it down there would try to join threads
    that never existed in the child.  The pid guard makes the finalizer a
    no-op everywhere except the process that created the pool.
    """
    if os.getpid() == owner_pid:
        pool.shutdown(wait=False)


def fetch_pool(store: object) -> FetchPool:
    """``store``'s one :class:`FetchPool`, attached on first use.

    Stores need not define ``__init__``, so the pool lives in the instance
    ``__dict__``; ``setdefault`` is atomic, and a racing loser's pool has no
    threads yet.
    """
    pool: FetchPool | None = store.__dict__.get("_fetch_pool")
    if pool is None:
        pool = store.__dict__.setdefault("_fetch_pool", FetchPool())
    return pool


@dataclass(frozen=True)
class FetchResult:
    """Payloads plus what the wave that fetched them cost.

    The default is the empty wave: nothing read, nothing charged.  A
    store's payloads are bytes (``None`` for a missing optional blob); a
    :class:`~repro.storage.pipeline.ReadPipeline` hands a read with a
    decoder its decoded value instead.  The cost is that of the physical
    requests the store served: ``wait_ms`` is the wave's slowest first byte
    (requests do not block each other) and ``download_ms`` the shared
    transfer of all of them — both 0 on a store without a clock of its own.
    """

    payloads: list[Any] = field(default_factory=list)
    #: Requests the store served.
    requests: int = 0
    #: Bytes those requests returned.
    nbytes: int = 0
    wait_ms: float = 0.0
    download_ms: float = 0.0

    @property
    def total_ms(self) -> float:
        """What the wave cost on the store's clock (0 on untimed stores)."""
        return self.wait_ms + self.download_ms


class FetchPool:
    """One lazily created, fork-safe, grow-only pool of fetch workers.

    One long-lived pool serves every batch of its store: spinning up a fresh
    ``ThreadPoolExecutor`` per batch costs thread creation on the query hot
    path and defeats OS-level thread reuse.  The pool is as wide as the
    widest ``max_concurrency`` any caller has asked for — a sharded index
    multiplies every lookup wave's request count by its shard count and asks
    for proportionally more — and never shrinks.
    """

    def __init__(self) -> None:
        self._pool: ThreadPoolExecutor | None = None
        self._pool_pid = 0
        self._pool_finalizer: weakref.finalize | None = None
        self._lock = threading.Lock()
        #: Widest ``max_concurrency`` asked for so far.
        self.width = 0
        #: Did each of the store's last :data:`FAST_RUN` reads wait?  Never
        #: measured, a store probes inline; appends are atomic, so no lock.
        self._recent = deque([False] * FAST_RUN, maxlen=FAST_RUN)

    def run(
        self,
        width: int,
        function: Callable[[T], R],
        items: list[T],
        pooled: Callable[[T], R] | None = None,
    ) -> list[R]:
        """``[function(item) for item in items]``, inline while no read waits.

        A read waited if it took longer than :data:`SLOW_READ_S` and its
        thread blocked.  The first that did sends the rest of the batch to
        :meth:`map`; so do all batches of a store with a wait among its last
        :data:`FAST_RUN` reads.  Results and the first exception come in item
        order either way; ``pooled`` replaces ``function`` on the workers.
        """
        results: list[R] = []
        if True not in self._recent:
            blocked = _blocked_count()
            for item in items:
                started = perf_counter()
                results.append(function(item))
                # Only a slow read pays for the system call.
                if perf_counter() - started > SLOW_READ_S and _blocked_count() > blocked:
                    self._recent.append(True)
                    break
            else:
                return results
        worker = pooled or function

        def timed(item: T) -> R:
            started, blocked = perf_counter(), _blocked_count()
            result = worker(item)
            slow = perf_counter() - started > SLOW_READ_S
            self._recent.append(slow and _blocked_count() > blocked)
            return result

        rest = items[len(results) :]
        return results + list(self.map(width, timed, rest)) if rest else results

    def map(
        self, width: int, function: Callable[[T], R], items: Iterable[T]
    ) -> Iterator[R]:
        """Submit ``function(item)`` for every item at once; results in item order."""
        with self._lock:
            return self._executor(width).map(function, items)

    def submit(self, width: int, function: Callable[[], R]) -> Future[R]:
        """Run ``function()`` on the pool: one racer of a hedged read.

        A task submitted here must not wait on this pool's own futures: the
        pool is bounded, and nested waits would deadlock it.
        """
        with self._lock:
            return self._executor(width).submit(function)

    def _executor(self, width: int) -> ThreadPoolExecutor:
        """The executor, at least ``width`` workers wide (caller holds the lock).

        A pool inherited across ``os.fork()`` is unusable in the child (its
        worker threads live only in the parent), so a pid mismatch drops the
        stale reference without a shutdown and builds a fresh pool; a pool
        that is too narrow is replaced by a wider one.

        Callers submit under the lock, so neither :meth:`close` nor a
        widening swap can land between choosing the executor and handing it
        the work: work already submitted always finishes on the executor it
        was given to, and no batch ever meets a shut-down pool.
        """
        if self._pool is not None and self._pool_pid != os.getpid():
            self._detach()
        elif self._pool is not None and width > self.width:
            self._detach().shutdown(wait=False)
        if self._pool is None:
            self.width = max(self.width, width)
            self._pool = ThreadPoolExecutor(
                max_workers=self.width, thread_name_prefix="airphant-fetch"
            )
            self._pool_pid = os.getpid()
            # Owners that never call close() must not strand idle worker
            # threads until interpreter exit: shut the pool down when this
            # object is collected.  The callback references only the pool
            # (and the owning pid), so it cannot keep the store alive, and
            # it no-ops in forked children.
            self._pool_finalizer = weakref.finalize(
                self, _shutdown_pool, self._pool, self._pool_pid
            )
        return self._pool

    def _detach(self) -> ThreadPoolExecutor | None:
        """Forget the current executor (caller holds the lock) and return it."""
        pool, self._pool = self._pool, None
        if self._pool_finalizer is not None:
            self._pool_finalizer.detach()
            self._pool_finalizer = None
        return pool

    def close(self) -> None:
        """Shut down the current executor (idempotent, fork-safe).

        Closing releases the worker threads *now* (after the batches already
        submitted finish); it does not poison the pool — a later batch
        transparently creates a fresh executor, so closing is safe even
        while another thread is mid-batch (e.g. a catalog invalidating a
        searcher mid-query).  In a process forked while the pool was alive,
        the inherited executor's threads do not exist, so close drops the
        reference without attempting a shutdown.
        """
        with self._lock:
            owner_pid = self._pool_pid
            pool = self._detach()
        if pool is not None and owner_pid == os.getpid():
            pool.shutdown(wait=True)
