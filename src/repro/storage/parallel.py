"""The worker pool and the result type of a batched read.

IoU Sketch's key systems idea is replacing *dependent sequential* reads with
a *single batch of concurrent* reads.  The primitive that executes such a
batch is :meth:`ObjectStore.read_batch
<repro.storage.base.ObjectStore.read_batch>`; this module holds the two
things it is made of: :class:`FetchPool`, the one thread pool a store owns
for it, and :class:`FetchResult`, what it returns.
"""

from __future__ import annotations

import os
import threading
import weakref
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator, TypeVar

from repro.storage.metrics import BatchRecord

T = TypeVar("T")
R = TypeVar("R")


def _shutdown_pool(pool: ThreadPoolExecutor, owner_pid: int) -> None:
    """Finalizer target: shut ``pool`` down, but only in the owning process.

    After ``os.fork()`` the child inherits the executor object but none of
    its worker threads; shutting it down there would try to join threads
    that never existed in the child.  The pid guard makes the finalizer a
    no-op everywhere except the process that created the pool.
    """
    if os.getpid() == owner_pid:
        pool.shutdown(wait=False)


@dataclass(frozen=True)
class FetchResult:
    """Payloads plus the timing of the batch that fetched them.

    The default is the empty batch: nothing read, nothing charged.
    """

    payloads: list[bytes] = field(default_factory=list)
    batch: BatchRecord = BatchRecord()

    @property
    def total_ms(self) -> float:
        """What the batch cost on the store's clock (0 on untimed stores)."""
        return self.batch.total_ms


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

    def map(
        self, width: int, function: Callable[[T], R], items: Iterable[T]
    ) -> Iterator[R]:
        """Submit ``function(item)`` for every item at once; results in item order.

        The executor is at least ``width`` workers wide.  A pool inherited
        across ``os.fork()`` is unusable in the child (its worker threads
        live only in the parent), so a pid mismatch drops the stale
        reference without a shutdown and builds a fresh pool; a pool that is
        too narrow is replaced by a wider one.

        Submission happens under the pool's lock, so neither :meth:`close`
        nor a widening swap can land between choosing the executor and
        handing it the batch: work already submitted always finishes on the
        executor it was given to, and no batch ever meets a shut-down pool.
        """
        with self._lock:
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
                # threads until interpreter exit: shut the pool down when
                # this object is collected.  The callback references only
                # the pool (and the owning pid), so it cannot keep the store
                # alive, and it no-ops in forked children.
                self._pool_finalizer = weakref.finalize(
                    self, _shutdown_pool, self._pool, self._pool_pid
                )
            return self._pool.map(function, items)

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
