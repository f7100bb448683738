"""Simulated cloud object store.

Wraps any :class:`~repro.storage.base.ObjectStore` backend with the affine
latency model of :mod:`repro.storage.latency`.  The simulator uses a
*virtual clock*: it never sleeps, it just computes how long each request
would have taken and returns those timings alongside the data.  This keeps
the full benchmark suite runnable in seconds while preserving the relative
behaviour the paper measures (round-trip counts, parallelism, bytes moved,
bandwidth contention, and cross-region RTT inflation).
"""

from __future__ import annotations

from typing import Iterable

from repro.storage.base import ObjectStore, RangeRead
from repro.storage.latency import AffineLatencyModel
from repro.storage.memory import InMemoryObjectStore
from repro.storage.metrics import StorageMetrics
from repro.storage.parallel import FetchResult


class SimulatedCloudStore(ObjectStore):
    """Object store with simulated network timing.

    Parameters
    ----------
    backend:
        Where blob bytes actually live (defaults to an in-memory store).
    latency_model:
        The affine latency model used to cost every request.

    Every request charged is added to the running totals in :attr:`metrics`.
    """

    def __init__(
        self,
        backend: ObjectStore | None = None,
        latency_model: AffineLatencyModel | None = None,
    ) -> None:
        self._backend = backend if backend is not None else InMemoryObjectStore()
        self._latency = latency_model if latency_model is not None else AffineLatencyModel()
        self.metrics = StorageMetrics()

    @classmethod
    def wrap(cls, store: ObjectStore) -> "SimulatedCloudStore":
        """``store`` under simulated timing — itself when it already is simulated.

        The simulator belongs *on top* of a store stack: whatever wraps it
        hides its clock from :meth:`read_batch` callers and silently zeroes
        every simulated latency (see :meth:`ResilientStore.wrap
        <repro.storage.resilient.ResilientStore.wrap>`, the other half of
        the composition).
        """
        if isinstance(store, SimulatedCloudStore):
            return store
        return cls(backend=store)

    # -- plumbing --------------------------------------------------------------

    @property
    def backend(self) -> ObjectStore:
        """The underlying store holding the actual bytes."""
        return self._backend

    @property
    def latency_model(self) -> AffineLatencyModel:
        """The latency model costing each request."""
        return self._latency

    def with_latency_model(self, latency_model: AffineLatencyModel) -> "SimulatedCloudStore":
        """Return a new simulated view of the *same* backend with a new model.

        Used by the cross-region experiments: the data stays in one place
        while compute "moves" further away.
        """
        return SimulatedCloudStore(backend=self._backend, latency_model=latency_model)

    # -- ObjectStore interface (pass-through data, metered timing) -------------

    def put(self, name: str, data: bytes) -> None:
        self._backend.put(name, data)

    def get(self, name: str) -> bytes:
        data = self._backend.get(name)
        self._charge_single(len(data))
        return data

    def get_range(self, name: str, offset: int, length: int | None = None) -> bytes:
        data = self._backend.get_range(name, offset, length)
        self._charge_single(len(data))
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
        """Close this store and the backend."""
        super().close()
        self._backend.close()

    # -- the timed batch --------------------------------------------------------

    def read_batch(
        self,
        requests: Iterable[RangeRead],
        max_concurrency: int = 32,
    ) -> FetchResult:
        """Execute independent reads as one concurrent batch on the virtual clock.

        This is the access pattern of IoU Sketch: all requests are issued at
        once, so a wave's wait time is the *maximum* first-byte latency
        rather than the sum, and its download time is bounded by aggregate
        bandwidth; requests beyond ``max_concurrency`` run in successive
        waves.  Every request draws exactly one first-byte sample, in request
        order, so a seeded model replays identically.

        An ``optional`` request whose blob is missing yields ``None`` and is
        charged like any other answer: a first-byte wait and 0 bytes.

        Returns
        -------
        Payloads in request order plus the batch's count, bytes and
        virtual-clock cost (no real time passes).
        """
        request_list = self._checked_batch(requests, max_concurrency)
        if not request_list:
            return FetchResult()
        payloads: list[bytes | None] = []
        sizes: list[int] = []
        waits: list[float] = []
        for request in request_list:
            data = self._backend.read(request)
            payloads.append(data)
            sizes.append(len(data) if data is not None else 0)
            waits.append(self._latency.sample_first_byte_ms())
        starts = range(0, len(request_list), max_concurrency)
        fetch = FetchResult(
            payloads=payloads,
            requests=len(request_list),
            nbytes=sum(sizes),
            wait_ms=sum(max(waits[start : start + max_concurrency]) for start in starts),
            download_ms=sum(
                self._latency.batch_transfer_ms(sizes[start : start + max_concurrency])
                for start in starts
            ),
        )
        self.metrics.record(fetch)
        return fetch

    # -- helpers ----------------------------------------------------------------

    def _charge_single(self, nbytes: int) -> None:
        """Charge one request on its own round trip."""
        self.metrics.record(
            FetchResult(
                requests=1,
                nbytes=nbytes,
                wait_ms=self._latency.sample_first_byte_ms(),
                download_ms=self._latency.transfer_ms(nbytes),
            )
        )
