"""Abstract object-store interface.

Cloud object stores (S3, GCS, Azure Blob) expose a flat namespace of named
blobs with whole-object PUT/GET plus byte-range GET.  Airphant only needs
those operations: superposts are packed into a single blob and fetched with
range reads, and documents are addressed by ``(blob, offset, length)``
postings.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Iterable

from repro.observability.tracing import attach, current_span
from repro.storage.metrics import BatchRecord, RequestRecord
from repro.storage.parallel import FetchPool, FetchResult


class StoreError(Exception):
    """Base class of every error an :class:`ObjectStore` raises on purpose.

    Callers that want one except-clause for "the storage layer failed" catch
    this; the subclasses distinguish *what kind* of failure it was, which
    drives the retry policy of :class:`~repro.storage.resilient.ResilientStore`.
    """


class BlobNotFoundError(StoreError, KeyError):
    """Raised when a named blob does not exist in the store.

    A *definitive* answer from the store, not a failure to reach it — it is
    therefore never retried (subclassing ``KeyError`` keeps pre-existing
    ``except KeyError`` callers working).
    """

    def __init__(self, name: str):
        super().__init__(name)
        self.name = name

    def __str__(self) -> str:  # pragma: no cover - trivial
        return f"blob not found: {self.name!r}"


class TransientStoreError(StoreError):
    """A request that failed for a (probably) temporary reason.

    Network resets, timeouts, HTTP 5xx answers, and injected faults all map
    to this type; retrying the identical request may well succeed.
    :class:`~repro.storage.resilient.ResilientStore` retries exactly this
    class (plus ``OSError``) and nothing else.
    """


class ReadOnlyStoreError(StoreError):
    """A write (``put``/``delete``) against a backend that cannot accept it.

    Raised by :class:`~repro.storage.httpstore.HTTPRangeStore` when the
    remote server rejects the mutation (plain static file servers speak GET /
    HEAD only).  Never retried: the store answered, the answer was "no".
    """


class StoreAccessError(StoreError):
    """The store definitively refused the request (HTTP 401/403).

    Missing or wrong credentials, an expired token, a private bucket — the
    backend is healthy and answered authoritatively, so retrying the
    identical request cannot help.  Never retried.
    """


@dataclass(frozen=True)
class RangeRead:
    """A byte-range read request against a single blob.

    ``length`` of ``None`` means "read to the end of the blob", matching the
    open-ended ``Range: bytes=offset-`` header of HTTP range requests.
    With ``optional`` a missing blob is an answer, not a failure: the payload
    is ``None`` and the rest of the batch is unaffected (how an index is
    opened — "is there a shard manifest?" costs no round trip of its own).
    """

    blob: str
    offset: int = 0
    length: int | None = None
    optional: bool = False

    def __post_init__(self) -> None:
        if self.offset < 0:
            raise ValueError(f"offset must be non-negative, got {self.offset}")
        if self.length is not None and self.length < 0:
            raise ValueError(f"length must be non-negative, got {self.length}")


class ObjectStore(ABC):
    """Minimal blob-store interface shared by all backends.

    Concrete implementations must be safe for concurrent reads from multiple
    threads; writes are assumed to happen in a single-threaded build phase
    (the paper's Builder runs offline).
    """

    @abstractmethod
    def put(self, name: str, data: bytes) -> None:
        """Create or overwrite the blob ``name`` with ``data``."""

    @abstractmethod
    def get(self, name: str) -> bytes:
        """Return the full content of blob ``name``.

        Raises :class:`BlobNotFoundError` if it does not exist.
        """

    @abstractmethod
    def get_range(self, name: str, offset: int, length: int | None = None) -> bytes:
        """Return ``length`` bytes of blob ``name`` starting at ``offset``.

        Reads past the end of the blob are truncated (like HTTP range GET).
        """

    @abstractmethod
    def size(self, name: str) -> int:
        """Return the size in bytes of blob ``name``."""

    @abstractmethod
    def exists(self, name: str) -> bool:
        """Return whether blob ``name`` exists."""

    @abstractmethod
    def delete(self, name: str) -> None:
        """Remove blob ``name`` if it exists (idempotent)."""

    @abstractmethod
    def list_blobs(self, prefix: str = "") -> list[str]:
        """Return the sorted names of all blobs starting with ``prefix``."""

    # Convenience helpers shared by every backend -------------------------------

    def read(self, request: RangeRead) -> bytes | None:
        """Execute a single :class:`RangeRead`.

        Returns
        -------
        The requested bytes (truncated at end-of-blob, like
        :meth:`get_range`); ``None`` for an ``optional`` request whose blob
        does not exist.
        """
        try:
            return self.get_range(request.blob, request.offset, request.length)
        except BlobNotFoundError:
            if request.optional:
                return None
            raise

    def read_batch(
        self,
        requests: Iterable[RangeRead],
        max_concurrency: int = 32,
        required: int | None = None,
    ) -> FetchResult:
        """Read ``requests`` as one concurrent wave and report what it cost.

        The single entry point for the paper's primitive — independent range
        reads issued at once, never sequentially — and the one place a store
        reports elapsed time.  A *dependent* chain of reads is a loop of
        one-request batches, whose costs the caller adds up.

        Parameters
        ----------
        requests:
            Independent range reads.
        max_concurrency:
            Most requests in flight at once (the paper uses 32 download
            threads).  This default implementation runs on one pool per
            store, as wide as the widest value any caller has asked for.
        required:
            When set, the caller needs only this many of the payloads (the
            L⁺ replication of Section IV-G: issue all, continue when
            ``required`` have arrived).  A store returns *at least* that
            many; the stragglers it gave up on are ``None``.  This default
            simply waits for all of them.

        Returns
        -------
        A :class:`~repro.storage.parallel.FetchResult`: one payload per
        request, in request order (``None`` for a missing ``optional``
        blob, recorded as 0 bytes), plus the batch's timing — zero here
        (wall-clock timing is the caller's job); a store with a clock of its
        own (:class:`~repro.storage.simulated.SimulatedCloudStore`)
        overrides this method to report it.
        """
        requests = self._checked_batch(requests, max_concurrency, required)
        if not requests:
            return FetchResult()
        # Pool threads do not inherit contextvars from the submitter, so the
        # active trace span (if any) is captured here and re-attached inside
        # each worker — store-level attempt spans then nest under the right
        # request instead of vanishing.
        parent = current_span()
        if parent is None:
            reader = self.read
        else:

            def reader(request: RangeRead) -> bytes | None:
                with attach(parent):
                    return self.read(request)

        # Stores need not define ``__init__``, so the pool is attached on
        # first use; ``setdefault`` is atomic, and a racing loser's pool has
        # no threads yet.
        pool: FetchPool | None = self.__dict__.get("_fetch_pool")
        if pool is None:
            pool = self.__dict__.setdefault("_fetch_pool", FetchPool())
        payloads = list(pool.map(max_concurrency, reader, requests))
        records = tuple(
            RequestRecord(blob=request.blob, nbytes=len(data) if data is not None else 0)
            for request, data in zip(requests, payloads)
        )
        return FetchResult(payloads=payloads, batch=BatchRecord(requests=records))

    @staticmethod
    def _checked_batch(
        requests: Iterable[RangeRead], max_concurrency: int, required: int | None
    ) -> list[RangeRead]:
        """Validate :meth:`read_batch` arguments; returns the requests as a list."""
        if max_concurrency <= 0:
            raise ValueError("max_concurrency must be positive")
        if required is not None and required <= 0:
            raise ValueError("required must be positive")
        return list(requests)

    def close(self) -> None:
        """Release the :meth:`read_batch` worker pool, if one was created.

        Shuts the pool's threads down *now* instead of waiting for the store
        to be garbage-collected.  Non-poisoning and idempotent: the next
        :meth:`read_batch` call transparently builds a fresh pool, so
        closing a store that is still shared is safe.  Wrapper stores
        (simulated, resilient, flaky) extend this to close their inner store
        as well.
        """
        pool: FetchPool | None = self.__dict__.get("_fetch_pool")
        if pool is not None:
            pool.close()

    def __enter__(self) -> "ObjectStore":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def total_bytes(self, prefix: str = "") -> int:
        """Total stored bytes under ``prefix`` (index storage-size metric).

        Returns
        -------
        The sum of :meth:`size` over every blob :meth:`list_blobs` reports
        under ``prefix`` — 0 on backends that cannot enumerate blobs (see
        :meth:`~repro.storage.httpstore.HTTPRangeStore.list_blobs`).
        """
        return sum(self.size(name) for name in self.list_blobs(prefix))
