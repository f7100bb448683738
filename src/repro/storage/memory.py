"""In-memory object store backend.

Used for unit tests and as the backing store of
:class:`~repro.storage.simulated.SimulatedCloudStore` when experiments should
not touch the local filesystem.
"""

from __future__ import annotations

import threading

from repro.storage.base import BlobNotFoundError, ObjectStore


class InMemoryObjectStore(ObjectStore):
    """Dictionary-backed :class:`ObjectStore`.

    Thread-safe for the access pattern Airphant uses (concurrent reads,
    single-writer builds).  Every operation implements the abstract
    interface of :class:`~repro.storage.base.ObjectStore` exactly (see the
    base class for Args/Returns): range reads truncate at end-of-blob,
    ``get``/``size`` raise :class:`BlobNotFoundError` for missing blobs,
    ``delete`` is idempotent, and ``list_blobs`` returns sorted names.
    Reads take no time at all — pair with
    :class:`~repro.storage.simulated.SimulatedCloudStore` for virtual-clock
    latencies or :class:`~repro.storage.faults.FlakyStore` for wall-clock
    fault injection.
    """

    def __init__(self) -> None:
        self._blobs: dict[str, bytes] = {}
        self._lock = threading.Lock()

    def put(self, name: str, data: bytes) -> None:
        if not isinstance(data, (bytes, bytearray, memoryview)):
            raise TypeError(f"blob data must be bytes-like, got {type(data).__name__}")
        with self._lock:
            self._blobs[name] = bytes(data)

    def get(self, name: str) -> bytes:
        try:
            return self._blobs[name]
        except KeyError:
            raise BlobNotFoundError(name) from None

    def get_range(self, name: str, offset: int, length: int | None = None) -> bytes:
        data = self.get(name)
        if length is None:
            return data[offset:]
        return data[offset : offset + length]

    def size(self, name: str) -> int:
        return len(self.get(name))

    def exists(self, name: str) -> bool:
        return name in self._blobs

    def delete(self, name: str) -> None:
        with self._lock:
            self._blobs.pop(name, None)

    def list_blobs(self, prefix: str = "") -> list[str]:
        # Under the writers' lock: iterating the dict while a concurrent
        # put adds a name raises "dictionary changed size during iteration".
        with self._lock:
            names = [name for name in self._blobs if name.startswith(prefix)]
        return sorted(names)
