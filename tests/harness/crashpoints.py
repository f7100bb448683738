"""Fault-point store wrapper for crash-consistency tests.

Every durable transition in the ingest lifecycle is one store mutation —
a WAL segment PUT (an append's commit point), an ingest-manifest PUT (a
segment-block reservation, or the commit of a delete, update or flush), a
delta header PUT, the append-only index-manifest swap PUT, a retired-blob
DELETE.  A crash test
therefore reduces to: kill the process at exactly one of those mutations,
"restart" by opening a fresh service over the same backend, and assert the
recovered state.  :class:`FaultPointStore` provides the kill switch — it
passes everything through to a backend until an armed :class:`FaultPoint`
matches, then raises :class:`SimulatedCrash` either *before* the mutation
reaches the backend (the write is lost) or *after* it (the write is durable
but the caller never learns of it).  Armed with ``error=``, the point raises
that exception instead — a store call that *fails* (``"before"``) or whose
outcome is ambiguous (``"after"``) while the process lives on.

Typical use::

    store = FaultPointStore(InMemoryObjectStore())
    store.arm("put", "/seg-", when="before")   # die at an append's commit point
    with pytest.raises(SimulatedCrash):
        live.append(["doc one", "doc two"])
    store.disarm()
    # "restart": reopen over the same backend and assert recovery
    reopened = LiveIndex(store, "idx", config, metrics, AppendOnlyIndexManager(store, "idx"))

Fault points are one-shot (each fires once, then disarms itself) and matched
in arming order; ``skip`` skips the first N matching calls, which targets
"the second manifest PUT of this operation" style kill points.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field

from repro.storage.base import ObjectStore

__all__ = ["FaultPoint", "FaultPointStore", "SimulatedCrash"]


class SimulatedCrash(BaseException):
    """An injected process death at a store fault point.

    Deliberately a ``BaseException`` subclass: a real ``kill -9`` is not
    catchable, so recovery code under test must not be able to swallow it
    with ``except Exception`` cleanup/undo paths — any state it leaves
    behind must be repaired by *replay*, exactly as after a power cut.
    """

    def __init__(self, op: str, blob: str, when: str) -> None:
        super().__init__(f"simulated crash {when} {op} {blob!r}")
        self.op = op
        self.blob = blob
        self.when = when


@dataclass
class FaultPoint:
    """One armed kill point: die on the matching store mutation.

    ``op`` is the store method name (``"put"`` or ``"delete"``); ``pattern``
    is a substring of the blob name; ``when`` selects whether the backend
    sees the mutation (``"after"``) or not (``"before"``); ``skip`` ignores
    the first N matching calls; ``error`` (if given) is raised instead of
    :class:`SimulatedCrash`.
    """

    op: str
    pattern: str
    when: str = "before"
    skip: int = 0
    error: BaseException | None = None
    #: Whether this point has fired (it disarms itself after firing).
    fired: bool = field(default=False, init=False)

    def __post_init__(self) -> None:
        if self.op not in ("put", "delete"):
            raise ValueError(f"op must be 'put' or 'delete', got {self.op!r}")
        if self.when not in ("before", "after"):
            raise ValueError(f"when must be 'before' or 'after', got {self.when!r}")
        if self.skip < 0:
            raise ValueError(f"skip must be non-negative, got {self.skip}")

    def matches(self, op: str, blob: str) -> bool:
        return op == self.op and self.pattern in blob


class FaultPointStore(ObjectStore):
    """Pass-through store that dies at armed mutation points.

    Reads are never faulted — a crashed process stops issuing them, so
    killing a read adds no coverage beyond killing the mutation before it.
    Thread-safe: the ingest background worker may mutate concurrently with
    the test thread arming points.
    """

    def __init__(self, backend: ObjectStore) -> None:
        self._backend = backend
        self._lock = threading.Lock()
        self._points: list[FaultPoint] = []
        #: Every mutation that reached this wrapper, as (op, blob) tuples —
        #: fired-before mutations included (the *attempt* happened).
        self.mutation_log: list[tuple[str, str]] = []

    @property
    def backend(self) -> ObjectStore:
        return self._backend

    # -- arming ---------------------------------------------------------------------

    def arm(
        self,
        op: str,
        pattern: str,
        when: str = "before",
        skip: int = 0,
        error: BaseException | None = None,
    ) -> FaultPoint:
        """Arm a one-shot kill point and return it (its ``fired`` flag is
        how a test asserts the crash actually happened where intended)."""
        point = FaultPoint(op=op, pattern=pattern, when=when, skip=skip, error=error)
        with self._lock:
            self._points.append(point)
        return point

    def disarm(self) -> None:
        """Drop every armed point (fired or not)."""
        with self._lock:
            self._points.clear()

    def armed(self) -> list[FaultPoint]:
        with self._lock:
            return [point for point in self._points if not point.fired]

    def _check(self, op: str, blob: str) -> FaultPoint | None:
        """Record the mutation; return the point to fire, if any."""
        with self._lock:
            self.mutation_log.append((op, blob))
            for point in self._points:
                if point.fired or not point.matches(op, blob):
                    continue
                if point.skip > 0:
                    point.skip -= 1
                    continue
                point.fired = True
                return point
        return None

    # -- ObjectStore interface -------------------------------------------------------

    @staticmethod
    def _fire(point: FaultPoint, op: str, name: str) -> BaseException:
        return point.error if point.error is not None else SimulatedCrash(op, name, point.when)

    def put(self, name: str, data: bytes) -> None:
        point = self._check("put", name)
        if point is not None and point.when == "before":
            raise self._fire(point, "put", name)
        self._backend.put(name, data)
        if point is not None:
            raise self._fire(point, "put", name)

    def delete(self, name: str) -> None:
        point = self._check("delete", name)
        if point is not None and point.when == "before":
            raise self._fire(point, "delete", name)
        self._backend.delete(name)
        if point is not None:
            raise self._fire(point, "delete", name)

    def get(self, name: str) -> bytes:
        return self._backend.get(name)

    def get_range(self, name: str, offset: int, length: int | None = None) -> bytes:
        return self._backend.get_range(name, offset, length)

    def size(self, name: str) -> int:
        return self._backend.size(name)

    def exists(self, name: str) -> bool:
        return self._backend.exists(name)

    def list_blobs(self, prefix: str = "") -> list[str]:
        return self._backend.list_blobs(prefix)

    def close(self) -> None:
        super().close()
        self._backend.close()
