"""Resilience wrapper: retries, per-request timeouts, and hedged reads.

Serving index lookups straight from cloud object storage exposes every query
to the network's failure modes: transient errors, stalled connections, and
long-tail stragglers (the paper's Section IV-G motivation; cf. Leidner 2018
on distributed retrieval over cloud storage).  :class:`ResilientStore` wraps
any :class:`~repro.storage.base.ObjectStore` and tames all three *without*
the inner backend having to know:

* **Retries** — transient failures (:class:`TransientStoreError`,
  ``OSError``) are retried up to ``retries`` times with exponential backoff
  and multiplicative jitter; :class:`BlobNotFoundError` and
  :class:`ReadOnlyStoreError` are definitive answers and never retried.
  Exhaustion raises :class:`RetriesExhaustedError` (itself transient, so
  stacked wrappers compose).
* **Timeouts** — with ``timeout_s`` set, each attempt is bounded; an attempt
  that exceeds it counts as a transient failure (and therefore retries).
* **Hedged reads** — with ``hedge_ms > 0``, a ``get``/``get_range`` that has
  not answered after the hedge delay gets a *duplicate* request; whichever
  finishes first wins.  The delay adapts to the workload: it is the
  :data:`HEDGE_PERCENTILE`-th percentile of recently observed read
  latencies, floored at ``hedge_ms``, so only genuinely slow outliers are
  hedged.  Range reads are idempotent, which is what makes duplication safe.
  Both racers run on the *wrapped* store's fetch pool
  (:meth:`~repro.storage.parallel.FetchPool.submit`); the wrapper keeps no
  pool of its own beyond the one every store has for ``read_batch``.

Everything is accounted in :class:`ResilienceStats` (attempts, retries,
hedges, hedge wins, timeouts), which the fault-injection ablation
(``benchmarks/test_ablation_backends.py``) records to
``results/BENCH_backends.json``.

Wall-clock vs. virtual clock: retries, timeouts, and hedging act in *real
time* — they are meaningful over real backends (HTTP, S3) and over
fault-injecting wrappers that really sleep
(:class:`~repro.storage.faults.FlakyStore`).  A
:class:`~repro.storage.simulated.SimulatedCloudStore` returns instantly on
its virtual clock, so hedges never fire against it (reads still pass through
byte-for-byte unchanged).
"""

from __future__ import annotations

import random
import threading
import time
from collections import deque
from concurrent.futures import FIRST_COMPLETED, Future, wait
from concurrent.futures import TimeoutError as FuturesTimeoutError
from dataclasses import dataclass
from typing import Any, Callable, TypeVar

from repro.observability import MetricsRegistry, MirroredStats, get_registry
from repro.observability.stats import counter
from repro.observability.tracing import current_span, span
from repro.storage.base import (
    BlobNotFoundError,
    ObjectStore,
    ReadOnlyStoreError,
    TransientStoreError,
)
from repro.storage.parallel import fetch_pool
from repro.storage.simulated import SimulatedCloudStore

T = TypeVar("T")

#: Percentile of recently observed read latencies that the adaptive hedge
#: delay tracks (floored at ``hedge_ms``).
HEDGE_PERCENTILE = 95.0


class StoreTimeoutError(TransientStoreError):
    """An attempt exceeded the configured per-request timeout.

    Subclasses :class:`TransientStoreError`, so a timed-out attempt is
    retried like any other transient failure.
    """


class RetriesExhaustedError(TransientStoreError):
    """Every allowed attempt of one operation failed.

    Parameters
    ----------
    operation:
        Human-readable description of what was being attempted.
    attempts:
        Total attempts made (1 + retries).
    last_error:
        The error of the final attempt, also set as ``__cause__``.
    """

    def __init__(self, operation: str, attempts: int, last_error: BaseException) -> None:
        super().__init__(
            f"{operation} failed after {attempts} attempt(s): {last_error}"
        )
        self.operation = operation
        self.attempts = attempts
        self.last_error = last_error
        self.__cause__ = last_error


@dataclass
class ResilienceStats(MirroredStats):
    """What one :class:`ResilientStore` attempted, retried, and hedged.

    Updates go through :meth:`~repro.observability.MirroredStats.add`,
    which is atomic (its own lock — the retry loop, the timeout guard, and
    the hedge racers all report from different threads) and mirrors every
    increment into the bound
    :class:`~repro.observability.MetricsRegistry`.
    """

    operations: int = counter(
        "airphant_resilience_operations_total",
        "Store operations entering the retry/hedge machinery",
    )
    attempts: int = counter(
        "airphant_resilience_attempts_total",
        "Individual store attempts (each retry adds one)",
    )
    retries: int = counter(
        "airphant_resilience_retries_total",
        "Attempts beyond the first of their operation",
    )
    recoveries: int = counter(
        "airphant_resilience_recoveries_total",
        "Operations rescued by a later attempt after failing at least once",
    )
    failures: int = counter(
        "airphant_resilience_failures_total",
        "Operations that failed even after every allowed retry",
    )
    timeouts: int = counter(
        "airphant_resilience_timeouts_total",
        "Attempts abandoned for exceeding the per-request timeout",
    )
    hedges: int = counter(
        "airphant_resilience_hedges_total",
        "Duplicate (hedge) requests launched",
    )
    hedge_wins: int = counter(
        "airphant_resilience_hedge_wins_total",
        "Hedge requests that finished before their primary",
    )

    @property
    def hedge_win_rate(self) -> float:
        """Fraction of launched hedges that beat their primary (0 when none)."""
        return self.hedge_wins / self.hedges if self.hedges else 0.0

    @property
    def retry_win_rate(self) -> float:
        """Fraction of retried operations that retrying ultimately rescued.

        ``recoveries / (recoveries + failures)``: of the operations whose
        first attempt failed, how many a later attempt saved (0 when no
        operation ever failed).
        """
        troubled = self.recoveries + self.failures
        return self.recoveries / troubled if troubled else 0.0

    def to_dict(self) -> dict[str, Any]:
        """Every counter, plus the two win rates."""
        return {
            **super().to_dict(),
            "hedge_win_rate": self.hedge_win_rate,
            "retry_win_rate": self.retry_win_rate,
        }


class ResilientStore(ObjectStore):
    """Retrying / timing-out / hedging wrapper around any object store.

    Parameters
    ----------
    backend:
        The store every operation is delegated to.
    retries:
        Transient failures retried per operation (0 disables retrying; the
        operation still gets its one attempt).
    backoff_ms:
        Sleep before the first retry, in milliseconds; each further retry
        multiplies it by ``backoff_multiplier`` up to ``max_backoff_ms``.
    backoff_multiplier / max_backoff_ms:
        Exponential-backoff schedule bounds.
    backoff_jitter:
        Multiplicative jitter: each sleep is scaled by a uniform factor in
        ``[1, 1 + backoff_jitter]`` so synchronized retries de-correlate.
    timeout_s:
        Per-attempt wall-clock bound; ``None`` disables timeouts.  A timed
        out attempt's thread is abandoned (its result discarded), which is
        safe because reads are idempotent.
    hedge_ms:
        Floor of the hedge delay in milliseconds; 0 disables hedging.  The
        delay itself is the :data:`HEDGE_PERCENTILE`-th percentile of
        recently observed read latencies.
    seed:
        Seed of the private jitter RNG, for reproducible backoff schedules.
    sleep / clock:
        Injection points for tests (defaults: ``time.sleep`` /
        ``time.perf_counter``).
    metrics:
        Registry the :class:`ResilienceStats` mirror into; defaults to the
        process-wide registry (:func:`repro.observability.get_registry`).
    """

    #: Observed-latency samples kept for the adaptive hedge delay.
    _LATENCY_WINDOW = 256
    #: Samples required before the percentile overrides the ``hedge_ms`` floor.
    _MIN_LATENCY_SAMPLES = 16

    def __init__(
        self,
        backend: ObjectStore,
        retries: int = 2,
        backoff_ms: float = 20.0,
        backoff_multiplier: float = 2.0,
        max_backoff_ms: float = 2_000.0,
        backoff_jitter: float = 0.25,
        timeout_s: float | None = None,
        hedge_ms: float = 0.0,
        seed: int = 0,
        sleep: Callable[[float], None] = time.sleep,
        clock: Callable[[], float] = time.perf_counter,
        metrics: MetricsRegistry | None = None,
    ) -> None:
        if retries < 0:
            raise ValueError("retries must be non-negative")
        if backoff_ms < 0 or max_backoff_ms < 0:
            raise ValueError("backoff values must be non-negative")
        if backoff_multiplier < 1.0:
            raise ValueError("backoff_multiplier must be >= 1")
        if backoff_jitter < 0:
            raise ValueError("backoff_jitter must be non-negative")
        if timeout_s is not None and timeout_s <= 0:
            raise ValueError("timeout_s must be positive when set")
        if hedge_ms < 0:
            raise ValueError("hedge_ms must be non-negative")
        self._backend = backend
        self._retries = retries
        self._backoff_ms = backoff_ms
        self._backoff_multiplier = backoff_multiplier
        self._max_backoff_ms = max_backoff_ms
        self._backoff_jitter = backoff_jitter
        self._timeout_s = timeout_s
        self._hedge_ms = hedge_ms
        self._sleep = sleep
        self._clock = clock
        self._rng = random.Random(seed)
        self._latencies: deque[float] = deque(maxlen=self._LATENCY_WINDOW)
        self._lock = threading.Lock()
        self.stats = ResilienceStats().bind(
            metrics if metrics is not None else get_registry()
        )

    @classmethod
    def wrap(cls, store: ObjectStore, **options: Any) -> ObjectStore:
        """``store`` guarded by a :class:`ResilientStore` built from ``options``.

        Stores that are already resilient are not double-wrapped.  A
        simulated store is never wrapped *on top* — that would hide the
        simulator's ``read_batch`` clock and silently zero every simulated
        latency — instead the resilience wrapper slides *underneath* the
        simulation layer, guarding the real backend while virtual-clock
        timing stays in charge (the complement of
        :meth:`SimulatedCloudStore.wrap
        <repro.storage.simulated.SimulatedCloudStore.wrap>`).
        """
        if isinstance(store, ResilientStore):
            return store
        if isinstance(store, SimulatedCloudStore):
            return SimulatedCloudStore(
                backend=cls.wrap(store.backend, **options), latency_model=store.latency_model
            )
        return cls(store, **options)

    # -- plumbing ----------------------------------------------------------------

    @property
    def backend(self) -> ObjectStore:
        """The wrapped store operations are delegated to."""
        return self._backend

    @property
    def hedging_enabled(self) -> bool:
        """Whether ``get``/``get_range`` may launch duplicate requests."""
        return self._hedge_ms > 0

    def hedge_delay_s(self) -> float:
        """Current hedge delay in seconds.

        Returns
        -------
        The :data:`HEDGE_PERCENTILE`-th percentile of recently observed read
        latencies once enough samples exist, floored at ``hedge_ms``;
        before that, just the ``hedge_ms`` floor.
        """
        floor = self._hedge_ms / 1000.0
        with self._lock:
            if len(self._latencies) < self._MIN_LATENCY_SAMPLES:
                return floor
            ordered = sorted(self._latencies)
        index = min(len(ordered) - 1, int(len(ordered) * HEDGE_PERCENTILE / 100.0))
        return max(floor, ordered[index])

    def close(self) -> None:
        """Release this store's fetch pool and close the wrapped store (whose
        pool ran the hedge racers).  Idempotent and non-poisoning."""
        super().close()
        self._backend.close()

    # -- retry / timeout / hedge machinery ----------------------------------------

    def _observe(self, latency_s: float) -> None:
        with self._lock:
            self._latencies.append(latency_s)

    def _with_retries(self, operation: str, fn: Callable[[], T], hedge: bool = False) -> T:
        """Run ``fn`` under the retry policy (and hedging, when asked).

        Returns ``fn``'s result; raises :class:`RetriesExhaustedError` once
        every allowed attempt has failed transiently.  Non-transient errors
        (not-found, read-only, programming errors) propagate immediately.
        """
        backoff_s = self._backoff_ms / 1000.0
        attempts = self._retries + 1
        last_error: BaseException | None = None
        self.stats.add(operations=1)
        for attempt in range(attempts):
            self.stats.add(attempts=1, retries=1 if attempt else 0)
            with span(
                "store.attempt", operation=operation, retry=bool(attempt)
            ) as attempt_span:
                try:
                    if hedge and self.hedging_enabled:
                        result = self._hedged_call(fn)
                    else:
                        result = self._guarded_call(fn)
                    if attempt:
                        self.stats.add(recoveries=1)
                        attempt_span.set(recovered=True)
                    return result
                except (BlobNotFoundError, ReadOnlyStoreError):
                    raise
                except (TransientStoreError, OSError) as error:
                    last_error = error
                    attempt_span.set(error=type(error).__name__)
                    if isinstance(error, StoreTimeoutError):
                        attempt_span.set(timeout=True)
            if attempt + 1 >= attempts:
                break
            with self._lock:
                jitter = 1.0 + self._backoff_jitter * self._rng.random()
            self._sleep(min(backoff_s, self._max_backoff_ms / 1000.0) * jitter)
            backoff_s *= self._backoff_multiplier
        self.stats.add(failures=1)
        assert last_error is not None
        raise RetriesExhaustedError(operation, attempts, last_error)

    def _guarded_call(self, fn: Callable[[], T]) -> T:
        """One attempt, bounded by ``timeout_s`` when configured.

        Runs ``fn`` on a dedicated (ephemeral, daemon) thread rather than
        a pooled worker: a timed-out attempt's thread keeps running
        until the backend's own socket timeout releases it, and parking
        those zombies in a bounded pool would let a burst of timeouts starve
        every later retry on queue wait — cascading spurious timeouts even
        after the backend recovers.  The per-read thread-creation cost only
        applies when ``timeout_s`` is set without hedging.
        """
        if self._timeout_s is None:
            return fn()
        outcome: list[object] = []
        failure: list[BaseException] = []
        done = threading.Event()

        def _runner() -> None:
            try:
                outcome.append(fn())
            except BaseException as error:  # noqa: BLE001 - relayed below
                failure.append(error)
            finally:
                done.set()

        thread = threading.Thread(
            target=_runner, daemon=True, name="airphant-timeout-guard"
        )
        thread.start()
        if not done.wait(self._timeout_s):
            self.stats.add(timeouts=1)
            raise StoreTimeoutError(
                f"attempt exceeded the {self._timeout_s:.3f}s timeout"
            ) from None
        if failure:
            raise failure[0]
        return outcome[0]  # type: ignore[return-value]

    def _hedged_call(self, fn: Callable[[], T]) -> T:
        """One attempt that may launch a duplicate after the hedge delay.

        Both racers run on the wrapped store's fetch pool (racing needs
        futures), never on this store's own: its workers are the threads
        that wait here, and nested waits would deadlock a bounded pool.  The
        racers ask for twice the width of this store's pool, so a wave that
        parks a stalled primary on every worker still leaves one for each
        hedge.  A sustained burst of timed-out reads can queue behind
        abandoned workers until the backend's socket timeout frees them.
        """
        width = 2 * max(1, fetch_pool(self).width)
        pool = fetch_pool(self._backend)
        started = self._clock()
        primary: Future[T] = pool.submit(width, fn)
        delay = self.hedge_delay_s()
        if self._timeout_s is not None:
            delay = min(delay, self._timeout_s)
        try:
            payload = primary.result(timeout=delay)
        except FuturesTimeoutError:
            pass  # still running: hedge below
        else:
            self._observe(self._clock() - started)
            return payload

        if self._timeout_s is not None and self._clock() - started >= self._timeout_s:
            primary.cancel()
            self.stats.add(timeouts=1)
            raise StoreTimeoutError(
                f"attempt exceeded the {self._timeout_s:.3f}s timeout"
            ) from None

        self.stats.add(hedges=1)
        attempt_span = current_span()
        if attempt_span is not None:
            attempt_span.set(hedged=True)
        hedge_started = self._clock()
        secondary: Future[T] = pool.submit(width, fn)
        pending: set[Future[T]] = {primary, secondary}
        errors: list[BaseException] = []
        while pending:
            remaining = (
                None
                if self._timeout_s is None
                else max(0.0, self._timeout_s - (self._clock() - started))
            )
            done, pending = wait(pending, timeout=remaining, return_when=FIRST_COMPLETED)
            if not done:
                for future in pending:
                    future.cancel()
                self.stats.add(timeouts=1)
                raise StoreTimeoutError(
                    f"hedged attempt exceeded the {self._timeout_s:.3f}s timeout"
                ) from None
            for future in done:
                try:
                    payload = future.result()
                except (TransientStoreError, OSError, BlobNotFoundError) as error:
                    errors.append(error)
                    continue
                if future is secondary:
                    self.stats.add(hedge_wins=1)
                    if attempt_span is not None:
                        attempt_span.set(winner="hedge")
                    # Observe the winner's OWN latency, not delay + latency:
                    # feeding the hedge wait back into the reservoir would
                    # ratchet the adaptive delay upward every win until
                    # hedging disabled itself under sustained stragglers.
                    self._observe(self._clock() - hedge_started)
                else:
                    if attempt_span is not None:
                        attempt_span.set(winner="primary")
                    self._observe(self._clock() - started)
                return payload
        # Both the primary and the hedge failed: a definitive not-found wins
        # (the blob really is not there); otherwise surface the last failure.
        for error in errors:
            if isinstance(error, BlobNotFoundError):
                raise error
        raise errors[-1]

    # -- ObjectStore interface (all delegated through the policy) ------------------

    def put(self, name: str, data: bytes) -> None:
        """Store ``data`` as blob ``name`` (retried; whole-object PUTs are idempotent)."""
        self._with_retries(f"put {name!r}", lambda: self._backend.put(name, data))

    def get(self, name: str) -> bytes:
        """Return the full content of blob ``name`` (retried and hedged)."""
        return self._with_retries(f"get {name!r}", lambda: self._backend.get(name), hedge=True)

    def get_range(self, name: str, offset: int, length: int | None = None) -> bytes:
        """Return a byte range of blob ``name`` (retried and hedged)."""
        return self._with_retries(
            f"get_range {name!r}[{offset}:+{length}]",
            lambda: self._backend.get_range(name, offset, length),
            hedge=True,
        )

    def size(self, name: str) -> int:
        """Return the size of blob ``name`` in bytes (retried)."""
        return self._with_retries(f"size {name!r}", lambda: self._backend.size(name))

    def exists(self, name: str) -> bool:
        """Whether blob ``name`` exists (retried)."""
        return self._with_retries(f"exists {name!r}", lambda: self._backend.exists(name))

    def delete(self, name: str) -> None:
        """Delete blob ``name`` if present (retried; deletes are idempotent)."""
        self._with_retries(f"delete {name!r}", lambda: self._backend.delete(name))

    def list_blobs(self, prefix: str = "") -> list[str]:
        """Sorted blob names under ``prefix`` from the wrapped store (retried)."""
        return self._with_retries(
            f"list_blobs {prefix!r}", lambda: self._backend.list_blobs(prefix)
        )
