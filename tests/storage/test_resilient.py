"""Tests for the resilience wrapper: retries, timeouts, and hedged reads."""

import threading
import time

import pytest

from repro.storage.base import BlobNotFoundError, RangeRead, TransientStoreError
from repro.storage.faults import FlakyStore
from repro.storage.latency import AffineLatencyModel
from repro.storage.memory import InMemoryObjectStore
from repro.storage.resilient import (
    ResilientStore,
    RetriesExhaustedError,
    StoreTimeoutError,
)
from repro.storage.simulated import SimulatedCloudStore


def _mem(**blobs: bytes) -> InMemoryObjectStore:
    store = InMemoryObjectStore()
    for name, data in blobs.items():
        store.put(name, data)
    return store


class TestFlakyStore:
    def test_passthrough_without_faults(self):
        flaky = FlakyStore(_mem(blob=b"0123456789"))
        assert flaky.get("blob") == b"0123456789"
        assert flaky.get_range("blob", 2, 3) == b"234"
        assert flaky.size("blob") == 10
        assert flaky.exists("blob")
        assert flaky.list_blobs() == ["blob"]
        assert flaky.injected_errors == 0 and flaky.injected_slow == 0

    def test_scripted_outcomes_are_deterministic(self):
        sleeps = []
        flaky = FlakyStore(_mem(blob=b"abc"), slow_ms=7.0, sleep=sleeps.append)
        flaky.script(["error", "slow", "ok"])
        with pytest.raises(TransientStoreError):
            flaky.get("blob")
        assert flaky.get("blob") == b"abc"  # slow, but correct
        assert sleeps == [0.007]
        assert flaky.get("blob") == b"abc"
        assert flaky.injected_errors == 1
        assert flaky.injected_slow == 1

    def test_error_rate_one_always_raises(self):
        flaky = FlakyStore(_mem(blob=b"abc"), error_rate=1.0)
        for _ in range(3):
            with pytest.raises(TransientStoreError):
                flaky.get_range("blob", 0, 1)
        assert flaky.injected_errors == 3

    def test_writes_and_metadata_never_injected(self):
        flaky = FlakyStore(_mem(), error_rate=1.0)
        flaky.put("blob", b"abc")
        assert flaky.exists("blob")
        assert flaky.size("blob") == 3
        flaky.delete("blob")
        assert not flaky.exists("blob")

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValueError):
            FlakyStore(_mem(), error_rate=1.5)
        with pytest.raises(ValueError):
            FlakyStore(_mem(), slow_rate=-0.1)
        with pytest.raises(ValueError):
            FlakyStore(_mem(), slow_ms=-1)
        with pytest.raises(ValueError):
            FlakyStore(_mem()).script(["maybe"])


class TestRetries:
    def test_transient_error_is_retried_to_success(self):
        flaky = FlakyStore(_mem(blob=b"payload"))
        flaky.script(["error", "error", "ok"])
        store = ResilientStore(flaky, retries=2, backoff_ms=0.0)
        assert store.get("blob") == b"payload"
        stats = store.stats
        assert stats.operations == 1
        assert stats.attempts == 3
        assert stats.retries == 2
        assert stats.recoveries == 1
        assert stats.failures == 0

    def test_exhaustion_raises_typed_error_with_cause(self):
        flaky = FlakyStore(_mem(blob=b"payload"), error_rate=1.0)
        store = ResilientStore(flaky, retries=2, backoff_ms=0.0)
        with pytest.raises(RetriesExhaustedError) as excinfo:
            store.get_range("blob", 0, 3)
        assert excinfo.value.attempts == 3
        assert isinstance(excinfo.value.last_error, TransientStoreError)
        assert store.stats.failures == 1
        # Exhaustion is itself transient, so stacked wrappers compose.
        assert isinstance(excinfo.value, TransientStoreError)

    def test_not_found_is_never_retried(self):
        store = ResilientStore(FlakyStore(_mem()), retries=5, backoff_ms=0.0)
        with pytest.raises(BlobNotFoundError):
            store.get("missing")
        assert store.stats.attempts == 1
        assert store.stats.retries == 0

    def test_backoff_schedule_is_exponential_and_jittered(self):
        sleeps: list[float] = []
        flaky = FlakyStore(_mem(blob=b"x"), error_rate=1.0)
        store = ResilientStore(
            flaky,
            retries=3,
            backoff_ms=10.0,
            backoff_multiplier=2.0,
            backoff_jitter=0.5,
            sleep=sleeps.append,
        )
        with pytest.raises(RetriesExhaustedError):
            store.get("blob")
        assert len(sleeps) == 3
        for index, base in enumerate([0.010, 0.020, 0.040]):
            assert base <= sleeps[index] <= base * 1.5 + 1e-9

    def test_backoff_is_capped(self):
        sleeps: list[float] = []
        flaky = FlakyStore(_mem(blob=b"x"), error_rate=1.0)
        store = ResilientStore(
            flaky,
            retries=4,
            backoff_ms=100.0,
            max_backoff_ms=150.0,
            backoff_jitter=0.0,
            sleep=sleeps.append,
        )
        with pytest.raises(RetriesExhaustedError):
            store.get("blob")
        assert max(sleeps) <= 0.150 + 1e-9

    def test_writes_are_retried_too(self):
        inner = _mem()

        class _FlakyPut(FlakyStore):
            calls = 0

            def put(self, name, data):
                type(self).calls += 1
                if type(self).calls == 1:
                    raise TransientStoreError("injected put failure")
                super().put(name, data)

        store = ResilientStore(_FlakyPut(inner), retries=1, backoff_ms=0.0)
        store.put("blob", b"value")
        assert inner.get("blob") == b"value"


class TestTimeouts:
    def test_slow_attempt_times_out_then_recovers(self):
        flaky = FlakyStore(_mem(blob=b"data"), slow_ms=500.0)
        flaky.script(["slow", "ok"])
        store = ResilientStore(flaky, retries=1, backoff_ms=0.0, timeout_s=0.05)
        started = time.perf_counter()
        assert store.get("blob") == b"data"
        assert time.perf_counter() - started < 0.5
        assert store.stats.timeouts == 1
        assert store.stats.recoveries == 1
        store.close()

    def test_timeout_exhaustion_surfaces_as_retries_exhausted(self):
        flaky = FlakyStore(_mem(blob=b"data"), slow_rate=1.0, slow_ms=300.0)
        store = ResilientStore(flaky, retries=1, backoff_ms=0.0, timeout_s=0.03)
        with pytest.raises(RetriesExhaustedError) as excinfo:
            store.get("blob")
        assert isinstance(excinfo.value.last_error, StoreTimeoutError)
        store.close()


class TestHedging:
    def test_hedge_beats_a_slow_primary_and_returns_correct_bytes(self):
        blob = bytes(range(200))
        inner = _mem(blob=blob)

        class _SlowFirst(FlakyStore):
            """First read stalls; later (hedge) reads answer instantly."""

            def __init__(self, backend):
                super().__init__(backend)
                self._calls = 0
                self._call_lock = threading.Lock()

            def get_range(self, name, offset, length=None):
                with self._call_lock:
                    self._calls += 1
                    stall = self._calls == 1
                if stall:
                    time.sleep(0.25)
                return super().get_range(name, offset, length)

        store = ResilientStore(_SlowFirst(inner), retries=0, hedge_ms=20.0)
        started = time.perf_counter()
        assert store.get_range("blob", 10, 30) == blob[10:40]
        assert time.perf_counter() - started < 0.2
        assert store.stats.hedges == 1
        assert store.stats.hedge_wins == 1
        # Regression: a hedge win must record the *winner's own* latency,
        # not hedge-delay + latency — otherwise the adaptive delay ratchets
        # upward on every win until hedging disables itself.
        assert max(store._latencies) < 0.020
        store.close()

    def test_fast_reads_never_hedge(self):
        store = ResilientStore(_mem(blob=b"abcdef"), retries=0, hedge_ms=50.0)
        for _ in range(10):
            assert store.get_range("blob", 0, 3) == b"abc"
        assert store.stats.hedges == 0
        store.close()

    def test_hedge_delay_tracks_observed_percentile_above_floor(self):
        store = ResilientStore(_mem(blob=b"x"), hedge_ms=10.0)
        assert store.hedge_delay_s() == pytest.approx(0.010)
        # Feed synthetic slow observations; the adaptive delay must rise.
        for _ in range(64):
            store._observe(0.080)
        assert store.hedge_delay_s() == pytest.approx(0.080)
        store.close()

    def test_hedged_read_correctness_under_random_faults(self):
        """Hedging + retries return byte-identical data under injected faults."""
        blob = bytes(range(256)) * 8
        flaky = FlakyStore(
            _mem(blob=blob), error_rate=0.15, slow_rate=0.2, slow_ms=5.0, seed=11
        )
        store = ResilientStore(flaky, retries=6, backoff_ms=0.5, hedge_ms=1.0, seed=3)
        for offset in range(0, 512, 64):
            assert store.get_range("blob", offset, 64) == blob[offset : offset + 64]
        assert store.get("blob") == blob
        store.close()

    def test_hedged_correctness_over_simulated_store_fault_injection(self):
        """Virtual-clock stragglers never trip wall-clock hedges, data intact."""
        backend = InMemoryObjectStore()
        blob = bytes(range(100))
        backend.put("blob", blob)
        simulated = SimulatedCloudStore(
            backend=backend,
            latency_model=AffineLatencyModel(
                straggler_probability=0.5, straggler_multiplier=50.0, seed=4
            ),
        )
        store = ResilientStore(simulated, retries=1, hedge_ms=5.0)
        payloads = store.read_batch(
            [RangeRead("blob", i * 10, 10) for i in range(10)]
        ).payloads
        assert payloads == [blob[i * 10 : i * 10 + 10] for i in range(10)]
        # The simulator returns instantly on its virtual clock: no hedges.
        assert store.stats.hedges == 0
        store.close()


class TestLifecycle:
    def test_close_is_idempotent_and_non_poisoning(self):
        store = ResilientStore(_mem(blob=b"abc"), hedge_ms=1.0, timeout_s=5.0)
        assert store.get("blob") == b"abc"
        store.close()
        store.close()
        assert store.get("blob") == b"abc"  # pool transparently rebuilt
        store.close()

    def test_a_forked_child_hedges_on_a_pool_of_its_own(self):
        from harness.stores import passes_in_forked_child

        store = ResilientStore(_mem(blob=b"abcdefgh"), hedge_ms=20.0)
        # Concurrent hedged reads leave the parent's pool with idle workers
        # — which exist only in the parent.
        requests = [RangeRead("blob", offset, 1) for offset in range(8)]
        payloads = store.read_batch(requests, max_concurrency=8).payloads
        assert payloads == [bytes([char]) for char in b"abcdefgh"]
        assert passes_in_forked_child(lambda: store.get_range("blob", 2, 3) == b"cde", timeout=5.0)
        assert store.get("blob") == b"abcdefgh"
        store.close()

    def test_invalid_parameters_rejected(self):
        inner = _mem()
        for kwargs in (
            {"retries": -1},
            {"backoff_ms": -1.0},
            {"backoff_multiplier": 0.5},
            {"backoff_jitter": -0.1},
            {"timeout_s": 0.0},
            {"hedge_ms": -1.0},
            {"hedge_percentile": 0.0},
            {"hedge_percentile": 101.0},
            {"hedge_concurrency": 0},
        ):
            with pytest.raises(ValueError):
                ResilientStore(inner, **kwargs)

    def test_stats_serialize(self):
        store = ResilientStore(_mem(blob=b"abc"), retries=1, backoff_ms=0.0)
        store.get("blob")
        payload = store.stats.to_dict()
        assert payload["operations"] == 1
        assert payload["hedge_win_rate"] == 0.0
        assert payload["retry_win_rate"] == 0.0


class TestServiceConfigWrap:
    def test_wrap_store_slides_resilience_under_the_simulator(self):
        """sim:// + resilience must compose: sim on top (virtual clock
        visible through read_batch), ResilientStore guarding the real backend."""
        from repro.service.config import ServiceConfig

        inner = _mem(blob=b"abc")
        simulated = SimulatedCloudStore(backend=inner)
        wrapped = ServiceConfig(retries=2).wrap_store(simulated)
        assert isinstance(wrapped, SimulatedCloudStore)
        assert isinstance(wrapped.backend, ResilientStore)
        assert wrapped.backend.backend is inner
        assert wrapped.get("blob") == b"abc"

    def test_wrap_store_is_identity_when_disabled_or_already_wrapped(self):
        from repro.service.config import ServiceConfig

        inner = _mem()
        assert ServiceConfig().wrap_store(inner) is inner
        resilient = ResilientStore(inner)
        assert ServiceConfig(retries=3).wrap_store(resilient) is resilient
