"""Failure-injection tests: damaged indexes and injected storage faults.

A production searcher must fail loudly and precisely when the persisted index
is damaged — not return silently wrong results.  And when the *storage layer*
(not the index) misbehaves, the resilience wrapper must both preserve answers
and account every retry, hedge, and timeout in its stats/registry counters —
that accounting is what operators alert on.
"""

import pytest

from repro.core.config import SketchConfig
from repro.index.builder import AirphantBuilder
from repro.index.compaction import HEADER_BLOB_SUFFIX, SUPERPOST_BLOB_SUFFIX
from repro.observability import MetricsRegistry
from repro.parsing.corpus import LineDelimitedCorpusParser
from repro.search.searcher import AirphantSearcher
from repro.storage.base import BlobNotFoundError
from repro.storage.faults import FlakyStore
from repro.storage.memory import InMemoryObjectStore
from repro.storage.resilient import ResilientStore


@pytest.fixture
def index_blobs(built_small_index):
    return (
        f"{built_small_index.index_name}/{HEADER_BLOB_SUFFIX}",
        f"{built_small_index.index_name}/{SUPERPOST_BLOB_SUFFIX}",
    )


class TestMissingBlobs:
    def test_missing_header_fails_initialization(self, sim_store, built_small_index, index_blobs):
        header_blob, _ = index_blobs
        sim_store.delete(header_blob)
        with pytest.raises(BlobNotFoundError):
            AirphantSearcher.open(sim_store, index_name=built_small_index.index_name)

    def test_opening_a_nonexistent_index_fails(self, sim_store):
        with pytest.raises(BlobNotFoundError):
            AirphantSearcher.open(sim_store, index_name="never-built")

    def test_missing_superpost_blob_fails_query_not_init(
        self, sim_store, built_small_index, index_blobs
    ):
        _, superpost_blob = index_blobs
        searcher = AirphantSearcher.open(sim_store, index_name=built_small_index.index_name)
        sim_store.delete(superpost_blob)
        with pytest.raises(BlobNotFoundError):
            searcher.search("error")

    def test_missing_document_blob_fails_retrieval(self, sim_store, built_small_index):
        searcher = AirphantSearcher.open(sim_store, index_name=built_small_index.index_name)
        sim_store.delete("corpus/small.txt")
        with pytest.raises(BlobNotFoundError):
            searcher.search("error")


class TestCorruptedBlobs:
    def test_corrupted_header_is_rejected(self, sim_store, built_small_index, index_blobs):
        header_blob, _ = index_blobs
        sim_store.put(header_blob, b"{ not json at all")
        with pytest.raises(Exception):
            AirphantSearcher.open(sim_store, index_name=built_small_index.index_name)

    def test_header_of_wrong_format_is_rejected(self, sim_store, built_small_index, index_blobs):
        header_blob, _ = index_blobs
        sim_store.put(header_blob, b'{"magic": "something-else"}')
        with pytest.raises(ValueError):
            AirphantSearcher.open(sim_store, index_name=built_small_index.index_name)

    def test_truncated_superposts_fail_decoding(self, sim_store, built_small_index, index_blobs):
        _, superpost_blob = index_blobs
        original = sim_store.backend.get(superpost_blob)
        sim_store.put(superpost_blob, original[: len(original) // 4])
        searcher = AirphantSearcher.open(sim_store, index_name=built_small_index.index_name)
        with pytest.raises(ValueError):
            # Some queries may still hit intact prefixes; sweep several words
            # so at least one read crosses the truncation point.
            for word in ["error", "info", "warn", "node1", "node2", "node3", "beta", "alpha"]:
                searcher.search(word)

    def test_rebuilding_after_corruption_recovers(self, sim_store, small_documents, small_config):
        from repro.index.builder import AirphantBuilder

        builder = AirphantBuilder(sim_store, config=small_config)
        built = builder.build_from_documents(small_documents, index_name="recover-index")
        sim_store.put(built.header_blob, b"garbage")
        # Rebuild in place; a fresh searcher must work again.
        builder.build_from_documents(small_documents, index_name="recover-index")
        searcher = AirphantSearcher.open(sim_store, index_name="recover-index")
        assert len(searcher.search("error").documents) == 5


WALL_CLOCK_CORPUS = "\n".join(
    [
        "error disk full on node1",
        "info service started on node1",
        "error timeout connecting to node2",
        "warn retry after error on node3",
        "error disk failure on node3",
        "info heartbeat ok node2",
    ]
)


@pytest.fixture
def flaky_base() -> InMemoryObjectStore:
    """A wall-clock (in-memory) store with a small index already built."""
    base = InMemoryObjectStore()
    base.put("corpus/small.txt", WALL_CLOCK_CORPUS.encode("utf-8"))
    documents = list(LineDelimitedCorpusParser().parse(base, ["corpus/small.txt"]))
    AirphantBuilder(base, config=SketchConfig(num_bins=64, seed=7)).build_from_documents(
        documents, index_name="small-index"
    )
    return base


class TestResilienceCounters:
    """Injected faults must be visible in the retry/hedge/timeout counters."""

    def test_retries_absorb_injected_errors_and_are_counted(self, flaky_base):
        registry = MetricsRegistry()
        flaky = FlakyStore(flaky_base, error_rate=0.25, seed=3)
        store = ResilientStore(
            flaky, retries=6, backoff_ms=0.1, backoff_jitter=0.0, metrics=registry
        )
        searcher = AirphantSearcher.open(store, index_name="small-index")
        clean = AirphantSearcher.open(flaky_base, index_name="small-index")
        for word in ["error", "disk", "node3", "info"]:
            assert [d.text for d in searcher.search(word).documents] == [
                d.text for d in clean.search(word).documents
            ]
        searcher.close()
        clean.close()

        stats = store.stats
        assert flaky.injected_errors > 0
        assert stats.retries > 0
        assert stats.recoveries > 0
        assert stats.failures == 0
        # attempts = operations + retries, exactly — no lost updates even
        # though pool threads report concurrently.
        assert stats.attempts == stats.operations + stats.retries
        # The registry mirrors the stats: one accounting path, two views.
        assert (
            registry.counter("airphant_resilience_retries_total").value()
            == stats.retries
        )
        assert (
            registry.counter("airphant_resilience_recoveries_total").value()
            == stats.recoveries
        )
        store.close()

    def test_hedge_wins_when_a_slow_replica_is_injected(self, flaky_base):
        registry = MetricsRegistry()
        flaky = FlakyStore(flaky_base, slow_ms=250.0, seed=0)
        store = ResilientStore(flaky, retries=0, hedge_ms=10.0, metrics=registry)
        # Exactly one scripted straggler: the read that draws it sleeps
        # 250 ms, its hedge fires after the 10 ms floor, answers instantly,
        # and wins the race — deterministically, whichever of the query's
        # concurrent reads consumed the scripted outcome.
        # (Scripted after the open, whose first read is the shard-manifest
        # probe: a 404 there would consume the straggler without a winner.)
        searcher = AirphantSearcher.open(store, index_name="small-index")
        flaky.script(["slow"])
        result = searcher.search("error")
        assert len(result.documents) == 4
        searcher.close()

        assert flaky.injected_slow == 1
        assert store.stats.hedges == 1
        assert store.stats.hedge_wins == 1
        assert registry.counter("airphant_resilience_hedges_total").value() == 1
        assert registry.counter("airphant_resilience_hedge_wins_total").value() == 1
        store.close()

    def test_timeouts_are_counted_and_rescued_by_retry(self, flaky_base):
        registry = MetricsRegistry()
        flaky_base.put("blob", b"payload")
        flaky = FlakyStore(flaky_base, slow_ms=400.0, seed=0)
        store = ResilientStore(
            flaky, retries=1, backoff_ms=0.1, timeout_s=0.05, metrics=registry
        )
        flaky.script(["slow", "ok"])
        assert store.get("blob") == b"payload"
        assert store.stats.timeouts == 1
        assert store.stats.retries == 1
        assert store.stats.recoveries == 1
        assert store.stats.failures == 0
        assert registry.counter("airphant_resilience_timeouts_total").value() == 1
        store.close()
