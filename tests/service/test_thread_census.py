"""Thread census: every fetch worker of a serving node belongs to one pool.

Before the store owned the ``read_batch`` pool, every opened index member —
the base, each delta, each sharded index — ran its own ``airphant-fetch``
pool and the store lazily grew one more behind its batch reads.  Now there is
one per store, however many members read through it, and
``AirphantService.close()`` ends it.  A store whose reads never wait needs
no pool at all: its batches run on the calling thread.  Hedges start no
pool of their own: a resilient store's racers ride its wrapped store's
fetch pool, and the router's ride its one pool.
"""

from __future__ import annotations

import threading
import time

from harness.corpora import SMALL_CORPUS_TEXT
from harness.stores import BlockingStore, assert_no_fetch_threads, fetch_threads

from repro.cluster.router import QueryRouter
from repro.core.config import SketchConfig
from repro.observability import MetricsRegistry
from repro.service import AirphantService, SearchRequest
from repro.service.api import SearchResponse
from repro.storage import parallel
from repro.storage.base import ObjectStore, RangeRead
from repro.storage.memory import InMemoryObjectStore
from repro.storage.resilient import ResilientStore


def _serve(store: ObjectStore, after_each_step=lambda: None) -> AirphantService:
    """A service over ``store`` with a 3-delta index ``live`` and a 4-shard ``wide``,
    queried by keyword, boolean and top-k BM25; ``after_each_step`` runs between
    the steps."""
    store.put("corpora/logs.txt", SMALL_CORPUS_TEXT.encode("utf-8"))
    service = AirphantService(store)
    config = SketchConfig(num_bins=64, seed=7)
    service.build_index("live", ["corpora/logs.txt"], sketch_config=config)
    after_each_step()
    service.build_index("wide", ["corpora/logs.txt"], sketch_config=config, num_shards=4)
    after_each_step()
    for batch in (["error appended one"], ["error appended two"], ["warn appended three"]):
        service.append_documents("live", batch)
        after_each_step()
        service.flush_index("live")
        after_each_step()
    assert len(service.index_info("live").delta_indexes) >= 2

    assert service.search(SearchRequest(query="error", index="live")).num_results == 7
    after_each_step()
    assert service.search(SearchRequest(query="error", index="wide")).num_results == 5
    after_each_step()
    assert service.search(SearchRequest(query="error OR warn", index="live", mode="boolean"))
    after_each_step()
    assert service.search(SearchRequest(query="error", index="wide", mode="topk_bm25", top_k=3))
    after_each_step()
    service.index_info("wide")  # answered from the opened member
    return service


def test_base_deltas_and_shards_share_one_pool_and_close_ends_it():
    assert_no_fetch_threads()
    # Reads that wait put the batches on the store's pool.
    store = BlockingStore(InMemoryObjectStore())
    service = _serve(store)

    live = service.searcher("live")
    assert len(live.searchers) >= 3  # base + deltas, each once a pool of its own
    workers = fetch_threads()
    assert workers
    executor = store.__dict__["_fetch_pool"]._pool
    assert set(workers) <= executor._threads, "a fetch thread outside the store's one pool"

    service.close()
    assert store.__dict__["_fetch_pool"]._pool is None
    assert_no_fetch_threads()
    # Non-poisoning: the next query reopens the index on a fresh pool.
    assert service.search(SearchRequest(query="error", index="live")).num_results == 7
    service.close()
    assert_no_fetch_threads()


def test_a_memory_store_node_never_starts_a_fetch_thread(monkeypatch):
    """Build, append, flush, compact and query — keyword, boolean, BM25 top-k,
    4 shards — on ``mem://``: no read waits, so no ``airphant-fetch`` thread
    ever exists and no fetch executor is ever built."""
    assert_no_fetch_threads()
    executors: list[object] = []
    real_executor = parallel.ThreadPoolExecutor

    def recording_executor(*args, **kwargs):
        executors.append(kwargs.get("thread_name_prefix"))
        return real_executor(*args, **kwargs)

    monkeypatch.setattr(parallel, "ThreadPoolExecutor", recording_executor)
    seen: list[str] = []

    def census() -> None:
        seen.extend(thread.name for thread in fetch_threads())

    store = InMemoryObjectStore()
    service = _serve(store, census)
    assert service.compact_index("live")["compacted"]
    census()
    assert service.search(SearchRequest(query="error", index="live")).num_results == 7
    census()
    assert service.search(SearchRequest(query="error", index="wide", mode="topk_bm25", top_k=3))
    census()
    service.close()
    assert seen == []
    assert executors == []
    assert store.__dict__["_fetch_pool"].width == 0


def _thread_names() -> set[str]:
    return {thread.name for thread in threading.enumerate()}


def test_hedges_start_no_pool_and_close_ends_the_router_pool():
    """Hedged reads and hedged routes both hedge, on pools that already exist:
    no ``airphant-hedge*`` or ``airphant-router-hedge*`` thread ever runs, and
    closing the router leaves none of its threads behind."""
    seen: set[str] = set()
    backend = BlockingStore(InMemoryObjectStore(), delay_s=0.02)
    backend.put("blob", bytes(range(64)))
    store = ResilientStore(backend, retries=0, hedge_ms=1.0)
    requests = [RangeRead("blob", offset, 8) for offset in range(0, 64, 8)]
    assert store.read_batch(requests, max_concurrency=8).payloads == [
        bytes(range(offset, offset + 8)) for offset in range(0, 64, 8)
    ]
    seen |= _thread_names()
    assert store.stats.hedges > 0

    def transport(url, path, payload, timeout_s, headers=None):
        time.sleep(0.02)  # every node request outlasts the hedge delay
        return SearchResponse(query="q", index="logs", mode="keyword").to_dict()

    peers = ("http://n1", "http://n2", "http://n3")
    registry = MetricsRegistry()
    router = QueryRouter(
        peers, node_hedge_ms=1.0, probe_interval_s=0, transport=transport, metrics=registry
    )
    for _ in range(3):
        assert router.route(SearchRequest(query="q", index="logs")).index == "logs"
        seen |= _thread_names()
    assert registry.get("airphant_router_hedges_total").total > 0
    store.close()
    router.close()

    assert not any(name.startswith(("airphant-hedge", "airphant-router-hedge")) for name in seen)
    assert any(name.startswith("airphant-router") for name in seen)
    router_threads = [
        thread for thread in threading.enumerate() if thread.name.startswith("airphant-router")
    ]
    for thread in router_threads:
        thread.join(5.0)
    assert not any(thread.is_alive() for thread in router_threads)
    assert_no_fetch_threads()
