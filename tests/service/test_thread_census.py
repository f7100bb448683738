"""Thread census: every fetch worker of a serving node belongs to one pool.

Before the store owned the ``read_batch`` pool, every opened index member —
the base, each delta, each sharded index — ran its own ``airphant-fetch``
pool and the store lazily grew one more behind its batch reads.  Now there is
one per store, however many members read through it, and
``AirphantService.close()`` ends it.  A store whose reads never wait needs
no pool at all: its batches run on the calling thread.
"""

from __future__ import annotations

from harness.corpora import SMALL_CORPUS_TEXT
from harness.stores import BlockingStore, assert_no_fetch_threads, fetch_threads

from repro.core.config import SketchConfig
from repro.service import AirphantService, SearchRequest
from repro.storage import parallel
from repro.storage.base import ObjectStore
from repro.storage.memory import InMemoryObjectStore


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
