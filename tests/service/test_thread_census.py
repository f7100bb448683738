"""Thread census: every fetch worker of a serving node belongs to one pool.

Before the store owned the ``read_batch`` pool, every opened index member —
the base, each delta, each sharded index — ran its own ``airphant-fetch``
pool and the store lazily grew one more behind its batch reads.  Now there is
one per store, however many members read through it, and
``AirphantService.close()`` ends it.
"""

from __future__ import annotations

from harness.corpora import SMALL_CORPUS_TEXT
from harness.stores import assert_no_fetch_threads, fetch_threads

from repro.core.config import SketchConfig
from repro.service import AirphantService, SearchRequest
from repro.storage.memory import InMemoryObjectStore


def test_base_deltas_and_shards_share_one_pool_and_close_ends_it():
    assert_no_fetch_threads()
    store = InMemoryObjectStore()
    store.put("corpora/logs.txt", SMALL_CORPUS_TEXT.encode("utf-8"))
    service = AirphantService(store)
    config = SketchConfig(num_bins=64, seed=7)
    service.build_index("live", ["corpora/logs.txt"], sketch_config=config)
    service.build_index("wide", ["corpora/logs.txt"], sketch_config=config, num_shards=4)
    for batch in (["error appended one"], ["error appended two"], ["warn appended three"]):
        service.append_documents("live", batch)
        service.flush_index("live")
    assert len(service.index_info("live").delta_indexes) >= 2

    assert service.search(SearchRequest(query="error", index="live")).num_results == 7
    assert service.search(SearchRequest(query="error", index="wide")).num_results == 5
    assert service.search(SearchRequest(query="error OR warn", index="live", mode="boolean"))
    assert service.search(SearchRequest(query="error", index="wide", mode="topk_bm25", top_k=3))
    service.index_info("wide")  # answered from the opened member

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
