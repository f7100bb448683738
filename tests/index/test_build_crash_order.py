"""A build's header is its commit point.

The Builder writes ``superposts.bin``, then ``stats.json``, then
``header.json``.  Killing a fresh ``build_index`` before any one of its
PUTs (:class:`harness.crashpoints.FaultPointStore`) therefore leaves either
no index at all — the name answers ``404 index_not_found`` — or one that
answers a ranked query: never a header without its statistics.
"""

from __future__ import annotations

import pytest
from harness.crashpoints import FaultPointStore, SimulatedCrash

from repro.service import AirphantService, SearchRequest, ServiceConfig, ServiceError
from repro.storage.memory import InMemoryObjectStore

CORPUS = b"error disk full\ninfo service ok\nwarn slow response\nerror net down\n"
SERVICE = ServiceConfig(ingest_interval_s=0)


def _backend() -> InMemoryObjectStore:
    backend = InMemoryObjectStore()
    backend.put("corpus/base.txt", CORPUS)
    return backend


def _build_puts(shards: int) -> list[str]:
    """The blobs a fresh ``build_index`` PUTs, in order."""
    store = FaultPointStore(_backend())
    with AirphantService(store, SERVICE) as service:
        service.build_index("idx", ["corpus/base.txt"], num_shards=shards)
    return [blob for op, blob in store.mutation_log if op == "put"]


@pytest.mark.parametrize("shards", [1, 2], ids=["plain", "sharded"])
def test_a_build_killed_before_any_put_is_absent_or_ranked(shards):
    puts = _build_puts(shards)
    for at, blob in enumerate(puts):
        backend = _backend()
        store = FaultPointStore(backend)
        point = store.arm("put", blob, when="before", skip=puts[:at].count(blob))
        with AirphantService(store, SERVICE) as service:
            with pytest.raises(SimulatedCrash):
                service.build_index("idx", ["corpus/base.txt"], num_shards=shards)
        assert point.fired
        # "Restart": a fresh node over what reached the backend.
        with AirphantService(backend, SERVICE) as service:
            ranked = SearchRequest(query="error", index="idx", mode="topk_bm25", top_k=2)
            try:
                result = service.search(ranked)
            except ServiceError as error:
                assert (error.info.status, error.info.error) == (404, "index_not_found"), blob
            else:
                assert len(result.documents) == 2, blob
    build = ("idx/superposts.bin", "idx/stats.json", "idx/header.json")
    assert [blob for blob in puts if blob in build] == list(build)
