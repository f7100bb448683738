"""A query on a writing node never waits for a store call of the write path.

Queries take :class:`~repro.ingest.live.LiveIndex`'s write lock to snapshot
the memtables; every PUT of the write path — a segment, and the manifest
commit of a block reservation or a delete — runs under the commit lock
instead.  A store whose PUTs park until released pins that: a search on
the same service answers while an append, then a delete, hangs in its PUT.
"""

from __future__ import annotations

import threading

import pytest
from harness.stores import CountingStore

from repro.core.config import SketchConfig
from repro.parsing.documents import Posting
from repro.service.config import ServiceConfig
from repro.service.facade import AirphantService
from repro.storage.memory import InMemoryObjectStore
from repro.workloads.logs import generate_log_corpus

CONFIG = SketchConfig(num_bins=256, target_false_positives=1.0, seed=7)

#: How long a thread may take to do what the test waits for.
PATIENCE_S = 10.0


class ParkingStore(CountingStore):
    """Parks every PUT whose blob name contains ``pattern`` while armed."""

    def __init__(self, backend, pattern: str) -> None:
        super().__init__(backend)
        self.pattern = pattern
        self.release = threading.Event()
        self.release.set()
        self.parked = threading.Event()

    def arm(self) -> None:
        self.parked.clear()
        self.release.clear()

    def put(self, name: str, data: bytes) -> None:
        if self.pattern in name and not self.release.is_set():
            self.parked.set()
            self.release.wait(PATIENCE_S)
        super().put(name, data)


def _in_thread(fn) -> tuple[threading.Thread, list]:
    outcome: list = []
    thread = threading.Thread(target=lambda: outcome.append(fn()), daemon=True)
    thread.start()
    return thread, outcome


def _search_returns(service: AirphantService, query: str) -> set[str]:
    thread, outcome = _in_thread(lambda: service.searcher("idx").search(query).documents)
    thread.join(PATIENCE_S)
    assert not thread.is_alive(), "the query waited on a parked write"
    return {document.text for document in outcome[0]}


@pytest.mark.parametrize("pattern", ["idx/manifest.json", "idx/ingest/"])
def test_a_search_returns_while_an_append_and_a_delete_are_parked(pattern):
    backend = InMemoryObjectStore()
    corpus = generate_log_corpus(backend, "hdfs", 60, seed=11)
    store = ParkingStore(backend, pattern)
    with AirphantService(store, ServiceConfig(ingest_interval_s=0)) as service:
        service.build_index("idx", corpus.blob_names, sketch_config=CONFIG)
        assert _search_returns(service, "parked") == set()

        store.arm()
        append, appended = _in_thread(
            lambda: service.append_documents("idx", ["error parked event"])
        )
        assert store.parked.wait(PATIENCE_S)
        assert _search_returns(service, "parked") == set()  # not acknowledged yet
        store.release.set()
        append.join(PATIENCE_S)
        assert _search_returns(service, "parked") == {"error parked event"}

        ref = Posting(**appended[0]["refs"][0])
        store.pattern = "idx/manifest.json"  # a delete's one PUT
        store.arm()
        delete, _ = _in_thread(lambda: service.delete_documents("idx", [ref]))
        assert store.parked.wait(PATIENCE_S)
        assert _search_returns(service, "parked") == {"error parked event"}
        store.release.set()
        delete.join(PATIENCE_S)
        assert not delete.is_alive()
        assert _search_returns(service, "parked") == set()
