"""Tests for the index catalog: discovery, lazy open, reuse, invalidation."""

import threading

import pytest
from harness.corpora import SMALL_CORPUS_TEXT

from repro.core.config import SketchConfig
from repro.index.builder import AirphantBuilder
from repro.index.updates import AppendOnlyIndexManager
from repro.parsing.corpus import LineDelimitedCorpusParser
from repro.service.catalog import IndexCatalog
from repro.service import AirphantService, SearchRequest
from repro.service.config import ServiceConfig
from repro.storage.memory import InMemoryObjectStore


@pytest.fixture
def catalog(sim_store, built_small_index) -> IndexCatalog:
    return IndexCatalog(sim_store, ServiceConfig())


class TestDiscovery:
    def test_finds_built_indexes(self, catalog, sim_store, small_documents):
        AirphantBuilder(sim_store, config=SketchConfig(num_bins=32, seed=1)).build_from_documents(
            small_documents, index_name="second-index"
        )
        assert catalog.names() == ["second-index", "small-index"]

    def test_delta_indexes_are_not_catalog_entries(self, sim_store, small_documents):
        manager = AppendOnlyIndexManager(
            sim_store, base_index="managed", config=SketchConfig(num_bins=32, seed=1)
        )
        manager.build_base(small_documents)
        manager.append(small_documents[:2])
        catalog = IndexCatalog(sim_store)
        assert catalog.names() == ["managed"]
        assert not catalog.contains("managed/delta-0000")
        # ...but the delta is folded into the base index's searcher.
        searcher = catalog.open("managed")
        assert searcher.index_names == ["managed", "managed/delta-0000"]

    def test_contains(self, catalog):
        assert catalog.contains("small-index")
        assert not catalog.contains("missing-index")


class TestLazyOpen:
    def test_not_open_until_first_use(self, catalog):
        assert not catalog.is_open("small-index")
        catalog.open("small-index")
        assert catalog.is_open("small-index")

    def test_open_reuses_the_same_searcher(self, catalog):
        first = catalog.open("small-index")
        second = catalog.open("small-index")
        assert first is second

    def test_open_unknown_index_raises_key_error(self, catalog):
        with pytest.raises(KeyError):
            catalog.open("missing-index")

    def test_open_applies_service_config(self, sim_store, built_small_index):
        catalog = IndexCatalog(
            sim_store,
            ServiceConfig(read_cache_bytes=4096, max_concurrency=8, top_k_delta=0.01),
        )
        searcher = catalog.open("small-index")
        inner = searcher.searchers[0]
        assert inner.pipeline.cache_bytes == 4096
        assert inner.pipeline.max_concurrency == 8
        assert searcher._top_k_delta == 0.01

    def test_slow_open_of_one_index_does_not_block_an_open_one(self):
        class GateStore(InMemoryObjectStore):
            """Parks every read under ``slow/`` until the gate opens."""

            def __init__(self) -> None:
                super().__init__()
                self.gate = threading.Event()
                self.parked = threading.Event()

            def get(self, name: str) -> bytes:
                if name.startswith("slow/") and not self.gate.is_set():
                    self.parked.set()
                    self.gate.wait(timeout=30)
                return super().get(name)

        store = GateStore()
        store.gate.set()
        store.put("corpus/small.txt", SMALL_CORPUS_TEXT.encode("utf-8"))
        documents = list(LineDelimitedCorpusParser().parse(store, ["corpus/small.txt"]))
        for name in ("slow", "fast"):
            AirphantBuilder(store, config=SketchConfig(num_bins=32, seed=1)).build_from_documents(
                documents, index_name=name
            )
        service = AirphantService(store, ServiceConfig(ingest_interval_s=0))
        service.search(SearchRequest(query="error", index="fast"))
        store.gate.clear()
        slow = threading.Thread(target=service.catalog.open, args=("slow",), daemon=True)
        slow.start()
        assert store.parked.wait(timeout=5), "the slow open never reached the store"
        answers: list[int] = []
        fast = threading.Thread(
            target=lambda: answers.append(
                service.search(SearchRequest(query="error", index="fast")).num_results
            ),
            daemon=True,
        )
        fast.start()
        fast.join(timeout=5)
        try:
            assert answers and answers[0] > 0, "query to the open index blocked"
            assert not service.catalog.is_open("slow")
        finally:
            store.gate.set()
            slow.join(timeout=5)
        assert service.catalog.is_open("slow")
        service.close()

    def test_invalidate_forces_reopen(self, catalog):
        first = catalog.open("small-index")
        catalog.invalidate("small-index")
        assert not catalog.is_open("small-index")
        assert catalog.open("small-index") is not first

    def test_invalidate_all(self, catalog):
        catalog.open("small-index")
        catalog.invalidate()
        assert not catalog.is_open("small-index")


class TestInfo:
    def test_info_without_opening(self, catalog, built_small_index):
        info = catalog.info("small-index")
        assert info.name == "small-index"
        assert info.num_documents == built_small_index.metadata.num_documents
        assert info.storage_bytes > 0
        assert not info.is_open
        # Inspecting must not have opened the index.
        assert not catalog.is_open("small-index")

    def test_info_after_open_reports_open(self, catalog):
        catalog.open("small-index")
        assert catalog.info("small-index").is_open

    def test_info_unknown_index_raises(self, catalog):
        with pytest.raises(KeyError):
            catalog.info("missing-index")

    def test_info_lists_deltas(self, sim_store, small_documents):
        manager = AppendOnlyIndexManager(
            sim_store, base_index="managed", config=SketchConfig(num_bins=32, seed=1)
        )
        manager.build_base(small_documents)
        manager.append(small_documents[:2])
        info = IndexCatalog(sim_store).info("managed")
        assert info.delta_indexes == ("managed/delta-0000",)

    def test_list_infos_covers_all_names(self, catalog):
        infos = catalog.list_infos()
        assert [info.name for info in infos] == catalog.names()
