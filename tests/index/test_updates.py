"""Tests for append-only index updates and compaction."""

import pytest

from repro.core.config import SketchConfig
from repro.index.store_layout import update_manifest_blob_name
from repro.index.updates import AppendOnlyIndexManager
from repro.parsing.corpus import LineDelimitedCorpusParser


def _documents(store, blob_name: str, lines: list[str]):
    store.put(blob_name, "\n".join(lines).encode("utf-8"))
    return list(LineDelimitedCorpusParser().parse(store, [blob_name]))


@pytest.fixture
def manager(sim_store) -> AppendOnlyIndexManager:
    config = SketchConfig(num_bins=64, seed=5)
    manager = AppendOnlyIndexManager(sim_store, base_index="logs", config=config)
    base_docs = _documents(
        sim_store,
        "corpus/base.txt",
        ["error disk one", "info start one", "error net two", "warn cpu three"],
    )
    manager.build_base(base_docs, corpus_name="base")
    return manager


class TestManifest:
    def test_empty_manifest_before_any_build(self, sim_store):
        manager = AppendOnlyIndexManager(sim_store, base_index="fresh")
        manifest = manager.manifest()
        assert manifest.base_index == "fresh"
        assert manifest.delta_indexes == ()

    def test_a_fresh_base_is_built_in_place_without_a_manifest(self, manager, sim_store):
        assert manager.manifest().all_indexes == ["logs"]
        assert not sim_store.exists(update_manifest_blob_name("logs"))
        assert sim_store.exists("logs/header.json")

    def test_append_registers_delta(self, manager, sim_store):
        manager.append(_documents(sim_store, "corpus/d1.txt", ["error gpu four"]))
        manifest = manager.manifest()
        assert manifest.delta_indexes == ("logs/delta-0000",)
        assert sim_store.exists("logs/delta-0000/header.json")

    def test_append_requires_documents(self, manager):
        with pytest.raises(ValueError):
            manager.append([])


class TestSearchAcrossDeltas:
    def test_new_documents_become_searchable(self, manager, sim_store):
        manager.append(_documents(sim_store, "corpus/d1.txt", ["error gpu four", "info done five"]))
        searcher = manager.open_searcher()
        result = searcher.search("error")
        assert {doc.text for doc in result.documents} == {
            "error disk one",
            "error net two",
            "error gpu four",
        }

    def test_multiple_appends(self, manager, sim_store):
        manager.append(_documents(sim_store, "corpus/d1.txt", ["error gpu four"]))
        manager.append(_documents(sim_store, "corpus/d2.txt", ["error mem five"]))
        assert manager.manifest().delta_indexes == ("logs/delta-0000", "logs/delta-0001")
        searcher = manager.open_searcher()
        assert len(searcher.search("error").documents) == 4

    def test_base_only_search_still_works(self, manager):
        searcher = manager.open_searcher()
        assert len(searcher.search("warn").documents) == 1


class TestCompaction:
    def test_compact_folds_deltas_into_base(self, manager, sim_store):
        manager.append(_documents(sim_store, "corpus/d1.txt", ["error gpu four"]))
        manager.append(_documents(sim_store, "corpus/d2.txt", ["info mem five"]))
        built = manager.compact()
        assert built.metadata.num_documents == 6
        manifest = manager.manifest()
        assert manifest.delta_indexes == ()
        # The swap moved the base into a fresh generation directory; the old
        # base and the folded deltas are retired (still readable for one
        # swap of grace) and purged by the *next* swap.  A fresh build_base
        # wrote no manifest; the compaction swap is generation 1.
        assert manifest.generation == 1
        assert manifest.active_base == "logs/gen-00000001"
        assert set(manifest.retired) == {"logs", "logs/delta-0000", "logs/delta-0001"}
        assert sim_store.list_blobs("logs/delta-0000/") != []
        searcher = manager.open_searcher()
        assert len(searcher.search("error").documents) == 3
        assert len(searcher.search("five").documents) == 1
        manager.compact()
        assert sim_store.list_blobs("logs/delta-0000/") == []
        assert not sim_store.exists("logs/header.json")


def _texts(manager, word: str) -> set[str]:
    searcher = manager.open_searcher()
    try:
        return {document.text for document in searcher.search(word).documents}
    finally:
        searcher.close()


class TestSwaps:
    """Rebuild, compaction and restore share one swap rule: what a swap
    replaces is retired for one swap of grace, then purged unless pinned."""

    def _rebuild(self, manager, sim_store, name: str):
        return manager.build_base(_documents(sim_store, f"corpus/{name}.txt", [f"error {name}"]))

    def test_a_rebuild_swaps_in_the_next_generation(self, manager, sim_store):
        manager.append(_documents(sim_store, "corpus/d1.txt", ["error gpu four"]))
        built = self._rebuild(manager, sim_store, "rebuilt")
        manifest = manager.manifest()
        assert built.index_name == manifest.active_base == "logs/gen-00000001"
        assert (manifest.generation, manifest.delta_indexes, manifest.next_delta) == (1, (), 1)
        assert manifest.retired == ("logs", "logs/delta-0000")
        # Readers of the old manifest keep their builds for one swap.
        assert sim_store.exists("logs/header.json")
        assert sim_store.list_blobs("logs/delta-0000/")
        assert _texts(manager, "error") == {"error rebuilt"}

    def test_the_next_swap_purges_what_the_last_one_stranded(self, manager, sim_store):
        manager.append(_documents(sim_store, "corpus/d1.txt", ["error gpu four"]))
        self._rebuild(manager, sim_store, "first")
        self._rebuild(manager, sim_store, "second")
        manifest = manager.manifest()
        assert manifest.active_base == "logs/gen-00000002"
        assert manifest.retired == ("logs/gen-00000001",)
        assert not sim_store.exists("logs/header.json")
        assert not sim_store.exists("logs/superposts.bin")
        assert sim_store.list_blobs("logs/delta-0000/") == []
        assert sim_store.list_blobs("logs/gen-00000001/")
        assert _texts(manager, "error") == {"error second"}

    def test_pinned_builds_stay_retired_until_their_snapshot_goes(self, manager, sim_store):
        manager.create_snapshot("before")
        self._rebuild(manager, sim_store, "first")
        self._rebuild(manager, sim_store, "second")
        assert set(manager.manifest().retired) == {"logs/gen-00000001", "logs"}
        assert sim_store.exists("logs/header.json")
        manager.delete_snapshot("before")
        self._rebuild(manager, sim_store, "third")
        assert manager.manifest().retired == ("logs/gen-00000002",)
        assert not sim_store.exists("logs/header.json")

    def test_a_restore_purges_what_the_previous_swap_stranded(self, manager, sim_store):
        manager.append(_documents(sim_store, "corpus/d1.txt", ["error gpu four"]))
        manager.create_snapshot("s")
        manager.compact()
        manager.append(_documents(sim_store, "corpus/d2.txt", ["error mem five"]))
        manager.compact()
        assert set(manager.manifest().retired) == {
            "logs/gen-00000001", "logs/delta-0001", "logs", "logs/delta-0000",
        }
        manager.restore_snapshot("s")
        manifest = manager.manifest()
        assert manifest.all_indexes == ["logs", "logs/delta-0000"]
        assert manifest.retired == ("logs/gen-00000002",)
        assert sim_store.list_blobs("logs/gen-00000001/") == []
        assert sim_store.list_blobs("logs/delta-0001/") == []
        assert sim_store.list_blobs("logs/gen-00000002/")
        assert _texts(manager, "error") == {"error disk one", "error net two", "error gpu four"}
