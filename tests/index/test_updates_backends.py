"""AppendOnlyIndexManager over sharded bases and real(istic) backends.

The single-shard ``mem://`` path is covered by ``test_updates.py``; these
tests exercise the two previously untested axes the manager must handle:

* a **sharded** base (append, generation-safe compaction that preserves
  the shard layout), and
* an emulated **``s3://``** backend from ``tests/harness`` (every manifest
  write, delta build, and compaction swap issuing real HTTP traffic).
"""

from __future__ import annotations

import pytest

from repro.core.config import SketchConfig
from repro.index.builder import AirphantBuilder
from repro.index.store_layout import open_headers
from repro.index.updates import AppendOnlyIndexManager
from repro.parsing.corpus import LineDelimitedCorpusParser
from repro.parsing.documents import Document
from repro.storage.registry import open_store

BASE_LINES = [
    "error disk full node1",
    "info service started node2",
    "warn retry after timeout node3",
    "error net partition node4",
    "info heartbeat ok node5",
    "error cpu hot node6",
]

CONFIG = SketchConfig(num_bins=64, seed=5)


def _seed_base(store, num_shards: int) -> list[Document]:
    store.put("corpus/base.txt", ("\n".join(BASE_LINES) + "\n").encode("utf-8"))
    documents = list(LineDelimitedCorpusParser().parse(store, ["corpus/base.txt"]))
    AirphantBuilder(store, config=CONFIG, num_shards=num_shards).build_from_documents(
        documents, index_name="idx"
    )
    return documents


def _extra(store, blob: str, lines: list[str]) -> list[Document]:
    store.put(blob, ("\n".join(lines) + "\n").encode("utf-8"))
    return list(LineDelimitedCorpusParser().parse(store, [blob]))


def _drive_full_lifecycle(store, num_shards: int) -> None:
    """append → search → compact → append → compact over any backend."""
    base_documents = _seed_base(store, num_shards)
    manager = AppendOnlyIndexManager(store, base_index="idx", config=CONFIG)

    manager.append(_extra(store, "corpus/d1.txt", ["error fresh alpha"]))
    manager.append(_extra(store, "corpus/d2.txt", ["info fresh beta"]))
    searcher = manager.open_searcher()
    assert {d.text for d in searcher.search("fresh").documents} == {
        "error fresh alpha",
        "info fresh beta",
    }
    searcher.close()

    manager.compact()
    manifest = manager.manifest()
    assert manifest.delta_indexes == ()
    assert manifest.active_base == "idx/gen-00000001"
    (base,) = open_headers(store, [manifest.active_base]).builds
    # The new base spans the (possibly sharded) base and both deltas.
    assert base.header.metadata_of().num_documents == len(base_documents) + 2
    if num_shards > 1:
        assert base.manifest.num_shards == num_shards
    searcher = manager.open_searcher()
    assert len(searcher.search("error").documents) == 4  # 3 base + 1 delta
    assert {d.text for d in searcher.search("fresh").documents} == {
        "error fresh alpha",
        "info fresh beta",
    }
    searcher.close()

    # A second round: deltas after compaction get fresh (monotonic) numbers,
    # and the next compaction purges what the first one retired.
    manager.append(_extra(store, "corpus/d3.txt", ["warn fresh gamma"]))
    assert manager.manifest().delta_indexes == ("idx/delta-0002",)
    manager.compact()
    assert store.list_blobs(prefix="idx/delta-0000") == []
    if num_shards > 1:
        assert store.list_blobs(prefix="idx/shard-") == []
    searcher = manager.open_searcher()
    assert {d.text for d in searcher.search("fresh").documents} == {
        "error fresh alpha",
        "info fresh beta",
        "warn fresh gamma",
    }
    searcher.close()


class TestShardedBase:
    def test_full_lifecycle_over_a_sharded_base(self, memory_store):
        _drive_full_lifecycle(memory_store, num_shards=3)

    def test_generation_swap_is_atomic_for_concurrent_readers(self, memory_store):
        _seed_base(memory_store, num_shards=2)
        manager = AppendOnlyIndexManager(memory_store, base_index="idx", config=CONFIG)
        manager.append(_extra(memory_store, "corpus/d1.txt", ["error fresh alpha"]))
        # A reader opens the pre-compaction snapshot...
        reader = manager.open_searcher()
        before = {d.text for d in reader.search("error").documents}
        manager.compact()
        # ...and keeps answering identically afterwards: its blobs are
        # retired, not deleted, until the *next* compaction.
        assert {d.text for d in reader.search("error").documents} == before
        reader.close()


class TestEmulatedS3:
    @pytest.fixture
    def s3_store(self, s3_emulator):
        store = open_store(s3_emulator.uri())
        yield store
        store.close()

    def test_full_lifecycle_over_s3_single_shard(self, s3_store):
        _drive_full_lifecycle(s3_store, num_shards=1)

    def test_full_lifecycle_over_s3_sharded(self, s3_store):
        _drive_full_lifecycle(s3_store, num_shards=2)
