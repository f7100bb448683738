"""Tests for LiveIndex / IngestCoordinator (the write-path state machine)."""

from __future__ import annotations

import pytest

from repro.core.config import SketchConfig
from repro.index.builder import AirphantBuilder
from repro.ingest.live import IngestCoordinator, LiveIndex
from repro.observability import MetricsRegistry
from repro.parsing.corpus import LineDelimitedCorpusParser
from repro.search.searcher import AirphantSearcher
from repro.service.config import ServiceConfig
from repro.storage.base import TransientStoreError
from repro.storage.memory import InMemoryObjectStore

CORPUS = b"error disk full\ninfo service ok\nwarn slow response\n"


def _base(store: InMemoryObjectStore, num_shards: int = 1) -> None:
    store.put("corpus/base.txt", CORPUS)
    documents = list(LineDelimitedCorpusParser().parse(store, ["corpus/base.txt"]))
    AirphantBuilder(
        store, config=SketchConfig(num_bins=64, seed=3), num_shards=num_shards
    ).build_from_documents(documents, index_name="idx")


def _live(store, **config) -> tuple[LiveIndex, list[str]]:
    invalidated: list[str] = []
    live = LiveIndex(
        store,
        "idx",
        ServiceConfig(ingest_interval_s=0, **config),
        MetricsRegistry(),
        invalidated.append,
    )
    return live, invalidated


def _memtable_texts(live: LiveIndex) -> set[str]:
    searcher = AirphantSearcher(members=live.memtable_members())
    return {
        document.text
        for document in searcher.search_boolean("error OR info OR warn OR fresh").documents
    }


class TestAppend:
    def test_append_is_wal_durable_and_immediately_searchable(self):
        store = InMemoryObjectStore()
        _base(store)
        live, _ = _live(store)
        outcome = live.append(["error fresh event"])
        assert outcome["appended"] == 1
        assert store.exists(outcome["wal_segment"])
        assert "error fresh event" in _memtable_texts(live)
        assert live.memtable_documents() == 1

    def test_append_rejects_bad_documents(self):
        store = InMemoryObjectStore()
        _base(store)
        live, _ = _live(store)
        with pytest.raises(ValueError):
            live.append(["with\nnewline"])
        # Nothing durable, nothing searchable.
        assert live.wal.manifest().active_segments == ()
        assert live.memtable_documents() == 0


class TestFlush:
    def test_flush_builds_delta_and_retires_segments(self):
        store = InMemoryObjectStore()
        _base(store)
        live, invalidated = _live(store)
        live.append(["error fresh one", "info fresh two"])
        outcome = live.flush()
        assert outcome["flushed"] == 2
        assert outcome["delta"] == "idx/delta-0000"
        assert live.memtable_documents() == 0
        assert live.wal.manifest().active_segments == ()
        assert live.delta_count == 1
        assert invalidated == ["idx"]
        # The delta is searchable through the manager's combined searcher,
        # with postings pointing into the WAL segment blob.
        searcher = live.manager.open_searcher()
        hits = searcher.search("fresh").documents
        assert {d.text for d in hits} == {"error fresh one", "info fresh two"}
        assert all(d.blob.startswith("idx/ingest/seg-") for d in hits)

    def test_flush_of_empty_memtable_is_a_noop(self):
        store = InMemoryObjectStore()
        _base(store)
        live, invalidated = _live(store)
        assert live.flush() is None
        assert invalidated == []

    def test_failed_flush_keeps_documents_searchable_and_durable(self, monkeypatch):
        store = InMemoryObjectStore()
        _base(store)
        live, _ = _live(store)
        live.append(["error fresh one"])

        def boom(*args, **kwargs):
            raise TransientStoreError("store down")

        monkeypatch.setattr(live.manager, "append", boom)
        with pytest.raises(TransientStoreError):
            live.flush()
        # The documents fell back into the active memtable and the WAL still
        # lists their segment: the next flush retries them.
        assert "error fresh one" in _memtable_texts(live)
        assert len(live.wal.manifest().active_segments) == 1
        monkeypatch.undo()
        outcome = live.flush()
        assert outcome is not None and outcome["flushed"] == 1


class TestCompact:
    def test_compact_flushes_then_folds_deltas(self):
        store = InMemoryObjectStore()
        _base(store)
        live, _ = _live(store)
        live.append(["error fresh one"])
        live.flush()
        live.append(["warn fresh two"])  # unflushed at compact time
        outcome = live.compact()
        assert outcome is not None
        assert outcome["deltas_folded"] == 2  # the flushed one + compact's own flush
        assert live.delta_count == 0
        manifest = live.manager.manifest()
        assert manifest.delta_indexes == ()
        assert manifest.active_base.startswith("idx/gen-")
        searcher = live.manager.open_searcher()
        assert {d.text for d in searcher.search("fresh").documents} == {
            "error fresh one",
            "warn fresh two",
        }

    def test_compact_with_nothing_to_fold_is_a_noop(self):
        store = InMemoryObjectStore()
        _base(store)
        live, _ = _live(store)
        assert live.compact() is None

    def test_compact_preserves_a_sharded_base_layout(self):
        from repro.index.sharding import read_shard_manifest

        store = InMemoryObjectStore()
        _base(store, num_shards=2)
        live, _ = _live(store)
        live.append(["error fresh one"])
        outcome = live.compact()
        assert outcome is not None
        manifest = live.manager.manifest()
        assert read_shard_manifest(store, manifest.active_base).num_shards == 2


class TestPolicies:
    def test_flush_policy_triggers_on_documents_and_bytes(self):
        store = InMemoryObjectStore()
        _base(store)
        live, _ = _live(store, ingest_flush_docs=2)
        live.append(["error fresh one"])
        assert not live.should_flush()
        live.append(["warn fresh two"])
        assert live.should_flush()

        live_bytes, _ = _live(store, ingest_flush_bytes=10)
        live_bytes.append(["error something long enough"])
        assert live_bytes.should_flush()

    def test_compact_policy_triggers_on_delta_count(self):
        store = InMemoryObjectStore()
        _base(store)
        live, _ = _live(store, ingest_compact_deltas=2)
        live.append(["error fresh one"])
        live.flush()
        assert not live.should_compact()
        live.append(["warn fresh two"])
        live.flush()
        assert live.should_compact()

    def test_compact_policy_triggers_on_byte_ratio(self):
        store = InMemoryObjectStore()
        _base(store)
        # Any delta at all exceeds a tiny ratio.
        live, _ = _live(store, ingest_compact_deltas=0, ingest_compact_ratio=0.0001)
        assert not live.should_compact()
        live.append(["error fresh one"])
        live.flush()
        assert live.should_compact()


class TestCoordinator:
    def _coordinator(self, store, **config):
        invalidated: list[str] = []
        coordinator = IngestCoordinator(
            store,
            ServiceConfig(ingest_interval_s=0, **config),
            MetricsRegistry(),
            invalidated.append,
        )
        return coordinator, invalidated

    def test_live_is_created_on_demand_and_reused(self):
        store = InMemoryObjectStore()
        _base(store)
        coordinator, _ = self._coordinator(store)
        assert coordinator.live("idx") is None  # no write state yet
        live = coordinator.live("idx", create=True)
        assert coordinator.live("idx") is live
        coordinator.close()

    def test_leftover_wal_state_is_replayed_on_first_touch(self):
        store = InMemoryObjectStore()
        _base(store)
        writer, _ = self._coordinator(store)
        writer.live("idx", create=True).append(["error fresh one"])
        writer.close()
        # A second coordinator (fresh process) discovers the WAL on first
        # query-side touch and replays it.
        reader, _ = self._coordinator(store)
        members = reader.live("idx").memtable_members()
        assert len(members) == 1
        assert _memtable_texts(reader.live("idx")) == {"error fresh one"}
        reader.close()

    def test_run_maintenance_applies_the_policies(self):
        store = InMemoryObjectStore()
        _base(store)
        coordinator, _ = self._coordinator(
            store, ingest_flush_docs=1, ingest_compact_deltas=1
        )
        live = coordinator.live("idx", create=True)
        live.append(["error fresh one"])
        outcome = coordinator.run_maintenance()
        assert outcome["flushed"] == 1
        assert outcome["compacted"] == 1
        assert outcome["errors"] == 0
        assert live.memtable_documents() == 0
        assert live.delta_count == 0
        coordinator.close()

    def test_discard_with_destroy_removes_wal(self):
        store = InMemoryObjectStore()
        _base(store)
        coordinator, _ = self._coordinator(store)
        coordinator.live("idx", create=True).append(["error fresh one"])
        coordinator.discard("idx", destroy_wal=True)
        assert store.list_blobs(prefix="idx/ingest/") == []
        assert coordinator.live("idx") is None
        coordinator.close()
