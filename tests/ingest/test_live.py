"""Tests for LiveIndex / IngestCoordinator (the write-path state machine)."""

from __future__ import annotations

import sys
import threading

import pytest

from repro.core.config import SketchConfig
from repro.index.builder import AirphantBuilder
from repro.ingest.live import IngestCoordinator, LiveIndex
from repro.observability import MetricsRegistry
from repro.parsing.corpus import LineDelimitedCorpusParser
from repro.search.searcher import AirphantSearcher
from repro.service.catalog import IndexCatalog
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


def _live(store, **config) -> tuple[LiveIndex, IndexCatalog]:
    """A live index committing through the manager of a catalog over ``store``."""
    config = ServiceConfig(ingest_interval_s=0, **config)
    catalog = IndexCatalog(store, config)
    live = LiveIndex(store, "idx", config, MetricsRegistry(), catalog.manager("idx"))
    return live, catalog


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
        assert live.wal.unflushed == ()
        assert live.memtable_documents() == 0


class TestFlush:
    def test_flush_builds_delta_and_retires_segments(self):
        store = InMemoryObjectStore()
        _base(store)
        live, catalog = _live(store)
        assert catalog.open("idx").index_names == ["idx"]
        live.append(["error fresh one", "info fresh two"])
        outcome = live.flush()
        assert outcome["flushed"] == 2
        assert outcome["delta"] == "idx/delta-0000"
        assert live.memtable_documents() == 0
        assert live.wal.unflushed == ()
        assert live.delta_count == 1
        # The manager's manifest names the delta, and the catalog's next
        # open serves it.
        assert live.manager.manifest().delta_indexes == ("idx/delta-0000",)
        assert catalog.open("idx").index_names == ["idx", "idx/delta-0000"]
        # The delta is searchable through the manager's combined searcher,
        # with postings pointing into the WAL segment blob.
        searcher = live.manager.open_searcher()
        hits = searcher.search("fresh").documents
        assert {d.text for d in hits} == {"error fresh one", "info fresh two"}
        assert all(d.blob.startswith("idx/ingest/seg-") for d in hits)

    def test_flush_of_empty_memtable_is_a_noop(self):
        store = InMemoryObjectStore()
        _base(store)
        live, catalog = _live(store)
        opened = catalog.open("idx")
        before = live.manager.manifest()
        assert live.flush() is None
        assert live.manager.manifest() == before
        assert catalog.open("idx") is opened

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
        assert len(live.wal.unflushed) == 1
        monkeypatch.undo()
        outcome = live.flush()
        assert outcome is not None and outcome["flushed"] == 1


class TestConcurrentAppendsAndFlushes:
    def test_every_acked_append_survives_a_restart_exactly_once(self):
        # More appenders than cores, flushes in between, a short switch
        # interval: a flush that sealed while an append was between its
        # segment PUT and the memtable would retire a segment whose
        # documents never reached a delta, and the restart would lose them.
        store = InMemoryObjectStore()
        _base(store)
        live, _ = _live(store)
        acked: list[str] = []
        lock = threading.Lock()

        def appender(worker: int) -> None:
            for n in range(30):
                text = f"stress worker{worker} number{n}"
                live.append([text])
                with lock:
                    acked.append(text)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=appender, args=(w,)) for w in range(4)]
            for thread in threads:
                thread.start()
            while any(thread.is_alive() for thread in threads):
                live.flush()
            for thread in threads:
                thread.join(30)
                assert not thread.is_alive()
        finally:
            sys.setswitchinterval(interval)
        restarted, _ = _live(store)
        restarted.replay()
        searcher = restarted.manager.open_searcher()
        view = searcher.with_members([*restarted.memtable_members(), *searcher.searchers])
        found = [d.text for d in view.search("stress").documents]
        searcher.close()
        assert sorted(found) == sorted(acked) and len(acked) == 120

    def test_a_flush_waits_for_an_append_between_its_segment_and_the_memtable(
        self, monkeypatch
    ):
        store = InMemoryObjectStore()
        _base(store)
        live, _ = _live(store)
        append = live.wal.append
        flusher = threading.Thread(target=live.flush)

        def append_then_flush(data):
            written = append(data)  # durable, not yet in the memtable
            flusher.start()
            flusher.join(0.2)  # a flush that did not wait would be done by now
            return written

        monkeypatch.setattr(live.wal, "append", append_then_flush)
        live.append(["error raced event"])
        flusher.join(30)
        assert not flusher.is_alive()
        restarted, _ = _live(store)
        restarted.replay()
        searcher = restarted.manager.open_searcher()
        view = searcher.with_members([*restarted.memtable_members(), *searcher.searchers])
        assert [d.text for d in view.search("raced").documents] == ["error raced event"]
        searcher.close()


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
        from repro.index.store_layout import open_headers

        store = InMemoryObjectStore()
        _base(store, num_shards=2)
        live, _ = _live(store)
        live.append(["error fresh one"])
        outcome = live.compact()
        assert outcome is not None
        manifest = live.manager.manifest()
        assert open_headers(store, [manifest.active_base]).builds[0].manifest.num_shards == 2


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

    def test_compact_policy_counts_deltas_alone(self):
        store = InMemoryObjectStore()
        _base(store)
        live, _ = _live(store, ingest_compact_deltas=2)
        # One delta far larger than the base does not trigger: bytes are not weighed.
        live.append([f"error fresh {n} " + "padding " * 200 for n in range(50)])
        live.flush()
        assert not live.should_compact()
        other = InMemoryObjectStore()
        _base(other)
        disabled, _ = _live(other, ingest_compact_deltas=0)
        disabled.append(["warn fresh two"])
        disabled.flush()
        assert not disabled.should_compact()


class TestCoordinator:
    def _coordinator(self, store, **config):
        config = ServiceConfig(ingest_interval_s=0, **config)
        catalog = IndexCatalog(store, config)
        coordinator = IngestCoordinator(store, config, MetricsRegistry(), catalog.manager)
        return coordinator, catalog

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

    def test_discard_forgets_the_live_state_and_keeps_the_wal(self):
        store = InMemoryObjectStore()
        _base(store)
        coordinator, _ = self._coordinator(store)
        discarded = coordinator.live("idx", create=True)
        discarded.append(["error fresh one"])
        coordinator.discard("idx")
        # A discarded index is maintained no more; its WAL blobs leave only
        # through a swap's purge, once no manifest names them.
        assert discarded.flush() is None and discarded.compact() is None
        assert store.list_blobs(prefix="idx/ingest/seg-")
        # The manifest still names the WAL: the next touch replays it.
        assert coordinator.live("idx").memtable_documents() == 1
        coordinator.close()
