"""Tests for the mutable-document lifecycle: tombstone deletes and updates.

Covers every layer a delete travels through: the manifest's pending deletes
(one PUT per delete), the memtable's exact removal, the query executor's ``exclude`` filter (ranked
scores included), the flush-time survivor filter, and the compaction
that finally drops deleted documents from the physical index.
"""

from __future__ import annotations

import json
from dataclasses import replace
from typing import Callable

import pytest
from harness.stores import RecordingStore

from repro.core.config import SketchConfig
from repro.index.builder import AirphantBuilder
from repro.index.updates import AppendOnlyIndexManager, IndexManifest
from repro.ingest.live import IngestCoordinator, IngestOverloadedError, LiveIndex
from repro.ingest.memtable import Memtable, memtable_from_documents
from repro.ingest.wal import WriteAheadLog, check_refs, encode_segment
from repro.observability import MetricsRegistry
from repro.parsing.corpus import LineDelimitedCorpusParser
from repro.parsing.documents import Document, Posting
from repro.search.searcher import AirphantSearcher
from repro.service.config import ServiceConfig
from repro.storage.memory import InMemoryObjectStore

CORPUS = b"error disk full\ninfo service ok\nwarn slow response\n"

#: Refs of the three base documents, in corpus order.
BASE_REFS = (
    Posting(blob="corpus/base.txt", offset=0, length=15),
    Posting(blob="corpus/base.txt", offset=16, length=15),
    Posting(blob="corpus/base.txt", offset=32, length=18),
)


def _base(store: InMemoryObjectStore, num_shards: int = 1) -> None:
    store.put("corpus/base.txt", CORPUS)
    documents = list(LineDelimitedCorpusParser().parse(store, ["corpus/base.txt"]))
    AirphantBuilder(
        store, config=SketchConfig(num_bins=64, seed=3), num_shards=num_shards
    ).build_from_documents(documents, index_name="idx")


def _live(store, **config) -> LiveIndex:
    config = ServiceConfig(ingest_interval_s=0, **config)
    manager = AppendOnlyIndexManager(store, "idx", tokenizer=config.make_tokenizer())
    return LiveIndex(store, "idx", config, MetricsRegistry(), manager)


def _managers(store) -> Callable[[str], AppendOnlyIndexManager]:
    """One manager per name over ``store``, made on first use (a catalog's rule)."""
    managers: dict[str, AppendOnlyIndexManager] = {}
    return lambda name: managers.setdefault(name, AppendOnlyIndexManager(store, name))


def _memtable_view(live: LiveIndex) -> AirphantSearcher:
    """The query executor over ``live``'s memtable tier, pending deletes excluded."""
    return AirphantSearcher(
        members=live.memtable_members(), exclude=live.tombstone_refs()
    )


def _doc(blob: str, offset: int, text: str) -> Document:
    return Document(ref=Posting(blob=blob, offset=offset, length=len(text)), text=text)


class TestTombstoneRecords:
    """Pending deletes are the manifest's: the condemned refs, grouped by blob."""

    def test_round_trip(self):
        manifest = IndexManifest("idx", tombstones=frozenset({BASE_REFS[2], BASE_REFS[0]}))
        payload = manifest.to_dict()
        assert payload == {"tombstones": {"corpus/base.txt": [0, 15, 32, 18]}}
        assert IndexManifest.from_dict("idx", json.loads(json.dumps(payload))) == manifest

    def test_rejects_empty_and_bad_refs(self):
        with pytest.raises(ValueError):
            check_refs([])
        with pytest.raises(ValueError):
            check_refs([Posting(blob="", offset=0, length=3)])
        assert check_refs([BASE_REFS[1], BASE_REFS[0], BASE_REFS[1]]) == list(BASE_REFS[1::-1])

    def test_a_delete_commits_its_refs_into_the_manifest(self):
        store = InMemoryObjectStore()
        _base(store)
        live = _live(store)
        live.delete([BASE_REFS[0]])
        assert not store.list_blobs(prefix="idx/ingest/")
        manifest = AppendOnlyIndexManager(store, "idx").manifest()
        assert manifest.tombstones == frozenset({BASE_REFS[0]})
        # A delete takes no sequence number: nothing is reserved for it.
        assert manifest.reserved_end == 0

    def test_a_flush_keeps_tombstones(self):
        store = InMemoryObjectStore()
        wal = WriteAheadLog(store, "idx", AppendOnlyIndexManager(store, "idx"))
        wal.append(encode_segment(["error fresh one"]))
        pending = frozenset({BASE_REFS[0]})
        wal.manager.commit(lambda manifest: replace(manifest, tombstones=pending))
        _, retire = wal.seal()
        manifest = wal.manager.commit(retire)
        assert manifest.segments() == ()
        # Pending deletes outlive the flush that retires their era's
        # segments: only compaction (which physically drops the documents)
        # retires them.
        assert manifest.tombstones == frozenset({BASE_REFS[0]})

    def test_update_commit_is_one_manifest_swap(self):
        store = InMemoryObjectStore()
        wal = WriteAheadLog(store, "idx", AppendOnlyIndexManager(store, "idx"))
        segment, _, _, texts = wal.update(BASE_REFS[0], encode_segment(["replacement text"]))
        assert texts == ["replacement text"]
        # The replacement lands first, then one manifest PUT lists it and
        # condemns the old ref; it is named outside the probed segment range.
        assert sorted(store.list_blobs()) == sorted(["idx/manifest.json", segment])
        assert segment == "idx/ingest/upd-00000000.log"
        manifest = wal.manifest()
        assert (manifest.updates, manifest.tombstones) == ((0,), frozenset({BASE_REFS[0]}))
        assert manifest.reserved_end == 1

    def test_restore_resets_segments_but_preserves_counter(self):
        store = InMemoryObjectStore()
        _base(store)
        live = _live(store)
        live.delete([BASE_REFS[1]])
        live.manager.create_snapshot("s")
        live.append(["error one"])
        live.delete([BASE_REFS[0]])
        before = live.wal.manifest().reserved_end
        live.manager.restore_snapshot("s")
        manifest = live.manager.manifest()
        assert manifest.segments() == ()
        # The snapshot's pending deletes, in the manifest; no record blob.
        assert manifest.tombstones == frozenset({BASE_REFS[1]})
        assert AppendOnlyIndexManager(store, "idx").manifest() == manifest
        assert not store.list_blobs(prefix="idx/ingest/tomb-")
        # The counter never rewinds: blobs from the abandoned timeline are
        # permanent document storage and must not be overwritten.
        assert manifest.reserved_end >= before


class TestMemtableRemove:
    def test_remove_erases_documents_and_postings(self):
        table = memtable_from_documents(
            [_doc("seg", 0, "error disk"), _doc("seg", 11, "error net")]
        )
        removed = table.remove([Posting(blob="seg", offset=0, length=10)])
        assert removed == 1
        assert len(table) == 1
        assert table.approximate_bytes == len("error net")
        assert {d.text for d in table.documents()} == {"error net"}
        assert len(table.superposts(["error"])["error"]) == 1
        # The word "disk" only occurred in the removed document.
        assert not table.superposts(["disk"])["disk"]

    def test_remove_is_idempotent(self):
        table = memtable_from_documents([_doc("seg", 0, "error disk")])
        ref = Posting(blob="seg", offset=0, length=10)
        assert table.remove([ref]) == 1
        assert table.remove([ref]) == 0
        assert len(table) == 0


class TestTombstoneView:
    """The executor's ``exclude`` set, standing where the tombstone view stood."""

    def _searcher(self):
        store = InMemoryObjectStore()
        _base(store)
        return AirphantSearcher.open(store, index_name="idx")

    def test_filters_documents_and_candidates(self):
        searcher = self._searcher()
        view = searcher.with_members(searcher.searchers, frozenset({BASE_REFS[0]}))
        result = view.search("error")
        assert {d.text for d in result.documents} == set()
        assert BASE_REFS[0] not in result.candidate_postings
        assert BASE_REFS[0] not in view.lookup_postings("error")[0]
        searcher.close()

    def test_empty_tombstones_pass_through(self):
        searcher = self._searcher()
        view = searcher.with_members(searcher.searchers, frozenset())
        assert {d.text for d in view.search("error").documents} == {"error disk full"}
        searcher.close()

    def test_ranking_stats_are_pruned(self):
        # Ranked scores under a pending delete equal a rebuild over the survivors.
        searcher = self._searcher()
        view = searcher.with_members(searcher.searchers, frozenset({BASE_REFS[0]}))
        store = InMemoryObjectStore()
        store.put("corpus/base.txt", CORPUS)
        survivors = [
            document
            for document in LineDelimitedCorpusParser().parse(store, ["corpus/base.txt"])
            if document.ref != BASE_REFS[0]
        ]
        AirphantBuilder(store, config=SketchConfig(num_bins=64, seed=3)).build_from_documents(
            survivors, index_name="survivors"
        )
        rebuilt = AirphantSearcher.open(store, index_name="survivors")
        assert view.search_topk("error", k=3).documents == []
        for query in ("ok", "slow response"):
            pruned, fresh = view.search_topk(query, k=3), rebuilt.search_topk(query, k=3)
            assert pruned.postings == fresh.postings
            assert pruned.scores == fresh.scores != []
        searcher.close()
        rebuilt.close()


class TestLiveDelete:
    def test_delete_hides_base_document_immediately(self):
        store = InMemoryObjectStore()
        _base(store)
        live = _live(store)
        outcome = live.delete([BASE_REFS[0]])
        assert outcome["deleted"] == 1
        assert outcome["memtable_removed"] == 0
        assert outcome["tombstones_pending"] == 1
        stored = AppendOnlyIndexManager(store, "idx").manifest().tombstones
        assert stored == frozenset({BASE_REFS[0]})
        assert live.tombstone_refs() == frozenset({BASE_REFS[0]})
        # The memtable tier returns nothing for the deleted base doc, and the
        # base tier (excluded the same way by the service facade) filters it.
        assert not _memtable_view(live).search("error").documents

    def test_delete_removes_memtable_documents(self):
        store = InMemoryObjectStore()
        _base(store)
        live = _live(store)
        outcome = live.append(["error fresh event"])
        ref = Posting(**outcome["refs"][0])
        deleted = live.delete([ref])
        assert deleted["memtable_removed"] == 1
        assert live.memtable_documents() == 0

    def test_delete_deduplicates_refs(self):
        store = InMemoryObjectStore()
        _base(store)
        live = _live(store)
        outcome = live.delete([BASE_REFS[0], BASE_REFS[0]])
        assert outcome["deleted"] == 1

    def test_delete_rejects_empty_batch(self):
        store = InMemoryObjectStore()
        _base(store)
        live = _live(store)
        with pytest.raises(ValueError):
            live.delete([])

    def test_replay_filters_tombstoned_documents(self):
        store = InMemoryObjectStore()
        _base(store)
        live = _live(store)
        outcome = live.append(["error fresh event", "info fresh two"])
        ref = Posting(**outcome["refs"][0])
        live.delete([ref])
        # "Restart": a fresh LiveIndex over the same store replays the WAL.
        reopened = _live(store)
        reopened.replay()
        assert reopened.memtable_documents() == 1
        texts = {d.text for d in _memtable_view(reopened).search("fresh").documents}
        assert texts == {"info fresh two"}
        assert reopened.tombstone_refs() == frozenset({ref})


class TestLiveUpdate:
    def test_update_replaces_document_atomically(self):
        store = InMemoryObjectStore()
        _base(store)
        live = _live(store)
        outcome = live.update(BASE_REFS[0], "error replacement text")
        new_ref = Posting(**outcome["ref"])
        assert outcome["updated"] == {
            "blob": BASE_REFS[0].blob,
            "offset": BASE_REFS[0].offset,
            "length": BASE_REFS[0].length,
        }
        assert live.tombstone_refs() == frozenset({BASE_REFS[0]})
        texts = {d.text for d in _memtable_view(live).search("replacement").documents}
        assert texts == {"error replacement text"}
        # One manifest swap carries both the new segment and the tombstone.
        manifest = live.wal.manifest()
        assert outcome["wal_segment"] in manifest.segments()
        assert manifest.tombstones == frozenset({BASE_REFS[0]})
        assert new_ref.blob == outcome["wal_segment"]

    def test_update_of_memtable_document_swaps_in_place(self):
        store = InMemoryObjectStore()
        _base(store)
        live = _live(store)
        appended = live.append(["error fresh event"])
        old_ref = Posting(**appended["refs"][0])
        live.update(old_ref, "warn replacement")
        assert live.memtable_documents() == 1
        texts = {d.text for d in _memtable_view(live).search("replacement").documents}
        assert texts == {"warn replacement"}

    def test_update_rejects_multiline_text(self):
        store = InMemoryObjectStore()
        _base(store)
        live = _live(store)
        with pytest.raises(ValueError):
            live.update(BASE_REFS[0], "with\nnewline")
        assert live.tombstone_refs() == frozenset()


class TestOnePutPerWrite:
    def _puts(self, store: RecordingStore) -> list[str]:
        puts = [blob for method, blob, _, _ in store.calls if method == "put"]
        store.calls.clear()
        return puts

    def test_a_delete_is_one_put_and_an_update_two(self):
        backend = InMemoryObjectStore()
        _base(backend)
        store = RecordingStore(backend)
        live = _live(store)
        live.delete([BASE_REFS[0], BASE_REFS[1]])
        assert self._puts(store) == ["idx/manifest.json"]
        live.update(BASE_REFS[2], "warn replacement")
        assert self._puts(store) == ["idx/ingest/upd-00000000.log", "idx/manifest.json"]
        assert live.tombstone_refs() == frozenset(BASE_REFS)

    def test_a_restore_writes_no_delete_record(self):
        backend = InMemoryObjectStore()
        _base(backend)
        store = RecordingStore(backend)
        live = _live(store)
        live.delete([BASE_REFS[0]])
        live.manager.create_snapshot("s")
        live.delete([BASE_REFS[1]])
        store.calls.clear()
        live.manager.restore_snapshot("s")
        assert self._puts(store) == ["idx/manifest.json"]
        assert live.manager.manifest().tombstones == frozenset({BASE_REFS[0]})


class TestFlushUnderDeletes:
    def test_flush_builds_delta_over_survivors_only(self):
        store = InMemoryObjectStore()
        _base(store)
        live = _live(store)
        outcome = live.append(["error fresh one", "info fresh two"])
        ref = Posting(**outcome["refs"][0])
        live.delete([ref])
        flushed = live.flush()
        assert flushed is not None and flushed["flushed"] == 1
        searcher = live.manager.open_searcher()
        hits = searcher.search("fresh").documents
        assert {d.text for d in hits} == {"info fresh two"}
        searcher.close()
        # Tombstones survive the flush: the base document they also cover is
        # still pending physical removal.
        assert live.tombstone_refs() == frozenset({ref})

    def test_flush_of_fully_deleted_memtable_retires_segments(self):
        store = InMemoryObjectStore()
        _base(store)
        live = _live(store)
        outcome = live.append(["error fresh one"])
        live.delete([Posting(**outcome["refs"][0])])
        flushed = live.flush()
        assert flushed is not None
        assert flushed["flushed"] == 0
        assert flushed["delta"] is None
        # No delta was built, but the WAL segments are retired: the
        # tombstone record, not the segment list, carries the delete.
        assert live.wal.unflushed == ()


class TestCompactionPurge:
    def test_compact_physically_drops_deleted_documents(self):
        store = InMemoryObjectStore()
        _base(store)
        live = _live(store)
        live.append(["error fresh one"])
        live.delete([BASE_REFS[0]])
        outcome = live.compact()
        assert outcome is not None
        assert outcome["tombstones_purged"] == 1
        assert live.tombstone_refs() == frozenset()
        assert AppendOnlyIndexManager(store, "idx").manifest().tombstones == frozenset()
        assert not store.list_blobs(prefix="idx/ingest/tomb-")
        # The compacted base genuinely does not contain the deleted ref —
        # no tombstone filtering needed anymore.
        searcher = live.manager.open_searcher()
        postings = {d.ref for d in searcher.search("error").documents}
        assert BASE_REFS[0] not in postings
        assert {d.text for d in searcher.search("fresh").documents} == {
            "error fresh one"
        }
        searcher.close()

    def test_compact_runs_even_without_deltas_when_tombstones_pend(self):
        store = InMemoryObjectStore()
        _base(store)
        live = _live(store)
        live.delete([BASE_REFS[0]])
        outcome = live.compact()
        assert outcome is not None and outcome["tombstones_purged"] == 1

    def test_compact_without_work_is_a_noop(self):
        store = InMemoryObjectStore()
        _base(store)
        live = _live(store)
        assert live.compact() is None

    def test_delete_everything_leaves_a_searchable_empty_index(self):
        store = InMemoryObjectStore()
        _base(store)
        live = _live(store)
        live.delete(list(BASE_REFS))
        outcome = live.compact()
        assert outcome is not None
        searcher = live.manager.open_searcher()
        assert searcher.search("error").documents == []
        searcher.close()


class TestBackpressure:
    def test_append_overload_raises_typed_error(self):
        store = InMemoryObjectStore()
        _base(store)
        live = _live(store, ingest_max_memtable_docs=1, ingest_overload_wait_s=0.0)
        live.append(["error fresh one"])
        with pytest.raises(IngestOverloadedError) as excinfo:
            live.append(["error fresh two"])
        assert excinfo.value.index_name == "idx"
        assert excinfo.value.documents == 1
        # Nothing durable, nothing searchable from the rejected batch.
        assert live.memtable_documents() == 1
        assert len(live.wal.unflushed) == 1

    def test_byte_limit_also_triggers(self):
        store = InMemoryObjectStore()
        _base(store)
        live = _live(store, ingest_max_memtable_bytes=8, ingest_overload_wait_s=0.0)
        live.append(["error fresh one"])
        with pytest.raises(IngestOverloadedError):
            live.append(["error fresh two"])

    def test_flush_releases_backpressure(self):
        store = InMemoryObjectStore()
        _base(store)
        live = _live(store, ingest_max_memtable_docs=1, ingest_overload_wait_s=0.0)
        live.append(["error fresh one"])
        live.flush()
        assert live.append(["error fresh two"])["appended"] == 1

    def test_limits_off_by_default(self):
        config = ServiceConfig()
        assert config.ingest_max_memtable_docs == 0
        assert config.ingest_max_memtable_bytes == 0

    def test_negative_limits_rejected(self):
        with pytest.raises(ValueError):
            ServiceConfig(ingest_max_memtable_docs=-1)
        with pytest.raises(ValueError):
            ServiceConfig(ingest_overload_wait_s=-0.5)


class TestCoordinatorTombstones:
    def test_live_view_stays_registered_while_tombstones_pend(self):
        store = InMemoryObjectStore()
        _base(store)
        coordinator = IngestCoordinator(
            store, ServiceConfig(ingest_interval_s=0), MetricsRegistry(), _managers(store)
        )
        live = coordinator.live("idx", create=True)
        live.delete([BASE_REFS[0]])
        coordinator.close()
        # A fresh coordinator (another node, or a restart) with an *empty*
        # memtable must still surface the pending tombstones, or the deleted
        # document would resurrect on the query path.
        reopened = IngestCoordinator(
            store, ServiceConfig(ingest_interval_s=0), MetricsRegistry(), _managers(store)
        )
        assert reopened.live("idx") is not None
        assert reopened.tombstone_refs("idx") == frozenset({BASE_REFS[0]})
        assert reopened.summary()["tombstones_pending"] == 1
        reopened.close()

    def test_tombstone_refs_of_unknown_index_is_empty(self):
        store = InMemoryObjectStore()
        coordinator = IngestCoordinator(
            store, ServiceConfig(ingest_interval_s=0), MetricsRegistry(), _managers(store)
        )
        assert coordinator.tombstone_refs("nope") == frozenset()
        coordinator.close()
