"""Crash-consistency matrix for the mutable-document lifecycle.

Every durable transition — append, delete, update, flush, compact — is
killed at its exact commit-point mutations with
:class:`harness.crashpoints.FaultPointStore`, then "restarted" by opening a
fresh :class:`LiveIndex` (replay) over the same backend.  The recovered
state must honour the WAL contract:

* an **acknowledged** operation (commit-point PUT reached the store)
  survives the crash;
* an **unacknowledged** operation (killed before the commit point) vanishes
  without a trace on the query path;
* a crash *between* the index-manifest swap and the WAL retire leaves
  documents transiently in both a delta and the replayed memtable — the
  query path deduplicates by reference, so answers still equal a fresh
  rebuild.
"""

from __future__ import annotations

import pytest
from harness.crashpoints import FaultPointStore, SimulatedCrash

from repro.core.config import SketchConfig
from repro.index.builder import AirphantBuilder
from repro.ingest.live import LiveIndex
from repro.observability import MetricsRegistry
from repro.parsing.corpus import LineDelimitedCorpusParser
from repro.parsing.documents import Posting
from repro.service.config import ServiceConfig
from repro.storage.memory import InMemoryObjectStore

CORPUS = b"error disk full\ninfo service ok\nwarn slow response\n"

BASE_REF = Posting(blob="corpus/base.txt", offset=0, length=15)

#: Commit point of every ingest operation (the WAL manifest swap).
COMMIT = "ingest/ingest.json"


def _store() -> FaultPointStore:
    backend = InMemoryObjectStore()
    backend.put("corpus/base.txt", CORPUS)
    documents = list(LineDelimitedCorpusParser().parse(backend, ["corpus/base.txt"]))
    AirphantBuilder(backend, config=SketchConfig(num_bins=64, seed=3)).build_from_documents(
        documents, index_name="idx"
    )
    return FaultPointStore(backend)


def _live(store) -> LiveIndex:
    return LiveIndex(
        store,
        "idx",
        ServiceConfig(ingest_interval_s=0),
        MetricsRegistry(),
        lambda name: None,
    )


def _restart(store) -> LiveIndex:
    """Simulate process restart: fresh write path over the same bytes."""
    store.disarm()
    live = _live(store)
    live.replay()
    return live


def _visible_texts(live: LiveIndex, query: str) -> set[str]:
    """What the full live view (memtable ∪ deltas ∪ base) answers."""
    searcher = live.manager.open_searcher()
    view = searcher.with_members(
        [*live.memtable_members(), *searcher.searchers], live.tombstone_refs()
    )
    texts = {d.text for d in view.search(query).documents}
    searcher.close()
    return texts


class TestAppendCrashes:
    def test_killed_before_commit_loses_the_unacked_batch(self):
        store = _store()
        live = _live(store)
        store.arm("put", COMMIT, when="before")
        with pytest.raises(SimulatedCrash):
            live.append(["error fresh event"])
        recovered = _restart(store)
        assert recovered.memtable_documents() == 0
        assert "error fresh event" not in _visible_texts(recovered, "fresh")

    def test_killed_after_commit_keeps_the_acked_batch(self):
        store = _store()
        live = _live(store)
        store.arm("put", COMMIT, when="after")
        with pytest.raises(SimulatedCrash):
            live.append(["error fresh event"])
        recovered = _restart(store)
        assert _visible_texts(recovered, "fresh") == {"error fresh event"}


class TestDeleteCrashes:
    def test_killed_before_commit_keeps_the_document(self):
        store = _store()
        live = _live(store)
        store.arm("put", COMMIT, when="before")
        with pytest.raises(SimulatedCrash):
            live.delete([BASE_REF])
        recovered = _restart(store)
        assert recovered.tombstone_refs() == frozenset()
        assert "error disk full" in _visible_texts(recovered, "error")

    def test_killed_after_commit_keeps_the_delete(self):
        store = _store()
        live = _live(store)
        store.arm("put", COMMIT, when="after")
        with pytest.raises(SimulatedCrash):
            live.delete([BASE_REF])
        recovered = _restart(store)
        assert recovered.tombstone_refs() == frozenset({BASE_REF})
        assert "error disk full" not in _visible_texts(recovered, "error")


class TestUpdateCrashes:
    def test_killed_before_commit_shows_the_old_document_only(self):
        store = _store()
        live = _live(store)
        # The segment and tombstone PUTs both land; the one manifest swap
        # referencing them does not — the update must vanish atomically.
        store.arm("put", COMMIT, when="before")
        with pytest.raises(SimulatedCrash):
            live.update(BASE_REF, "error replacement text")
        recovered = _restart(store)
        assert "error disk full" in _visible_texts(recovered, "error")
        assert "error replacement text" not in _visible_texts(recovered, "error")

    def test_killed_after_commit_shows_the_replacement_only(self):
        store = _store()
        live = _live(store)
        store.arm("put", COMMIT, when="after")
        with pytest.raises(SimulatedCrash):
            live.update(BASE_REF, "error replacement text")
        recovered = _restart(store)
        visible = _visible_texts(recovered, "error")
        assert "error replacement text" in visible
        assert "error disk full" not in visible


class TestFlushCrashes:
    def test_killed_mid_delta_build_replays_everything(self):
        store = _store()
        live = _live(store)
        live.append(["error fresh one", "info fresh two"])
        # Die on the first blob of the delta build: no index-manifest swap
        # happened, so recovery sees only the WAL.
        store.arm("put", "idx/delta-")
        with pytest.raises(SimulatedCrash):
            live.flush()
        recovered = _restart(store)
        assert recovered.memtable_documents() == 2
        assert _visible_texts(recovered, "fresh") == {
            "error fresh one",
            "info fresh two",
        }

    def test_killed_between_manifest_swap_and_wal_retire_deduplicates(self):
        store = _store()
        live = _live(store)
        live.append(["error fresh one"])
        # The delta is committed into the index manifest, but the WAL still
        # lists the segment: recovery replays it into the memtable, so the
        # document transiently exists in two tiers.
        store.arm("put", COMMIT, when="before")
        with pytest.raises(SimulatedCrash):
            live.flush()
        recovered = _restart(store)
        assert recovered.memtable_documents() == 1
        assert recovered.manager.manifest().delta_indexes != ()
        searcher = recovered.manager.open_searcher()
        members = [*recovered.memtable_members(), *searcher.searchers]
        hits = [
            d
            for m in members
            for d in searcher.with_members([m]).search("fresh").documents
        ]
        # Both tiers answer, but they answer with the *same reference* — the
        # query path's posting-keyed merge keeps exactly one copy.
        assert {(d.blob, d.offset, d.length) for d in hits} == {
            (hits[0].blob, hits[0].offset, hits[0].length)
        }
        searcher.close()
        # The next flush retires the replayed segment for good.
        recovered.flush()
        assert recovered.wal.manifest(refresh=True).active_segments == ()

    def test_failed_flush_with_concurrent_delete_keeps_exactly_survivors(self):
        store = _store()
        live = _live(store)
        outcome = live.append(["error fresh one", "info fresh two"])
        doomed = Posting(**outcome["refs"][0])

        # Regression for the flush-failure undo path: it must restore the
        # documents captured *at seal time* exactly once, even when a delete
        # lands between the seal and the failure.  The old code re-queried
        # the sealed memtable in the undo path, racing with that delete.
        real_append = live.manager.append

        def delete_then_die(*args, **kwargs):
            live.delete([doomed])
            raise SimulatedCrash("put", "idx/delta-0000", "before")

        live.manager.append = delete_then_die
        with pytest.raises(SimulatedCrash):
            live.flush()
        live.manager.append = real_append

        # The deleted document stays deleted; the survivor is searchable in
        # exactly one place and flushes cleanly afterwards.
        assert _visible_texts(live, "fresh") == {"info fresh two"}
        flushed = live.flush()
        assert flushed is not None and flushed["flushed"] == 1
        assert _visible_texts(live, "fresh") == {"info fresh two"}


class TestCompactCrashes:
    def test_killed_before_swap_keeps_the_old_generation(self):
        store = _store()
        live = _live(store)
        live.append(["error fresh one"])
        live.flush()
        live.delete([BASE_REF])
        store.arm("put", "idx/manifest.json")
        with pytest.raises(SimulatedCrash):
            live.compact()
        recovered = _restart(store)
        # Old manifest intact: delta still listed, tombstone still pending,
        # query answers unchanged.
        assert recovered.manager.manifest().delta_indexes != ()
        assert recovered.tombstone_refs() == frozenset({BASE_REF})
        visible = _visible_texts(recovered, "error")
        assert "error fresh one" in visible
        assert "error disk full" not in visible

    def test_killed_after_swap_before_tombstone_retire_stays_filtered(self):
        store = _store()
        live = _live(store)
        live.delete([BASE_REF])
        store.arm("put", "idx/manifest.json", when="after")
        with pytest.raises(SimulatedCrash):
            live.compact()
        recovered = _restart(store)
        # The new generation no longer holds the document *and* the WAL
        # still lists the tombstone — filtering is idempotent, so the
        # answer is the same either way, and the next compaction retires it.
        assert recovered.tombstone_refs() == frozenset({BASE_REF})
        assert "error disk full" not in _visible_texts(recovered, "error")
        recovered.append(["error fresh one"])
        recovered.compact()
        assert recovered.tombstone_refs() == frozenset()
        assert "error disk full" not in _visible_texts(recovered, "error")


class TestSnapshotCrashes:
    def test_killed_snapshot_put_leaves_no_record(self):
        store = _store()
        live = _live(store)
        store.arm("put", "/snapshots/")
        with pytest.raises(SimulatedCrash):
            live.manager.create_snapshot("s1")
        store.disarm()
        assert live.manager.list_snapshots() == []

    def test_killed_restore_swap_keeps_the_current_manifest(self):
        store = _store()
        live = _live(store)
        live.manager.create_snapshot("s1")
        live.append(["error fresh one"])
        live.flush()
        before = live.manager.manifest()
        store.arm("put", "idx/manifest.json")
        with pytest.raises(SimulatedCrash):
            live.manager.restore_snapshot("s1")
        store.disarm()
        assert live.manager.manifest() == before
