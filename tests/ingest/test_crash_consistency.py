"""Crash-consistency matrix for the mutable-document lifecycle.

Every durable transition — append, delete, update, flush, compact — is
killed at its exact commit-point mutations with
:class:`harness.crashpoints.FaultPointStore`, then "restarted" by opening a
fresh :class:`LiveIndex` (replay) over the same backend.  The recovered
state must honour the WAL contract:

* an **acknowledged** operation (commit-point PUT reached the store)
  survives the crash — for an append that is its segment PUT, for a
  delete, an update, a flush and a compaction the one manifest PUT;
* an **unacknowledged** operation (killed before the commit point) vanishes
  without a trace on the query path, and so does a killed segment-block
  reservation;
* a hole in the probed segment range (an append whose PUT failed) does not
  end the log: later acknowledged appends still replay;
* a flush commits its delta and the WAL's move past the flushed segments
  in that one PUT, so no crash leaves a document in both a delta and the
  replayed WAL: the next flush makes no second delta.
"""

from __future__ import annotations

import pytest
from harness.crashpoints import FaultPointStore, SimulatedCrash

from repro.core.config import SketchConfig
from repro.index.builder import AirphantBuilder
from repro.index.updates import AppendOnlyIndexManager
from repro.ingest.live import LiveIndex
from repro.ingest.wal import SEGMENT_BLOCK
from repro.observability import MetricsRegistry
from repro.parsing.corpus import LineDelimitedCorpusParser
from repro.parsing.documents import Posting
from repro.service.config import ServiceConfig
from repro.storage.base import TransientStoreError
from repro.storage.memory import InMemoryObjectStore

CORPUS = b"error disk full\ninfo service ok\nwarn slow response\n"

BASE_REF = Posting(blob="corpus/base.txt", offset=0, length=15)

#: Commit point of a delete, an update, a flush and a compaction, and the
#: segment-block reservation of an append: the index's one manifest.
COMMIT = "idx/manifest.json"
#: Commit point of an append: its segment PUT.
SEGMENT = "ingest/seg-"


def _store() -> FaultPointStore:
    backend = InMemoryObjectStore()
    backend.put("corpus/base.txt", CORPUS)
    documents = list(LineDelimitedCorpusParser().parse(backend, ["corpus/base.txt"]))
    AirphantBuilder(backend, config=SketchConfig(num_bins=64, seed=3)).build_from_documents(
        documents, index_name="idx"
    )
    return FaultPointStore(backend)


def _live(store) -> LiveIndex:
    config = ServiceConfig(ingest_interval_s=0)
    manager = AppendOnlyIndexManager(store, "idx", tokenizer=config.make_tokenizer())
    return LiveIndex(store, "idx", config, MetricsRegistry(), manager)


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


def _sequence(blob: str) -> int:
    """The sequence number in a WAL blob name."""
    return int(blob.rsplit("-", 1)[1].split(".")[0])


class TestAppendCrashes:
    def test_killed_before_commit_loses_the_unacked_batch(self):
        store = _store()
        live = _live(store)
        live.append(["error acked event"])
        store.arm("put", SEGMENT, when="before")
        with pytest.raises(SimulatedCrash):
            live.append(["error fresh event"])
        recovered = _restart(store)
        assert recovered.memtable_documents() == 1
        assert _visible_texts(recovered, "event") == {"error acked event"}

    def test_killed_after_commit_keeps_the_acked_batch(self):
        store = _store()
        live = _live(store)
        store.arm("put", SEGMENT, when="after")
        with pytest.raises(SimulatedCrash):
            live.append(["error fresh event"])
        recovered = _restart(store)
        assert _visible_texts(recovered, "fresh") == {"error fresh event"}

    @pytest.mark.parametrize("when", ["before", "after"])
    def test_a_killed_block_reservation_shows_nothing_and_is_never_reused(self, when):
        store = _store()
        live = _live(store)
        for n in range(SEGMENT_BLOCK):  # use up the first block
            live.append([f"error acked number{n}"])
        reserved = live.wal.manifest().reserved_end
        point = store.arm("put", COMMIT, when=when)
        with pytest.raises(SimulatedCrash):
            live.append(["error fresh event"])
        assert point.fired
        segments = store.backend.list_blobs(prefix=f"idx/{SEGMENT}")
        assert max(_sequence(blob) for blob in segments) < reserved
        recovered = _restart(store)
        assert recovered.memtable_documents() == SEGMENT_BLOCK
        assert "error fresh event" not in _visible_texts(recovered, "fresh")
        blob = recovered.append(["error later event"])["wal_segment"]
        assert _sequence(blob) >= reserved

    def test_a_failed_segment_put_leaves_a_hole_that_does_not_end_the_log(self):
        store = _store()
        live = _live(store)
        live.append(["error first event"])
        store.arm("put", SEGMENT, error=TransientStoreError("injected"))
        with pytest.raises(TransientStoreError):
            live.append(["error failed event"])
        live.append(["error second event"])
        live.append(["error third event"])
        assert _visible_texts(live, "event") == {
            "error first event", "error second event", "error third event"
        }
        recovered = _restart(store)
        assert _visible_texts(recovered, "event") == {
            "error first event", "error second event", "error third event"
        }

    def test_an_ambiguous_segment_put_is_replayed_at_the_next_open(self):
        # The PUT landed but the caller saw an error: the append was not
        # acknowledged, yet its segment is in the probed range — the next
        # open replays it.  A failed append's outcome is unknown, as with
        # any store write that timed out.
        store = _store()
        live = _live(store)
        store.arm("put", SEGMENT, when="after", error=TransientStoreError("injected"))
        with pytest.raises(TransientStoreError):
            live.append(["error ambiguous event"])
        assert _visible_texts(live, "ambiguous") == set()
        assert _visible_texts(_restart(store), "ambiguous") == {"error ambiguous event"}


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
        # The replacement segment lands; the one manifest PUT that lists it
        # and condemns the old ref does not — the update must vanish
        # atomically.
        store.arm("put", COMMIT, when="before")
        with pytest.raises(SimulatedCrash):
            live.update(BASE_REF, "error replacement text")
        landed = store.backend.list_blobs(prefix="idx/ingest/")
        assert [blob for blob in landed if "/upd-" in blob] == landed != []
        recovered = _restart(store)
        assert recovered.tombstone_refs() == frozenset()
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

    @pytest.mark.parametrize("when", ["before", "after"])
    def test_killed_at_the_flush_commit_flushes_into_one_delta(self, when):
        store = _store()
        live = _live(store)
        live.append(["error fresh one"])
        # The delta and the WAL's move past its segment are one PUT: killed
        # before it, the segment replays and no delta exists; after it, the
        # delta holds the document and nothing replays.
        point = store.arm("put", COMMIT, when=when)
        with pytest.raises(SimulatedCrash):
            live.flush()
        assert point.fired
        recovered = _restart(store)
        assert recovered.memtable_documents() == (1 if when == "before" else 0)
        assert _visible_texts(recovered, "fresh") == {"error fresh one"}
        # A flush after the restart: one delta holds the document, as in a
        # run without the crash.
        recovered.flush()
        assert recovered.wal.unflushed == ()
        assert len(recovered.manager.manifest().delta_indexes) == 1
        assert len(store.backend.list_blobs(prefix="idx/delta-")) == len(
            store.backend.list_blobs(prefix="idx/delta-0000/")
        )
        assert _restart(store).memtable_documents() == 0

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
        store.arm("put", COMMIT)
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

    def test_killed_after_swap_drops_the_applied_tombstones_with_it(self):
        store = _store()
        live = _live(store)
        live.delete([BASE_REF])
        store.arm("put", COMMIT, when="after")
        with pytest.raises(SimulatedCrash):
            live.compact()
        recovered = _restart(store)
        # The swap's one PUT installed the new generation, which no longer
        # holds the document, and dropped the tombstone it applied.
        assert recovered.tombstone_refs() == frozenset()
        assert "error disk full" not in _visible_texts(recovered, "error")
        recovered.append(["error fresh one"])
        recovered.compact()
        assert "error disk full" not in _visible_texts(recovered, "error")
        assert "error fresh one" in _visible_texts(recovered, "error")


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
        store.arm("put", COMMIT)
        with pytest.raises(SimulatedCrash):
            live.manager.restore_snapshot("s1")
        store.disarm()
        assert live.manager.manifest() == before
