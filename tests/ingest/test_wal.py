"""Tests for the segmented write-ahead log (repro.ingest.wal)."""

from __future__ import annotations

import json

import pytest
from harness.stores import RecordingStore

from repro.core.config import SketchConfig
from repro.index.builder import AirphantBuilder
from repro.index.store_layout import (
    UnsupportedIndexFormatError,
    ingest_manifest_blob,
    open_index,
)
from repro.index.updates import AppendOnlyIndexManager, IndexManifest
from repro.ingest.live import LiveIndex
from repro.ingest.wal import (
    SEGMENT_BLOCK,
    WriteAheadLog,
    encode_segment,
    parse_segment,
    segment_blob,
)
from repro.parsing.corpus import LineDelimitedCorpusParser
from repro.observability import MetricsRegistry
from repro.parsing.documents import Posting
from repro.service.config import ServiceConfig
from repro.storage.memory import InMemoryObjectStore

#: A version-1 WAL as the list-of-segments writer left it: three appends, a
#: delete between the second and the third, the first append flushed.
V1_WAL = {
    "idx/ingest/ingest.json": b'{"version": 1, "next_segment": 4, "active_segments": '
    b'["idx/ingest/seg-00000001.log", "idx/ingest/seg-00000003.log"], '
    b'"tombstone_segments": ["idx/ingest/tomb-00000002.json"]}',
    "idx/ingest/seg-00000000.log": b"error disk full\n",
    "idx/ingest/seg-00000001.log": b"warn slow response\ninfo service ok\n",
    "idx/ingest/seg-00000003.log": b"error late write\n",
    "idx/ingest/tomb-00000002.json": b'{"version": 1, "refs": [["corpus/base.txt", 0, 15], '
    b'["idx/ingest/seg-00000000.log", 0, 15]]}',
}

#: The same history as a version-2 WAL left it: a reserved range, an update
#: listed beside it.
V2_WAL = {
    "idx/ingest/ingest.json": b'{"version": 2, "first_unflushed": 1, "reserved_end": 6, '
    b'"listed_segments": ["idx/ingest/upd-00000004.log"], '
    b'"tombstone_segments": ["idx/ingest/tomb-00000002.json", "idx/ingest/tomb-00000005.json"]}',
    "idx/ingest/seg-00000000.log": b"error disk full\n",
    "idx/ingest/seg-00000001.log": b"warn slow response\ninfo service ok\n",
    "idx/ingest/seg-00000003.log": b"error late write\n",
    "idx/ingest/upd-00000004.log": b"info updated line\n",
    "idx/ingest/tomb-00000002.json": b'{"version": 1, "refs": [["corpus/base.txt", 0, 15], '
    b'["idx/ingest/seg-00000000.log", 0, 15]]}',
    "idx/ingest/tomb-00000005.json": b'{"version": 1, "refs": [["corpus/base.txt", 16, 15]]}',
}

#: The same history as a manifest that listed its delete records by number
#: left it, beside those records.
NUMBERED_RECORDS = {
    "idx/manifest.json": b'{"first_unflushed":1,"reserved_end":6,"updates":[4],"tombstones":[2,5]}',
    **{blob: data for blob, data in V2_WAL.items() if not blob.endswith("ingest.json")},
}

#: What the delete records of each legacy WAL condemn.
V1_REFS = frozenset(
    {Posting("corpus/base.txt", 0, 15), Posting("idx/ingest/seg-00000000.log", 0, 15)}
)
V2_REFS = V1_REFS | {Posting("corpus/base.txt", 16, 15)}

LEGACY = pytest.mark.parametrize(
    "legacy, refs",
    [(V1_WAL, V1_REFS), (V2_WAL, V2_REFS), (NUMBERED_RECORDS, V2_REFS)],
    ids=["v1", "v2", "numbered-records"],
)


def _texts(segments) -> list[str]:
    """The texts of replayed segments, in replay order."""
    return [text for segment in segments for text in segment.texts]


class TestSegmentFormat:
    def test_segment_is_line_delimited_corpus_bytes(self):
        data = encode_segment(["error one", "info two"])
        assert data == b"error one\ninfo two\n"

    def test_offsets_match_the_corpus_parser_exactly(self):
        # Postings created at flush time must agree byte-for-byte with what
        # the standard corpus parser computes for the same blob.
        texts = ["error disk full", "warn high load", "info ok"]
        data = encode_segment(texts)
        blob, offsets, lengths, parsed = parse_segment("idx/ingest/seg-00000000.log", data)
        reparsed = list(
            LineDelimitedCorpusParser().parse_blob("idx/ingest/seg-00000000.log", data)
        )
        assert [(blob, *at) for at in zip(offsets, lengths)] == [
            (d.blob, d.offset, d.length) for d in reparsed
        ]
        assert parsed == texts
        for offset, length, text in zip(offsets, lengths, parsed):
            assert data[offset : offset + length].decode("utf-8") == text

    def test_rejects_documents_the_format_cannot_hold(self):
        with pytest.raises(ValueError):
            encode_segment([])
        with pytest.raises(ValueError):
            encode_segment(["fine", "has\nnewline"])
        with pytest.raises(ValueError):
            encode_segment(["   "])
        with pytest.raises(ValueError):
            encode_segment([42])  # type: ignore[list-item]


class TestManifest:
    def test_round_trip(self):
        manifest = IndexManifest(
            "idx",
            first_unflushed=3,
            reserved_end=7,
            updates=(4,),
            tombstones=V2_REFS,
        )
        assert IndexManifest.read("idx", manifest_bytes(manifest)) == manifest

    def test_a_reservation_alone_is_a_small_manifest(self):
        # Fields at their defaults are left out — the name too, which the
        # blob's prefix says — so a manifest holding only a reservation is
        # far smaller than the WAL manifest it replaces.
        manifest = IndexManifest("bench-writes", reserved_end=SEGMENT_BLOCK)
        assert json.loads(manifest_bytes(manifest)) == {"reserved_end": SEGMENT_BLOCK}
        assert len(manifest_bytes(manifest)) <= 105
        flushed = IndexManifest("idx", first_unflushed=7, reserved_end=7)
        assert json.loads(manifest_bytes(flushed)) == {"first_unflushed": 7}

    def test_the_range_is_probed_then_the_listed_segments(self):
        manifest = IndexManifest("idx", first_unflushed=3, reserved_end=5, updates=(1,))
        assert manifest.segments() == (
            "idx/ingest/seg-00000003.log",
            "idx/ingest/seg-00000004.log",
            "idx/ingest/upd-00000001.log",
        )

    def test_blob_names(self):
        assert segment_blob("idx", 3) == "idx/ingest/seg-00000003.log"


class TestWriteAheadLog:
    def test_append_reserves_a_block_then_commits_at_the_segment_put(self):
        store = InMemoryObjectStore()
        wal = _wal(store)
        blob, _, _, texts = wal.append(encode_segment(["error one", "info two"]))
        assert blob == "idx/ingest/seg-00000000.log"
        assert texts == ["error one", "info two"]
        assert store.exists(blob)
        manifest = _wal(store).manifest()
        assert (manifest.first_unflushed, manifest.reserved_end) == (0, SEGMENT_BLOCK)
        assert manifest.updates == ()
        assert wal.unflushed == (blob,)

    def test_one_put_per_append_and_one_manifest_put_per_block(self):
        store = RecordingStore(InMemoryObjectStore())
        wal = _wal(store)
        for n in range(2 * SEGMENT_BLOCK + 1):
            wal.append(encode_segment([f"document {n}"]))
        puts = [blob for method, blob, _, _ in store.calls if method == "put"]
        assert len(puts) == 2 * SEGMENT_BLOCK + 1 + 3
        assert puts.count("idx/manifest.json") == 3
        assert _texts(_wal(store).replay()) == [
            f"document {n}" for n in range(2 * SEGMENT_BLOCK + 1)
        ]

    def test_a_new_process_numbers_from_the_reservation_end(self):
        store = InMemoryObjectStore()
        _wal(store).append(encode_segment(["error one"]))
        blob = _wal(store).append(encode_segment(["error two"])).blob
        # Numbers 1 … SEGMENT_BLOCK - 1 may be in flight in the first
        # process: a second one never reuses them.
        assert blob == segment_blob("idx", SEGMENT_BLOCK)
        assert _texts(_wal(store).replay()) == [
            "error one", "error two"
        ]

    def test_segment_numbering_is_monotonic_across_a_flush(self):
        store = InMemoryObjectStore()
        wal = _wal(store)
        first = wal.append(encode_segment(["one doc"])).blob
        _flush(wal)
        second = wal.append(encode_segment(["two doc"])).blob
        # The flushed segment's number is never reused: a reader holding a
        # pre-flush manifest must never see its blob overwritten.
        assert second == "idx/ingest/seg-00000001.log"
        assert wal.unflushed == (second,)
        assert wal.manifest().first_unflushed == 1
        # A flush never deletes segments (they hold the document bytes).
        assert store.exists(first)

    def test_replay_returns_unflushed_documents_in_order(self):
        store = InMemoryObjectStore()
        wal = _wal(store)
        wal.append(encode_segment(["error one"]))
        segments, retire = wal.seal()
        wal.append(encode_segment(["warn two", "info three"]))
        wal.manager.commit(retire)
        assert wal.unflushed == ("idx/ingest/seg-00000001.log",)
        # A fresh WAL over the same store (simulated process restart).
        replayed = _wal(store).replay()
        assert _texts(replayed) == ["warn two", "info three"]


class TestFormatCompatibility:
    """A legacy ``ingest.json``, and delete records a manifest lists by
    number, are the WAL's state until the first manifest write folds them
    in; no code writes either."""

    def _store(self, wal: dict[str, bytes]) -> InMemoryObjectStore:
        store = InMemoryObjectStore()
        for blob, data in wal.items():
            store.put(blob, data)
        return store

    def test_a_v1_manifest_replays_identically(self):
        wal = _wal(self._store(V1_WAL))
        assert _texts(wal.replay()) == [
            "warn slow response", "info service ok", "error late write"
        ]
        assert wal.manifest().tombstones == V1_REFS
        assert wal.unflushed == (
            "idx/ingest/seg-00000001.log", "idx/ingest/seg-00000003.log"
        )

    @pytest.mark.parametrize("legacy", [V2_WAL, NUMBERED_RECORDS], ids=["v2", "numbered-records"])
    def test_a_v2_manifest_replays_identically(self, legacy):
        wal = _wal(self._store(legacy))
        assert _texts(wal.replay()) == [
            "warn slow response", "info service ok", "error late write", "info updated line"
        ]
        assert wal.manifest().tombstones == V2_REFS

    @LEGACY
    def test_the_first_manifest_write_folds_it_in_then_deletes_it(self, legacy, refs):
        store = self._store(legacy)
        before = _wal(store)
        replayed = _texts(before.replay())
        assert before.manifest().tombstones == refs
        wal = _wal(store)
        wal.replay()
        blob = wal.append(encode_segment(["info after upgrade"])).blob
        assert blob == segment_blob("idx", wal.manifest().reserved_end - SEGMENT_BLOCK)
        assert not store.exists(ingest_manifest_blob("idx"))  # folded in, then deleted
        # The first commit wrote the condemned refs themselves.
        stored = json.loads(store.get("idx/manifest.json"))
        assert isinstance(stored["tombstones"], dict)
        assert IndexManifest.from_dict("idx", stored).tombstones == refs
        reopened = _wal(store)
        assert sorted(_texts(reopened.replay())) == sorted([*replayed, "info after upgrade"])
        assert reopened.manifest().tombstones == refs
        # A flush of everything retires the upgraded segments too.
        _flush(wal)
        assert _wal(store).replay() == []

    @LEGACY
    def test_an_open_folds_the_records_in_and_the_next_swap_purges_them(self, legacy, refs):
        store = self._store(legacy)
        store.put("corpus/base.txt", b"error disk full\ninfo service ok\nwarn slow response\n")
        documents = list(LineDelimitedCorpusParser().parse(store, ["corpus/base.txt"]))
        AirphantBuilder(store, config=SketchConfig(num_bins=64, seed=3)).build_from_documents(
            documents, index_name="idx"
        )
        # The records ride the open's second wave and are folded in there.
        opened = open_index(store, "idx")
        assert opened.manifest.tombstones == refs
        assert opened.manifest.legacy_records == ()
        manager = AppendOnlyIndexManager(store, "idx")
        manager.adopt(opened.manifest, None)
        live = LiveIndex(
            store, "idx", ServiceConfig(ingest_interval_s=0), MetricsRegistry(), manager, opened.wal
        )
        live.replay()
        assert live.tombstone_refs() == refs
        assert live.compact() is not None
        assert not store.list_blobs(prefix="idx/ingest/tomb-")
        assert live.tombstone_refs() == frozenset()
        searcher = live.manager.open_searcher()
        found = {d.ref for query in ("error", "info") for d in searcher.search(query).documents}
        searcher.close()
        assert found and not found & refs

    def test_beside_a_manifest_with_wal_state_it_is_garbage(self):
        store = InMemoryObjectStore()
        _wal(store).append(encode_segment(["error current"]))
        legacy = ingest_manifest_blob("idx")
        store.put(legacy, V1_WAL[legacy])  # a leftover a crash kept from its deletion
        wal = _wal(store)
        assert _texts(wal.replay()) == ["error current"]
        assert wal.manifest().tombstones == frozenset()
        wal.append(encode_segment(["error next"]))
        assert not store.exists(ingest_manifest_blob("idx"))

    def test_an_unknown_manifest_version_is_a_typed_error_not_an_empty_wal(self):
        store = InMemoryObjectStore()
        store.put(ingest_manifest_blob("idx"), b'{"version": 3, "segments": "elsewhere"}')
        with pytest.raises(UnsupportedIndexFormatError, match="version 3"):
            _wal(store)
        with pytest.raises(UnsupportedIndexFormatError):
            IndexManifest.read("idx", None, b'{"next_segment": 4, "active_segments": []}')


def manifest_bytes(manifest: IndexManifest) -> bytes:
    """``manifest`` as its commit writes it."""
    store = InMemoryObjectStore()
    AppendOnlyIndexManager(store, manifest.base_index).commit(lambda _: manifest)
    return store.get(f"{manifest.base_index}/manifest.json")


def _wal(store) -> WriteAheadLog:
    """A WAL of ``idx`` committing through a fresh manager (one process's)."""
    return WriteAheadLog(store, "idx", AppendOnlyIndexManager(store, "idx"))


def _flush(wal: WriteAheadLog) -> None:
    """A flush's WAL half: seal everything, commit the move past it."""
    _, retire = wal.seal()
    wal.manager.commit(retire)
