"""Write-ahead log for live ingestion, laid out for object storage.

Cloud object stores have no append operation, so the WAL is *segmented*:
every accepted ``append`` batch becomes one immutable segment blob under
``<index>/ingest/seg-NNNNNNNN.log``, committed before the batch is
acknowledged.  Two deliberate choices make the design cheap:

* **A segment is plain line-delimited corpus bytes** — exactly the layout
  :class:`~repro.parsing.corpus.LineDelimitedCorpusParser` reads and the
  Builder indexes.  The segment therefore *is* the documents' permanent
  storage: postings created at flush time point straight into it with
  ``(blob, offset, length)`` ranges, and compaction re-reads documents from
  it like from any corpus blob.  Nothing is ever copied out of the WAL.
* **One manifest blob is the commit point** — ``<index>/ingest/ingest.json``
  lists the segments not yet folded into a delta index (``active``) plus a
  monotonic segment counter.  Replay after a crash reads the manifest and
  re-parses the active segments; flushing rewrites the manifest with the
  flushed segments removed.  A flush that crashes *between* writing the
  delta and trimming the manifest replays those documents a second time —
  harmless, because postings are ``(blob, offset, length)`` and the combined
  view de-duplicates by exact reference.

Segment numbering never resets (the counter outlives flushes), so a replayed
or retried writer can never overwrite a segment readers may hold.

Deletes and updates ride the same machinery as **tombstone records**: a
``DELETE`` writes a ``tomb-NNNNNNNN.json`` blob (numbered from the same
monotonic counter as document segments) listing the condemned
``(blob, offset, length)`` references, then commits it into the manifest's
``tombstone_segments`` list.  An ``UPDATE`` is a document segment plus a
tombstone for the old reference committed in **one** manifest write, so
readers never observe the delete without the replacement (or vice versa).
Tombstones outlive flushes — they must keep shadowing copies of the document
in delta and base indexes — and are retired (and their blobs deleted) only
when a compaction physically drops the condemned documents.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Mapping, Sequence

from repro.index.store_layout import (
    ingest_manifest_blob,
    ingest_prefix,
    segment_blob,
    tombstone_blob,
)
from repro.parsing.corpus import LineDelimitedCorpusParser
from repro.parsing.documents import Document, Posting
from repro.storage.base import BlobNotFoundError, ObjectStore, RangeRead


@dataclass(frozen=True)
class IngestManifest:
    """Durable ingest state of one index: unflushed segments + counter.

    ``tombstone_segments`` lists the tombstone record blobs whose deletes
    have not yet been applied physically by a compaction; manifests written
    before deletes existed load with the empty default.
    """

    next_segment: int = 0
    active_segments: tuple[str, ...] = ()
    tombstone_segments: tuple[str, ...] = ()

    @property
    def recovery_blobs(self) -> tuple[str, ...]:
        """Every blob a reopening node reads back: segments, then tombstone records."""
        return self.active_segments + self.tombstone_segments

    def to_bytes(self) -> bytes:
        """Serialize for the manifest blob."""
        payload = {
            "version": 1,
            "next_segment": self.next_segment,
            "active_segments": list(self.active_segments),
            "tombstone_segments": list(self.tombstone_segments),
        }
        return json.dumps(payload).encode("utf-8")

    @classmethod
    def from_bytes(cls, data: bytes | None) -> "IngestManifest":
        """Parse a manifest blob (``None``: none was written — the empty one)."""
        if data is None:
            return cls()
        payload = json.loads(data.decode("utf-8"))
        return cls(
            next_segment=int(payload["next_segment"]),
            active_segments=tuple(payload["active_segments"]),
            tombstone_segments=tuple(payload.get("tombstone_segments", ())),
        )


def encode_segment(texts: list[str]) -> bytes:
    """Encode one batch of document texts as a line-delimited segment.

    Raises ``ValueError`` on documents the line-delimited layout cannot
    represent (embedded newlines would silently split into several
    documents; empty lines are skipped by the corpus parser, so an empty
    document would vanish on replay).
    """
    if not texts:
        raise ValueError("a WAL segment needs at least one document")
    for position, text in enumerate(texts):
        if not isinstance(text, str):
            raise ValueError(f"document {position} is not a string")
        if "\n" in text:
            raise ValueError(
                f"document {position} contains a newline; one document per "
                "line is the WAL segment (and corpus) format"
            )
        if not text.strip():
            raise ValueError(f"document {position} is empty (or whitespace only)")
    return ("\n".join(texts) + "\n").encode("utf-8")


#: Format version written into tombstone record blobs.
TOMBSTONE_FORMAT_V1 = 1


def encode_tombstones(refs: Sequence[Posting]) -> bytes:
    """Encode one batch of condemned document references as a tombstone record.

    Raises ``ValueError`` on an empty batch — an empty tombstone would be a
    durable no-op that still costs a manifest entry forever.
    """
    refs = list(refs)
    if not refs:
        raise ValueError("a tombstone record needs at least one document reference")
    for position, ref in enumerate(refs):
        if not isinstance(ref, Posting):
            raise ValueError(f"tombstone entry {position} is not a document reference")
        if not ref.blob or ref.offset < 0 or ref.length <= 0:
            raise ValueError(
                f"tombstone entry {position} is not a valid document reference: "
                f"({ref.blob!r}, {ref.offset}, {ref.length})"
            )
    payload = {
        "version": TOMBSTONE_FORMAT_V1,
        "refs": [[ref.blob, ref.offset, ref.length] for ref in refs],
    }
    return json.dumps(payload).encode("utf-8")


def parse_tombstones(data: bytes) -> list[Posting]:
    """Decode a tombstone record blob back into document references."""
    payload = json.loads(data.decode("utf-8"))
    version = payload.get("version")
    if version != TOMBSTONE_FORMAT_V1:
        raise ValueError(f"unknown tombstone record version {version!r}")
    return [
        Posting(blob=str(blob), offset=int(offset), length=int(length))
        for blob, offset, length in payload["refs"]
    ]


def parse_segment(blob_name: str, data: bytes) -> list[Document]:
    """Documents of one segment, with byte-exact postings into the blob.

    Uses the standard line-delimited corpus parser, so offsets agree with
    what a flush-time delta build (or a later compaction) computes for the
    very same blob.
    """
    return list(LineDelimitedCorpusParser().parse_blob(blob_name, data))


class WriteAheadLog:
    """The segmented WAL of one index on one object store.

    Not itself thread-safe: :class:`~repro.ingest.live.LiveIndex` serializes
    all WAL mutations under its write lock (the manifest is a single-writer
    blob, like every other manifest in the repository).

    ``fetched`` is what the opener of the index already read of this WAL
    (blob → payload; ``None`` for a manifest that is not there): the
    manifest and the recovery reads take it from there, once, instead of
    asking the store again.
    """

    def __init__(
        self,
        store: ObjectStore,
        index_name: str,
        fetched: Mapping[str, bytes | None] | None = None,
    ) -> None:
        self._store = store
        self._index_name = index_name
        self._fetched = dict(fetched or {})
        self._manifest: IngestManifest | None = None
        if self.manifest_blob in self._fetched:
            self._manifest = IngestManifest.from_bytes(self._fetched.pop(self.manifest_blob))
        #: In-process floor on segment numbers: reservations whose PUT is
        #: still in flight (not yet in the manifest) must not be reissued.
        self._reserved = 0

    @property
    def index_name(self) -> str:
        """The index this WAL belongs to."""
        return self._index_name

    @property
    def manifest_blob(self) -> str:
        """Blob holding this WAL's manifest."""
        return ingest_manifest_blob(self._index_name)

    def manifest(self, refresh: bool = False) -> IngestManifest:
        """The current manifest (cached after the first read)."""
        if self._manifest is None or refresh:
            try:
                data = self._store.get(self.manifest_blob)
            except BlobNotFoundError:
                data = None
            self._manifest = IngestManifest.from_bytes(data)
        return self._manifest

    def _commit(self, manifest: IngestManifest) -> None:
        self._store.put(self.manifest_blob, manifest.to_bytes())
        self._manifest = manifest

    # -- writing -------------------------------------------------------------------

    def reserve_segment(self) -> tuple[int, str]:
        """Allocate the next segment number and blob name (no I/O).

        The caller serializes reservations (LiveIndex's write lock); the
        in-process floor keeps numbers monotonic even while an earlier
        reservation's PUT is still in flight.  A reservation whose PUT
        crashes before :meth:`commit_segment` leaves at most an
        *unreferenced* blob that a later process may overwrite — it was
        never acknowledged, so nobody can hold a reference to it.
        """
        sequence = max(self.manifest().next_segment, self._reserved)
        self._reserved = sequence + 1
        return sequence, segment_blob(self._index_name, sequence)

    def commit_segment(self, sequence: int, blob: str) -> None:
        """Reference an already-written segment blob from the manifest.

        The commit point of an append: the segment bytes are durable before
        this runs, so the manifest never points at missing data.
        """
        manifest = self.manifest()
        self._commit(
            IngestManifest(
                next_segment=max(manifest.next_segment, sequence + 1),
                active_segments=manifest.active_segments + (blob,),
                tombstone_segments=manifest.tombstone_segments,
            )
        )

    def reserve_tombstone(self) -> tuple[int, str]:
        """Allocate the next tombstone record number and blob name (no I/O).

        Same contract as :meth:`reserve_segment` — one shared monotonic
        counter, caller-serialized, crash-before-commit leaves at most an
        unreferenced blob.
        """
        sequence = max(self.manifest().next_segment, self._reserved)
        self._reserved = sequence + 1
        return sequence, tombstone_blob(self._index_name, sequence)

    def commit_tombstone(self, sequence: int, blob: str) -> None:
        """Reference an already-written tombstone record from the manifest.

        The commit point of a DELETE: until this manifest PUT lands, the
        delete was never acknowledged and a crash simply strands the record
        blob.
        """
        manifest = self.manifest()
        self._commit(
            IngestManifest(
                next_segment=max(manifest.next_segment, sequence + 1),
                active_segments=manifest.active_segments,
                tombstone_segments=manifest.tombstone_segments + (blob,),
            )
        )

    def commit_update(
        self,
        segment_sequence: int,
        segment: str,
        tombstone_sequence: int,
        tombstone: str,
    ) -> IngestManifest:
        """Commit an UPDATE: new document segment + old-reference tombstone.

        One manifest PUT references both blobs, so the operation is atomic:
        a crash before it shows the old document untouched, after it the
        replacement — never a window with both or neither visible.
        """
        manifest = self.manifest()
        updated = IngestManifest(
            next_segment=max(
                manifest.next_segment, segment_sequence + 1, tombstone_sequence + 1
            ),
            active_segments=manifest.active_segments + (segment,),
            tombstone_segments=manifest.tombstone_segments + (tombstone,),
        )
        self._commit(updated)
        return updated

    def append_tombstones(self, refs: Sequence[Posting]) -> str:
        """Persist one batch of deletes as a tombstone record; returns its blob.

        Convenience wrapper over reserve → PUT → commit for single-threaded
        callers; LiveIndex drives the three steps itself so the record PUT
        happens outside its write lock.
        """
        data = encode_tombstones(refs)
        sequence, blob = self.reserve_tombstone()
        self._store.put(blob, data)
        self.commit_tombstone(sequence, blob)
        return blob

    def append(self, texts: list[str]) -> tuple[str, list[Document]]:
        """Persist one batch as a new segment; returns ``(blob, documents)``.

        Convenience wrapper over reserve → PUT → commit for single-threaded
        callers (tests, tools); LiveIndex drives the three steps itself so
        the segment PUT happens outside its write lock.
        """
        data = encode_segment(texts)
        sequence, blob = self.reserve_segment()
        self._store.put(blob, data)
        self.commit_segment(sequence, blob)
        return blob, parse_segment(blob, data)

    def retire(self, segments: tuple[str, ...]) -> IngestManifest:
        """Drop flushed ``segments`` from the active list (the flush commit).

        The segment blobs themselves are **not** deleted: they hold the
        document bytes the freshly built delta's postings point into.
        """
        manifest = self.manifest()
        remaining = tuple(
            blob for blob in manifest.active_segments if blob not in set(segments)
        )
        committed = IngestManifest(
            next_segment=manifest.next_segment,
            active_segments=remaining,
            tombstone_segments=manifest.tombstone_segments,
        )
        self._commit(committed)
        return committed

    def retire_tombstones(self, tombstones: Sequence[str]) -> IngestManifest:
        """Drop applied ``tombstones`` from the manifest (the compaction commit).

        Only valid once a compaction has physically dropped the condemned
        documents from the persisted indexes.  Unlike document segments the
        record blobs hold no document bytes, so they are deleted afterwards
        (best-effort: an unreferenced leftover is harmless).
        """
        manifest = self.manifest()
        dropped = set(tombstones)
        committed = IngestManifest(
            next_segment=manifest.next_segment,
            active_segments=manifest.active_segments,
            tombstone_segments=tuple(
                blob for blob in manifest.tombstone_segments if blob not in dropped
            ),
        )
        self._commit(committed)
        for blob in dropped:
            try:
                self._store.delete(blob)
            except Exception:  # noqa: BLE001 - unreferenced blob, cleanup only
                pass
        return committed

    def restore(self, tombstones: Sequence[Posting] = ()) -> IngestManifest:
        """Reset the WAL to a snapshot's write state (the restore commit).

        Active document segments are dropped (their blobs stay — persisted
        indexes reference document bytes inside them) and the pending-delete
        set is replaced by ``tombstones``, written as one fresh record.  The
        segment counter is preserved so post-restore writers never reuse a
        blob name from the abandoned timeline.
        """
        manifest = self.manifest(refresh=True)
        next_segment = max(manifest.next_segment, self._reserved)
        tombstone_segments: tuple[str, ...] = ()
        if tombstones:
            blob = tombstone_blob(self._index_name, next_segment)
            self._store.put(blob, encode_tombstones(tombstones))
            tombstone_segments = (blob,)
            next_segment += 1
        committed = IngestManifest(
            next_segment=next_segment,
            active_segments=(),
            tombstone_segments=tombstone_segments,
        )
        self._commit(committed)
        self._reserved = next_segment
        return committed

    # -- recovery ------------------------------------------------------------------

    def _recovered(self, blobs: Sequence[str]) -> list[bytes]:
        """Payloads of ``blobs`` (segments or tombstone records), in order.

        What is not in hand is read as **one** batch together with every
        other blob the manifest names, so a reopening node pays one wave for
        its segments and its tombstone records; each payload is handed out
        once (segments are the documents' storage, not a cache to keep).
        """
        if any(blob not in self._fetched for blob in blobs):
            missing = [
                blob for blob in self.manifest().recovery_blobs if blob not in self._fetched
            ]
            fetch = self._store.read_batch([RangeRead(blob) for blob in missing])
            self._fetched.update(zip(missing, fetch.payloads))
        return [self._fetched.pop(blob) for blob in blobs]

    def replay(self) -> list[Document]:
        """Documents of every active (unflushed) segment, in append order."""
        segments = self.manifest().active_segments
        return [
            document
            for blob, data in zip(segments, self._recovered(segments))
            for document in parse_segment(blob, data)
        ]

    def load_tombstones(self, refresh: bool = False) -> dict[str, tuple[Posting, ...]]:
        """Pending deletes, per tombstone record blob (crash recovery).

        Returns ``{record_blob: condemned_refs}`` for every record the
        manifest still references — the in-memory shadow set a reopened
        :class:`~repro.ingest.live.LiveIndex` filters queries with until the
        next compaction applies the deletes physically.
        """
        records = self.manifest(refresh=refresh).tombstone_segments
        return {
            blob: tuple(parse_tombstones(data))
            for blob, data in zip(records, self._recovered(records))
        }

    def destroy(self) -> None:
        """Delete the manifest and every segment blob (full index rebuild).

        Only valid when the documents are no longer referenced — i.e. the
        whole index is being rebuilt from scratch over a new corpus.
        """
        for blob in self._store.list_blobs(prefix=ingest_prefix(self._index_name)):
            self._store.delete(blob)
        self._manifest = IngestManifest()
        self._fetched.clear()
