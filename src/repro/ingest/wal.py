"""Write-ahead log for live ingestion, laid out for object storage.

Cloud object stores have no append operation, so the WAL is *segmented*:
every accepted ``append`` batch becomes one immutable segment blob under
``<index>/ingest/seg-NNNNNNNN.log``.  Two deliberate choices make the design
cheap:

* **A segment is plain line-delimited corpus bytes** — exactly the layout
  :class:`~repro.parsing.corpus.LineDelimitedCorpusParser` reads and the
  Builder indexes.  The segment therefore *is* the documents' permanent
  storage: postings created at flush time point straight into it with
  ``(blob, offset, length)`` ranges, and queries fetch documents from it
  like from any corpus blob.  Nothing is ever copied out of the WAL.
* **The segment PUT is an append's commit point** — one round trip per
  acknowledged batch.  ``<index>/ingest/ingest.json`` does not list
  segments; it records a *range* of sequence numbers, ``first_unflushed``
  F to ``reserved_end`` L, that a writer reserves :data:`SEGMENT_BLOCK` at
  a time with one manifest PUT before the first segment of each block.
  Replay reads ``seg-F … seg-(L−1)`` as "missing is an answer" reads: a
  missing segment is an append that was never acknowledged, not the end of
  the log.  Flushing moves F past the flushed segments.  A flush that
  crashes *between* writing the delta and moving F replays those documents
  a second time — harmless, because postings are ``(blob, offset, length)``
  and the combined view de-duplicates by exact reference.

Sequence numbers never repeat: a process starts numbering at the L it read,
so a restarted or retried writer never overwrites a segment readers may
hold.

Deletes and updates must not become visible on their own PUT, so they still
commit through the manifest.  A ``DELETE`` writes a ``tomb-NNNNNNNN.json``
record (numbered from the same counter) listing the condemned
``(blob, offset, length)`` references, then lists it in the manifest's
``tombstone_segments``.  An ``UPDATE`` writes its replacement text as
``upd-NNNNNNNN.log`` — a segment outside the probed ``seg-`` range — plus a
tombstone for the old reference, and lists **both** in one manifest PUT, so
readers never observe the delete without the replacement (or vice versa).
Tombstones outlive flushes — they must keep shadowing copies of the document
in delta and base indexes — and are retired (and their blobs deleted) only
when a compaction physically drops the condemned documents.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from typing import Mapping, NamedTuple, Sequence

from repro.index.store_layout import (
    ingest_manifest_blob,
    ingest_prefix,
    segment_blob,
    tombstone_blob,
    update_blob,
)
from repro.parsing.corpus import LineDelimitedCorpusParser
from repro.parsing.documents import Posting
from repro.storage.base import BlobNotFoundError, ObjectStore, RangeRead

#: Sequence numbers one manifest PUT reserves for appends.  The trade: a
#: cold open probes up to ``SEGMENT_BLOCK - 1`` segments no append wrote
#: (one optional read each, inside a wave it pays anyway), against one extra
#: PUT per ``SEGMENT_BLOCK`` appends.
SEGMENT_BLOCK = 32


class IngestManifestError(ValueError):
    """An ingest manifest this code cannot read (unknown version)."""


@dataclass(frozen=True)
class IngestManifest:
    """Durable ingest state of one index.

    Every sequence number below ``reserved_end`` may have been used; the
    segments ``first_unflushed`` … ``reserved_end - 1`` that exist hold the
    unflushed appends.  ``listed_segments`` are unflushed segments named one
    by one (update replacements, and segments a version-1 manifest listed);
    ``tombstone_segments`` the tombstone records whose deletes have not yet
    been applied physically by a compaction.
    """

    first_unflushed: int = 0
    reserved_end: int = 0
    listed_segments: tuple[str, ...] = ()
    tombstone_segments: tuple[str, ...] = ()

    def segments(self, index_name: str) -> tuple[str, ...]:
        """Every blob that may hold unflushed documents: the range, then the listed."""
        probed = range(self.first_unflushed, self.reserved_end)
        return tuple(segment_blob(index_name, n) for n in probed) + self.listed_segments

    def recovery_blobs(self, index_name: str) -> tuple[str, ...]:
        """Every blob a reopening node reads back: segments, then tombstone records."""
        return self.segments(index_name) + self.tombstone_segments

    def to_bytes(self) -> bytes:
        """Serialize for the manifest blob (always version 2)."""
        payload = {
            "version": 2,
            "first_unflushed": self.first_unflushed,
            "reserved_end": self.reserved_end,
            "listed_segments": list(self.listed_segments),
            "tombstone_segments": list(self.tombstone_segments),
        }
        return json.dumps(payload).encode("utf-8")

    @classmethod
    def from_bytes(cls, data: bytes | None) -> "IngestManifest":
        """Parse a manifest blob (``None``: none was written — the empty one).

        A version-1 manifest (a ``next_segment`` counter and an
        ``active_segments`` list) reads as an empty range at the counter with
        its segments listed, so the first commit rewrites it as version 2
        without losing one.  Raises :class:`IngestManifestError` on any other
        version.
        """
        if data is None:
            return cls()
        payload = json.loads(data.decode("utf-8"))
        version = payload.get("version")
        tombstones = tuple(payload.get("tombstone_segments", ()))
        if version == 1:
            counter = int(payload["next_segment"])
            return cls(counter, counter, tuple(payload["active_segments"]), tombstones)
        if version == 2:
            return cls(
                int(payload["first_unflushed"]),
                int(payload["reserved_end"]),
                tuple(payload["listed_segments"]),
                tombstones,
            )
        raise IngestManifestError(f"unknown ingest manifest version {version!r}")


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


class Segment(NamedTuple):
    """One segment's lines as columns: line ``i`` is ``blob``'s bytes
    ``[offsets[i], offsets[i] + lengths[i])`` and reads ``texts[i]``."""

    blob: str
    offsets: list[int]
    lengths: list[int]
    texts: list[str]


def parse_segment(blob_name: str, data: bytes) -> Segment:
    """The columns of one segment, with byte-exact ranges into the blob.

    Cut by the standard line-delimited corpus parser's rule, so offsets
    agree with what a delta build (or a later compaction) computes for the
    very same blob.
    """
    return Segment(blob_name, *LineDelimitedCorpusParser()._cut(data))


class WriteAheadLog:
    """The segmented WAL of one index on one object store.

    Not itself thread-safe: :class:`~repro.ingest.live.LiveIndex` serializes
    every WAL call on its commit lock (the manifest is a single-writer blob,
    like every other manifest in the repository).

    ``fetched`` is what the opener of the index already read of this WAL
    (blob → payload; ``None`` for a blob that is not there): the manifest
    and the recovery reads take it from there, once, instead of asking the
    store again.
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
        #: The next sequence number this process hands out.
        self._next = 0
        #: Sequence numbers below this one may hold a previous process's
        #: segments that this process has not replayed: a flush must not
        #: move ``first_unflushed`` past them.
        self._replayed_from: int | None = None
        #: Committed, unflushed segments this process knows are there.
        self._unflushed: list[str] = []
        if self.manifest_blob in self._fetched:
            self._adopt(IngestManifest.from_bytes(self._fetched.pop(self.manifest_blob)))

    @property
    def index_name(self) -> str:
        """The index this WAL belongs to."""
        return self._index_name

    @property
    def manifest_blob(self) -> str:
        """Blob holding this WAL's manifest."""
        return ingest_manifest_blob(self._index_name)

    @property
    def unflushed(self) -> tuple[str, ...]:
        """Committed segments not yet retired by a flush (replayed or appended here)."""
        return tuple(self._unflushed)

    def manifest(self, refresh: bool = False) -> IngestManifest:
        """The current manifest (cached after the first read)."""
        if self._manifest is None or refresh:
            try:
                data = self._store.get(self.manifest_blob)
            except BlobNotFoundError:
                data = None
            self._adopt(IngestManifest.from_bytes(data))
        assert self._manifest is not None
        return self._manifest

    def _adopt(self, manifest: IngestManifest) -> None:
        """Take a manifest read from the store: never number below its reservation."""
        self._manifest = manifest
        self._next = max(self._next, manifest.reserved_end)
        if self._replayed_from is None:
            self._replayed_from = manifest.reserved_end

    def _commit(self, manifest: IngestManifest) -> None:
        self._store.put(self.manifest_blob, manifest.to_bytes())
        self._manifest = manifest

    def _allocate(self) -> int:
        """The next sequence number (no I/O once the manifest is known)."""
        self.manifest()
        sequence, self._next = self._next, self._next + 1
        return sequence

    def _commit_with(self, **changes) -> None:
        """Commit the manifest with ``changes`` and every number used so far reserved."""
        manifest = self.manifest()
        reserved_end = max(manifest.reserved_end, self._next)
        self._commit(replace(manifest, reserved_end=reserved_end, **changes))

    # -- writing -------------------------------------------------------------------

    def append(self, data: bytes) -> Segment:
        """Persist one batch, :func:`encode_segment`'s ``data``, as a new
        segment; returns its columns.

        One PUT, the commit point — plus one manifest PUT reserving the next
        :data:`SEGMENT_BLOCK` numbers when the reservation is used up.  A
        segment PUT that raises burns its number: the hole it may leave is
        skipped on replay.
        """
        manifest = self.manifest()
        if self._next >= manifest.reserved_end:
            self._commit(replace(manifest, reserved_end=self._next + SEGMENT_BLOCK))
        blob = segment_blob(self._index_name, self._allocate())
        self._store.put(blob, data)
        self._unflushed.append(blob)
        return parse_segment(blob, data)

    def append_tombstones(self, data: bytes) -> str:
        """Persist one batch of deletes, :func:`encode_tombstones`'s ``data``,
        as a tombstone record; returns its blob.

        The commit point is the manifest PUT listing the record: until it
        lands, the delete was never acknowledged and a crash strands at most
        an unreferenced record blob.
        """
        blob = tombstone_blob(self._index_name, self._allocate())
        self._store.put(blob, data)
        self._commit_with(tombstone_segments=self.manifest().tombstone_segments + (blob,))
        return blob

    def update(self, tombstone_data: bytes, data: bytes) -> tuple[str, Segment]:
        """Replace the document that :func:`encode_tombstones`'s
        ``tombstone_data`` condemns by the one-line segment ``data``:
        ``(tombstone, segment)``.

        The replacement segment and the old reference's tombstone are
        written first, then one manifest PUT lists both, so the operation is
        atomic: a crash before it shows the old document untouched, after it
        the replacement — never a window with both or neither visible.
        """
        segment = update_blob(self._index_name, self._allocate())
        tombstone = tombstone_blob(self._index_name, self._allocate())
        self._store.put(segment, data)
        self._store.put(tombstone, tombstone_data)
        manifest = self.manifest()
        self._commit_with(
            listed_segments=manifest.listed_segments + (segment,),
            tombstone_segments=manifest.tombstone_segments + (tombstone,),
        )
        self._unflushed.append(segment)
        return tombstone, parse_segment(segment, data)

    def retire(self, segments: Sequence[str]) -> IngestManifest:
        """Retire flushed ``segments`` (the flush commit).

        ``first_unflushed`` moves to the first number still holding an
        unflushed segment (or, with none, past every number used), the
        reservation is trimmed to the numbers used — so a cold open does not
        probe what no append wrote — and the flushed listed segments are
        dropped.  The segment blobs themselves are **not** deleted: they hold
        the document bytes the freshly built delta's postings point into.
        """
        retired = set(segments)
        remaining = [blob for blob in self._unflushed if blob not in retired]
        manifest = self.manifest()
        first = manifest.first_unflushed
        if self._replayed_from is not None and first >= self._replayed_from:
            kept = set(remaining)
            first = next(
                (n for n in range(first, self._next) if segment_blob(self._index_name, n) in kept),
                self._next,
            )
        self._commit(
            replace(
                manifest,
                first_unflushed=first,
                reserved_end=self._next,
                listed_segments=tuple(
                    blob for blob in manifest.listed_segments if blob not in retired
                ),
            )
        )
        self._unflushed = remaining
        return self.manifest()

    def retire_tombstones(self, tombstones: Sequence[str]) -> IngestManifest:
        """Drop applied ``tombstones`` from the manifest (the compaction commit).

        Only valid once a compaction has physically dropped the condemned
        documents from the persisted indexes.  Unlike document segments the
        record blobs hold no document bytes, so they are deleted afterwards
        (best-effort: an unreferenced leftover is harmless).
        """
        manifest = self.manifest()
        dropped = set(tombstones)
        self._commit(
            replace(
                manifest,
                tombstone_segments=tuple(
                    blob for blob in manifest.tombstone_segments if blob not in dropped
                ),
            )
        )
        for blob in dropped:
            try:
                self._store.delete(blob)
            except Exception:  # noqa: BLE001 - unreferenced blob, cleanup only
                pass
        return self.manifest()

    def restore(self, tombstones: Sequence[Posting] = ()) -> IngestManifest:
        """Reset the WAL to a snapshot's write state (the restore commit).

        Unflushed segments are dropped (their blobs stay — persisted indexes
        reference document bytes inside them) and the pending-delete set is
        replaced by ``tombstones``, written as one fresh record.  The
        sequence counter is kept, so post-restore writers never reuse a blob
        name from the abandoned timeline.
        """
        self.manifest(refresh=True)
        tombstone_segments: tuple[str, ...] = ()
        if tombstones:
            blob = tombstone_blob(self._index_name, self._allocate())
            self._store.put(blob, encode_tombstones(tombstones))
            tombstone_segments = (blob,)
        self._commit(IngestManifest(self._next, self._next, (), tombstone_segments))
        self._unflushed = []
        return self.manifest()

    # -- recovery ------------------------------------------------------------------

    def _recovered(self, blobs: Sequence[str]) -> list[bytes | None]:
        """Payloads of ``blobs`` (segments or tombstone records), in order.

        What is not in hand is read as **one** batch of optional reads
        together with every other blob the manifest may need, so a reopening
        node pays one wave for its segments and its tombstone records; each
        payload is handed out once (segments are the documents' storage, not
        a cache to keep).  ``None`` is a blob that is not there.
        """
        if any(blob not in self._fetched for blob in blobs):
            missing = [
                blob
                for blob in self.manifest().recovery_blobs(self._index_name)
                if blob not in self._fetched
            ]
            fetch = self._store.read_batch([RangeRead(blob, optional=True) for blob in missing])
            self._fetched.update(zip(missing, fetch.payloads))
        return [self._fetched.pop(blob) for blob in blobs]

    def replay(self) -> list[Segment]:
        """Every unflushed segment's columns: the range, then the listed ones.

        A probed segment that is not there was never acknowledged and is
        skipped; a *listed* one that is not there is lost data
        (:class:`~repro.storage.base.BlobNotFoundError`).
        """
        manifest = self.manifest()
        blobs = manifest.segments(self._index_name)
        segments = []
        for blob, data in zip(blobs, self._recovered(blobs)):
            if data is None:
                if blob in manifest.listed_segments:
                    raise BlobNotFoundError(blob)
                continue
            segments.append(parse_segment(blob, data))
        self._unflushed = [segment.blob for segment in segments]
        self._replayed_from = manifest.first_unflushed
        return segments

    def load_tombstones(self, refresh: bool = False) -> dict[str, tuple[Posting, ...]]:
        """Pending deletes, per tombstone record blob (crash recovery).

        Returns ``{record_blob: condemned_refs}`` for every record the
        manifest still references — the in-memory shadow set a reopened
        :class:`~repro.ingest.live.LiveIndex` filters queries with until the
        next compaction applies the deletes physically.
        """
        records = self.manifest(refresh=refresh).tombstone_segments
        loaded = {}
        for blob, data in zip(records, self._recovered(records)):
            if data is None:
                raise BlobNotFoundError(blob)
            loaded[blob] = tuple(parse_tombstones(data))
        return loaded

    def destroy(self) -> None:
        """Delete the manifest and every segment blob (full index rebuild).

        Only valid when the documents are no longer referenced — i.e. the
        whole index is being rebuilt from scratch over a new corpus.
        """
        for blob in self._store.list_blobs(prefix=ingest_prefix(self._index_name)):
            self._store.delete(blob)
        self._manifest = IngestManifest()
        self._fetched.clear()
        self._unflushed = []
