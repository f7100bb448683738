"""Write-ahead log for live ingestion, laid out for object storage.

Cloud object stores have no append operation, so the WAL is *segmented*:
every accepted ``append`` batch becomes one immutable segment blob,
``<index>/ingest/seg-NNNNNNNN.log``, of plain line-delimited corpus bytes —
the layout :class:`~repro.parsing.corpus.LineDelimitedCorpusParser` reads
and the Builder indexes.  The segment therefore *is* the documents'
permanent storage: flush-time postings point straight into it.

**The segment PUT is an append's commit point**, one round trip per
acknowledged batch.  The WAL's durable state lives, by sequence number, in
the index's one commit point, its update manifest
(:class:`~repro.index.updates.IndexManifest`): not a list of segments but a
*range*, ``first_unflushed`` F to ``reserved_end`` L, that a writer
reserves :data:`SEGMENT_BLOCK` numbers at a time with one manifest PUT.
Replay reads ``seg-F … seg-(L−1)`` as "missing is an answer" reads: a
missing segment is an append that was never acknowledged, not the end of
the log.  A flush commits its delta and moves F past the flushed segments
in one manifest PUT.  Numbers never repeat — a process numbers from the L
it read — and segments leave only through a swap's purge, one swap after a
rebuild started the WAL above them.

Deletes and updates must not become visible on their own PUT, so they
commit through the manifest, which holds the pending deletes themselves —
the condemned ``(blob, offset, length)`` references: a ``DELETE`` is one
manifest PUT that adds them; an ``UPDATE`` writes its replacement text as
``upd-NNNNNNNN.log`` (outside the probed ``seg-`` range), then one manifest
PUT lists it and condemns the old reference.  Pending deletes outlive
flushes — they keep shadowing copies in deltas and the base — until a
compaction drops the condemned documents and, with the same PUT, them.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Callable, Mapping, NamedTuple, Sequence

from repro.index.store_layout import segment_blob, update_blob
from repro.index.updates import AppendOnlyIndexManager, IndexManifest
from repro.parsing.corpus import LineDelimitedCorpusParser
from repro.parsing.documents import Posting
from repro.storage.base import BlobNotFoundError, ObjectStore, RangeRead

#: Sequence numbers one manifest PUT reserves for appends.  The trade: a
#: cold open probes up to ``SEGMENT_BLOCK - 1`` segments no append wrote
#: (one optional read each, inside a wave it pays anyway), against one extra
#: PUT per ``SEGMENT_BLOCK`` appends.
SEGMENT_BLOCK = 32


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


def check_refs(refs: Sequence[Posting]) -> list[Posting]:
    """The distinct document references a delete condemns, in order.

    Raises ``ValueError`` on an empty batch (a durable no-op that still
    costs a commit) and on a reference no document can have.
    """
    refs = list(dict.fromkeys(refs))
    if not refs:
        raise ValueError("a delete needs at least one document reference")
    for position, ref in enumerate(refs):
        if not isinstance(ref, Posting):
            raise ValueError(f"tombstone entry {position} is not a document reference")
        if not ref.blob or ref.offset < 0 or ref.length <= 0:
            raise ValueError(
                f"tombstone entry {position} is not a valid document reference: "
                f"({ref.blob!r}, {ref.offset}, {ref.length})"
            )
    return refs


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
    """The segmented WAL of one index, committing through ``manager``, the
    one manager of the index in this process.

    Not itself thread-safe: :class:`~repro.ingest.live.LiveIndex` serializes
    every WAL write on the manager's lock, which every manifest commit
    holds too — so no commit sees a number handed out and not committed.
    ``fetched`` is what the opener of the index already read of this WAL
    (blob → payload; ``None``: not there), taken once instead of a read.
    """

    def __init__(
        self,
        store: ObjectStore,
        index_name: str,
        manager: AppendOnlyIndexManager,
        fetched: Mapping[str, bytes | None] | None = None,
    ) -> None:
        self._store = store
        self._index_name = index_name
        self._manager = manager
        self._fetched = dict(fetched or {})
        reserved_end = self.manifest().reserved_end
        #: The next sequence number this process hands out.
        self._next = reserved_end
        #: Numbers below this one may hold segments this process has not
        #: replayed: a flush must not move ``first_unflushed`` past them.
        self._replayed_from = reserved_end
        #: Committed segments appended or replayed here (see :attr:`unflushed`).
        self._segments: list[str] = []

    @property
    def manager(self) -> AppendOnlyIndexManager:
        """The manager of the manifest this WAL commits through."""
        return self._manager

    @property
    def unflushed(self) -> tuple[str, ...]:
        """Committed segments not yet retired by a flush (replayed or appended here)."""
        pending = set(self.manifest().segments())
        return tuple(blob for blob in self._segments if blob in pending)

    def manifest(self) -> IndexManifest:
        """The index's live manifest, which holds this WAL's state."""
        return self._manager.manifest()

    def _allocate(self) -> int:
        """The next sequence number (no I/O)."""
        sequence, self._next = self._next, self._next + 1
        return sequence

    def _commit(self, change: Callable[[IndexManifest], IndexManifest]) -> IndexManifest:
        """Commit ``change`` with every number used so far reserved."""
        return self._manager.commit(
            lambda manifest: change(
                replace(manifest, reserved_end=max(manifest.reserved_end, self._next))
            )
        )

    def _reserve(self, manifest: IndexManifest) -> IndexManifest:
        """Reserve the next :data:`SEGMENT_BLOCK` numbers, from this
        process's next one or, when another process reserved past it, from
        the end of that reservation."""
        self._next = max(self._next, manifest.reserved_end)
        return replace(manifest, reserved_end=self._next + SEGMENT_BLOCK)

    # -- writing -------------------------------------------------------------------

    def append(self, data: bytes) -> Segment:
        """Persist one batch, :func:`encode_segment`'s ``data``, as a new
        segment; returns its columns.

        One PUT, the commit point — plus one manifest PUT reserving the next
        :data:`SEGMENT_BLOCK` numbers when the reservation is used up.  A
        segment PUT that raises burns its number: the hole it may leave is
        skipped on replay.
        """
        if self._next >= self.manifest().reserved_end:
            self._commit(self._reserve)
        blob = segment_blob(self._index_name, self._allocate())
        self._store.put(blob, data)
        self._segments.append(blob)
        return parse_segment(blob, data)

    def update(self, ref: Posting, data: bytes) -> Segment:
        """Replace the document ``ref`` by the one-line segment ``data``;
        returns the replacement's columns.

        The replacement segment is written first, then one manifest PUT
        lists it and condemns ``ref``, so the operation is atomic: a crash
        before it shows the old document untouched, after it the
        replacement — never a window with both or neither visible.
        """
        sequence = self._allocate()
        blob = update_blob(self._index_name, sequence)
        self._store.put(blob, data)
        self._commit(
            lambda manifest: replace(
                manifest,
                updates=manifest.updates + (sequence,),
                tombstones=manifest.tombstones | {ref},
            )
        )
        self._segments.append(blob)
        return parse_segment(blob, data)

    def seal(self) -> tuple[tuple[str, ...], Callable[[IndexManifest], IndexManifest]]:
        """A flush's seal: the unflushed segments, and the manifest change
        that retires them, which the flush commits with its delta.

        The change moves ``first_unflushed`` to the first number handed out
        after the seal, trims the reservation to the numbers used (a cold
        open probes no number no append wrote) and drops the sealed updates.
        The blobs stay: the delta's postings point into them.
        """
        segments = self.unflushed
        self._segments = list(segments)
        sealed, end = set(segments), self._next

        def retire(manifest: IndexManifest) -> IndexManifest:
            first = manifest.first_unflushed
            if first >= self._replayed_from:
                first = max(first, end)
            return replace(
                manifest,
                first_unflushed=first,
                reserved_end=max(first, self._next),
                updates=tuple(
                    n for n in manifest.updates
                    if update_blob(self._index_name, n) not in sealed
                ),
            )

        return segments, retire

    # -- recovery ------------------------------------------------------------------

    def _recovered(self, blobs: Sequence[str]) -> list[bytes | None]:
        """Payloads of the segments ``blobs``, in order; ``None`` is a blob
        that is not there.

        What is not in hand is read as **one** batch of optional reads with
        every other segment the manifest names, so a reopening node pays one
        wave for them; each payload is handed out once (segments are the
        documents' storage, not a cache).
        """
        if any(blob not in self._fetched for blob in blobs):
            missing = [blob for blob in self.manifest().segments() if blob not in self._fetched]
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
        blobs = manifest.segments()
        probed = manifest.reserved_end - manifest.first_unflushed
        segments = []
        for position, (blob, data) in enumerate(zip(blobs, self._recovered(blobs))):
            if data is None:
                if position >= probed:
                    raise BlobNotFoundError(blob)
                continue
            segments.append(parse_segment(blob, data))
        self._segments = [segment.blob for segment in segments]
        self._replayed_from = manifest.first_unflushed
        return segments
