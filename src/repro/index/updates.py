"""Append-only index updates (the paper's "frequent corpus updates" future work).

Airphant's Builder produces immutable indexes, which suits read-oriented
corpora.  When new documents do arrive, rebuilding the whole index per batch
would be wasteful, so this module implements the standard append-only
pattern on top of the unchanged Builder and Searcher:

* :class:`AppendOnlyIndexManager` keeps a tiny JSON *manifest* blob next to
  the base index listing the delta indexes created so far;
* :meth:`AppendOnlyIndexManager.append` builds a new delta index over just
  the new documents (same Builder, same configuration);
* :meth:`AppendOnlyIndexManager.open_searcher` returns a
  :class:`~repro.search.searcher.AirphantSearcher` over the base plus all
  deltas;
* :meth:`AppendOnlyIndexManager.compact` folds every delta back into a single
  base index by *merging* the members' ranking statistics — each build's
  exact inverted index — minus the pending deletes, and handing the merged
  columns to the Builder; it reads no document and analyses no text, so the
  new base is a fresh rebuild over the survivors by construction.  Then it
  resets the manifest.

Compaction is *generation-safe*: every compaction builds the new base under a
fresh generational prefix and commits it with one atomic manifest write,
so a concurrent reader either sees the complete old snapshot or the complete
new one — never a half-built mix.  The builds a swap strands (the previous
base build and the folded deltas) are recorded in the manifest's ``retired``
list and physically deleted one compaction *later*, giving readers that
opened the old manifest a full generation of grace before their blobs
disappear.  Where each of these lives in the bucket, and which blobs one
build owns, is :mod:`repro.index.store_layout`'s business alone.
"""

from __future__ import annotations

import json
import re
import time
from dataclasses import dataclass
from typing import TYPE_CHECKING, AbstractSet, Sequence

from repro.core.config import SketchConfig
from repro.index.builder import AirphantBuilder, BuiltIndex, BuiltShardedIndex
from repro.index.metadata import ShardManifest
from repro.index.serialization import decode_superpost
from repro.index.stats import IndexStats, build_stats, decode_stats, union_stats
from repro.index.store_layout import (
    build_blobs,
    build_exists,
    delta_index_name,
    generation_index_name,
    open_headers,
    read_shard_manifest,
    snapshot_blob_name,
    snapshot_blobs,
    stats_blob_name,
    update_manifest_blob_name,
)
from repro.parsing.documents import Document, Posting
from repro.parsing.tokenizer import Tokenizer, WhitespaceAnalyzer
from repro.storage.base import BlobNotFoundError, ObjectStore, RangeRead

if TYPE_CHECKING:  # pragma: no cover - avoids a runtime import cycle
    from repro.search.replication import HedgingPolicy
    from repro.search.searcher import AirphantSearcher


#: Snapshot record format version.
SNAPSHOT_FORMAT_V1 = 1

#: Names a snapshot may carry: filesystem-safe, no separators.
_SNAPSHOT_NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9._-]{0,63}$")


class SnapshotRestoreError(Exception):
    """The snapshot exists but its referenced blobs no longer do.

    Raised when a restore finds a member build missing — e.g. the snapshot
    pinned a legacy in-place base that a later full rebuild overwrote, or
    its blobs were purged outside the manager's pin protection.  Typed so
    the service layer can answer 409 instead of restoring a broken timeline.
    """

    def __init__(self, base_index: str, snapshot: str, missing: Sequence[str]) -> None:
        super().__init__(
            f"snapshot {snapshot!r} of index {base_index!r} is not restorable: "
            f"missing index build(s) {', '.join(missing)}"
        )
        self.base_index = base_index
        self.snapshot = snapshot
        self.missing = tuple(missing)


@dataclass(frozen=True)
class IndexManifest:
    """One consistent snapshot of an index: base build, deltas, generation.

    ``base_index`` is the *logical* name (the catalog entry and blob-prefix
    root); ``active_base`` is the blob prefix actually holding the current
    base build — equal to ``base_index`` until the first compaction moves it
    under a generational prefix.  ``next_delta`` numbers deltas
    monotonically across compactions so a fresh delta never reuses (and
    overwrites) the prefix of a retired one that readers may still hold.
    ``retired`` lists prefixes stranded by the previous swap, physically
    purged at the *next* compaction.
    """

    base_index: str
    delta_indexes: tuple[str, ...] = ()
    generation: int = 0
    active_base: str | None = None
    next_delta: int | None = None
    retired: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if self.active_base is None:
            object.__setattr__(self, "active_base", self.base_index)
        if self.next_delta is None:
            object.__setattr__(self, "next_delta", len(self.delta_indexes))

    @property
    def all_indexes(self) -> list[str]:
        """Active base first, then deltas in creation order."""
        return [self.active_base, *self.delta_indexes]

    @classmethod
    def from_bytes(cls, base_index: str, data: bytes | None) -> "IndexManifest":
        """Parse a manifest blob (``None``: none was written yet — the empty one).

        Pre-generation manifests (no ``generation``/``active_base`` fields)
        load with their defaults, so indexes written by older builds keep
        working unchanged.
        """
        if data is None:
            return cls(base_index=base_index)
        payload = json.loads(data.decode("utf-8"))
        return cls(
            base_index=payload["base_index"],
            delta_indexes=tuple(payload["delta_indexes"]),
            generation=int(payload.get("generation", 0)),
            active_base=payload.get("active_base"),
            next_delta=payload.get("next_delta"),
            retired=tuple(payload.get("retired", ())),
        )


@dataclass(frozen=True)
class SnapshotInfo:
    """One named point-in-time snapshot of an index.

    A snapshot *is* a copy of the generational manifest (plus the pending
    tombstone set at creation time): the base build and delta prefixes it
    references are immutable, so freezing the manifest freezes the whole
    index.  The manager's purge paths skip prefixes any snapshot pins, which
    is what keeps the referenced blobs alive past later compactions.
    """

    snapshot: str
    base_index: str
    created_at: float
    manifest: IndexManifest
    tombstones: tuple[Posting, ...] = ()

    def to_dict(self) -> dict:
        """JSON-serializable description (the snapshot record payload)."""
        return {
            "version": SNAPSHOT_FORMAT_V1,
            "snapshot": self.snapshot,
            "base_index": self.base_index,
            "created_at": self.created_at,
            "manifest": {
                "base_index": self.manifest.base_index,
                "delta_indexes": list(self.manifest.delta_indexes),
                "generation": self.manifest.generation,
                "active_base": self.manifest.active_base,
                "next_delta": self.manifest.next_delta,
            },
            "tombstones": [[ref.blob, ref.offset, ref.length] for ref in self.tombstones],
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "SnapshotInfo":
        """Inverse of :meth:`to_dict`."""
        manifest = payload["manifest"]
        return cls(
            snapshot=str(payload["snapshot"]),
            base_index=str(payload["base_index"]),
            created_at=float(payload.get("created_at", 0.0)),
            manifest=IndexManifest(
                base_index=manifest["base_index"],
                delta_indexes=tuple(manifest["delta_indexes"]),
                generation=int(manifest.get("generation", 0)),
                active_base=manifest.get("active_base"),
                next_delta=manifest.get("next_delta"),
            ),
            tombstones=tuple(
                Posting(blob=str(blob), offset=int(offset), length=int(length))
                for blob, offset, length in payload.get("tombstones", ())
            ),
        )


class AppendOnlyIndexManager:
    """Manages a base IoU Sketch index plus append-only delta indexes."""

    def __init__(
        self,
        store: ObjectStore,
        base_index: str,
        config: SketchConfig | None = None,
        delta_config: SketchConfig | None = None,
        tokenizer: Tokenizer | None = None,
        format_version: int | None = None,
        layout: str | None = None,
    ) -> None:
        self._store = store
        self._base_index = base_index
        self._config = config if config is not None else SketchConfig()
        # Deltas are usually much smaller than the base corpus; a smaller bin
        # budget keeps their headers tiny unless the caller overrides it.
        self._delta_config = delta_config if delta_config is not None else self._config
        self._tokenizer = tokenizer
        # Every rebuild this manager performs — base builds, delta builds, and
        # compactions — writes this codec version, so compacting a live index
        # whose base was written as v1 upgrades it to the current default.
        self._format_version = format_version
        self._layout = layout

    @property
    def manifest_blob(self) -> str:
        """Blob holding the manifest."""
        return update_manifest_blob_name(self._base_index)

    # -- manifest ------------------------------------------------------------------

    def manifest(self) -> IndexManifest:
        """Read the current manifest (an empty one if none was written yet).

        One ``get``: a manifest purged between a probe and the read would
        otherwise surface as a missing blob instead of the empty manifest.
        """
        try:
            data = self._store.get(self.manifest_blob)
        except BlobNotFoundError:
            data = None
        return IndexManifest.from_bytes(self._base_index, data)

    def _write_manifest(self, manifest: IndexManifest) -> None:
        """Commit one snapshot atomically (a single blob PUT is the swap)."""
        payload = {
            "base_index": manifest.base_index,
            "delta_indexes": list(manifest.delta_indexes),
            "generation": manifest.generation,
            "active_base": manifest.active_base,
            "next_delta": manifest.next_delta,
            "retired": list(manifest.retired),
        }
        self._store.put(self.manifest_blob, json.dumps(payload).encode("utf-8"))

    # -- building ------------------------------------------------------------------

    def build_base(self, documents: Sequence[Document], corpus_name: str = "corpus") -> BuiltIndex:
        """Build (or rebuild) the base index in place and reset the manifest.

        The rebuild keeps the legacy in-place layout (blobs directly under
        the index name).  Whatever the previous manifest referenced — a
        generational base, deltas — is marked retired and purged by the next
        compaction (or :meth:`reset`).
        """
        old = self.manifest()
        builder = AirphantBuilder(
            self._store,
            config=self._config,
            tokenizer=self._tokenizer,
            format_version=self._format_version,
            layout=self._layout,
        )
        built = builder.build_from_documents(
            documents, index_name=self._base_index, corpus_name=corpus_name
        )
        stranded = tuple(
            name
            for name in dict.fromkeys((*old.all_indexes, *old.retired))
            # The in-place blobs were just overwritten by this rebuild; a
            # retirement entry for them would purge the *new* base later.
            if name != self._base_index
        )
        self._write_manifest(
            IndexManifest(
                base_index=self._base_index,
                generation=old.generation + 1,
                next_delta=old.next_delta,
                retired=stranded,
            )
        )
        return built

    def append(self, documents: Sequence[Document], corpus_name: str = "delta") -> BuiltIndex:
        """Index newly arrived documents as a fresh delta index."""
        documents = list(documents)
        if not documents:
            raise ValueError("append() needs at least one document")
        manifest = self.manifest()
        delta_name = delta_index_name(self._base_index, manifest.next_delta)
        builder = AirphantBuilder(
            self._store,
            config=self._delta_config,
            tokenizer=self._tokenizer,
            format_version=self._format_version,
            layout=self._layout,
        )
        built = builder.build_from_documents(documents, index_name=delta_name, corpus_name=corpus_name)
        self._write_manifest(
            IndexManifest(
                base_index=manifest.base_index,
                delta_indexes=manifest.delta_indexes + (delta_name,),
                generation=manifest.generation,
                active_base=manifest.active_base,
                next_delta=manifest.next_delta + 1,
                retired=manifest.retired,
            )
        )
        return built

    # -- searching ------------------------------------------------------------------

    def open_searcher(
        self,
        max_concurrency: int = 32,
        hedging: "HedgingPolicy | None" = None,
    ) -> "AirphantSearcher":
        """Open a searcher spanning the base index and every delta."""
        # Imported lazily: repro.search depends on repro.index, so importing
        # the searcher at module load time would create an import cycle.
        from repro.search.searcher import AirphantSearcher

        manifest = self.manifest()
        return AirphantSearcher.open(
            self._store,
            manifest.all_indexes,
            tokenizer=self._tokenizer,
            max_concurrency=max_concurrency,
            hedging=hedging,
        )

    # -- compaction ------------------------------------------------------------------

    def indexed_documents(self, exclude: AbstractSet[Posting] = frozenset()) -> list[Document]:
        """Enumerate every document covered by the base and delta indexes."""
        return self._read_documents(self.manifest().all_indexes, exclude)

    def _read_documents(
        self, index_names: Sequence[str], exclude: AbstractSet[Posting] = frozenset()
    ) -> list[Document]:
        """Every document the builds ``index_names`` index, re-read from storage.

        The union of all superposts (plus the common-word lists) of an index
        is exactly its set of postings — of documents with at least one
        token — and each posting locates a document's bytes, fetched as one
        wave.  ``exclude`` (the pending tombstone set) drops condemned
        postings *before* their bytes are fetched — deleted documents cost no
        reads.  A sharded build's shard sub-indexes stand in for it; a build
        that is not there contributes nothing.
        """
        postings: set[Posting] = set()
        for index_name in index_names:
            try:
                (build,) = open_headers(self._store, [index_name]).builds
            except BlobNotFoundError:
                continue
            for _, compacted in build.members:
                # One read of the member's superpost blob, sliced by the
                # pointer columns: never a dependent range read per bin.
                blob = self._store.get(compacted.superpost_blob_name)
                for offset, length in compacted.mht.ranges():
                    if length:
                        postings.update(
                            decode_superpost(
                                blob[offset : offset + length],
                                compacted.string_table,
                                compacted.format_version,
                            )
                        )
        wanted = sorted(postings - set(exclude))
        fetch = self._store.read_batch([posting.to_range_read() for posting in wanted])
        return [
            Document(ref=posting, text=data.decode("utf-8", errors="replace"))
            for posting, data in zip(wanted, fetch.payloads)
        ]

    def _merged_stats(
        self,
        manifest: IndexManifest,
        shard_manifest: ShardManifest | None,
        exclude: AbstractSet[Posting],
    ) -> IndexStats:
        """The statistics of every member of ``manifest``, merged minus ``exclude``.

        One wave reads every member build's stats blob (a sharded base's, per
        shard).  A member without one — built before ranked retrieval —
        contributes :func:`build_stats` over its documents, re-read from
        storage, so old indexes still compact (and gain statistics).
        """
        members = [
            *(shard_manifest.shard_names if shard_manifest else [manifest.active_base]),
            *manifest.delta_indexes,
        ]
        fetch = self._store.read_batch(
            [RangeRead(stats_blob_name(member), optional=True) for member in members]
        )
        tokenizer = self._tokenizer if self._tokenizer is not None else WhitespaceAnalyzer()
        return union_stats(
            [
                decode_stats(payload, member)
                if payload is not None
                else build_stats(self._read_documents([member], exclude), tokenizer)
                for member, payload in zip(members, fetch.payloads)
            ],
            exclude,
        )

    def compact(
        self,
        corpus_name: str = "corpus",
        exclude: AbstractSet[Posting] = frozenset(),
    ) -> BuiltIndex | "BuiltShardedIndex":
        """Fold all deltas into a fresh generational base and swap atomically.

        The new base is built under the next generational prefix (keeping the
        old base's shard count and partitioner; a sharded base returns a
        :class:`~repro.index.builder.BuiltShardedIndex`), then committed with
        a single manifest write — the swap.  Readers that already hold the
        old manifest keep a complete, untouched snapshot: the blobs it
        references are only *marked* retired now and physically deleted at
        the **next** compaction, after every reasonable reader has reopened.

        The new base is built from the members' ranking statistics merged
        into one exact inverted index (:func:`~repro.index.stats.union_stats`)
        — no document is re-read and nothing re-analysed, so each document
        keeps the analysis it was built with.  ``exclude`` (the pending
        tombstone set) is how deletes become physical: condemned documents
        are left out of the merged statistics, hence of the new base, so
        after the swap no tombstone filtering is needed for them anywhere.
        Prefixes pinned by a snapshot are never purged; they stay on the
        retired list until the snapshot is deleted.
        """
        manifest = self.manifest()
        shard_manifest = read_shard_manifest(self._store, manifest.active_base)
        stats = self._merged_stats(manifest, shard_manifest, exclude)
        generation = manifest.generation + 1
        new_base = generation_index_name(self._base_index, generation)
        builder = AirphantBuilder(
            self._store,
            config=self._config,
            tokenizer=self._tokenizer,
            num_shards=shard_manifest.num_shards if shard_manifest is not None else 1,
            partitioner=shard_manifest.partitioner if shard_manifest is not None else "hash",
            format_version=self._format_version,
            layout=self._layout,
        )
        built = builder.build_from_stats(stats, index_name=new_base, corpus_name=corpus_name)
        # The whole old snapshot — including a legacy in-place base — gets
        # one generation of grace before deletion.
        stranded = tuple(manifest.all_indexes)
        # Grace expired for what the *previous* swap stranded — except what a
        # snapshot still pins, which stays on the retired list for later.
        pinned = self._snapshot_pins()
        carried = tuple(
            name for name in manifest.retired if name in pinned and name not in stranded
        )
        # The atomic swap: one blob PUT moves every reader to the new snapshot.
        self._write_manifest(
            IndexManifest(
                base_index=self._base_index,
                generation=generation,
                active_base=new_base,
                next_delta=manifest.next_delta,
                retired=stranded + carried,
            )
        )
        for name in manifest.retired:
            if name not in pinned:
                self._purge_index_blobs(name)
        return built

    def reset(self) -> None:
        """Delete every delta/generation artifact and reset the manifest.

        Used by full rebuilds over an existing name: the rebuild writes a
        fresh in-place base, so old deltas, generational bases, and the
        retired backlog are all garbage — readers are expected to reopen
        (the service invalidates its catalog after builds).  Prefixes pinned
        by a surviving snapshot are kept (on the retired list); the facade's
        rebuild path deletes the snapshots first, making the reset total.
        """
        manifest = self.manifest()
        pinned = self._snapshot_pins()
        kept: list[str] = []
        for name in dict.fromkeys(manifest.retired + tuple(manifest.all_indexes)):
            if name == self._base_index:
                continue
            if name in pinned:
                kept.append(name)
            else:
                self._purge_index_blobs(name)
        self._write_manifest(
            IndexManifest(
                base_index=self._base_index,
                generation=manifest.generation + 1,
                # Keep delta numbering monotonic: a reader holding the
                # pre-reset manifest must never see a retired delta prefix
                # reused for fresh content.
                next_delta=manifest.next_delta,
                retired=tuple(kept),
            )
        )

    # -- snapshots -----------------------------------------------------------------

    def _snapshot_pins(self) -> set[str]:
        """Every index prefix some snapshot still references (purge guard)."""
        pinned: set[str] = set()
        for info in self.list_snapshots():
            pinned.update(info.manifest.all_indexes)
        return pinned

    def create_snapshot(
        self, snapshot: str, tombstones: Sequence[Posting] = ()
    ) -> SnapshotInfo:
        """Freeze the current manifest under ``snapshot`` (point-in-time copy).

        The snapshot captures the manifest *and* the pending tombstone set,
        so a restore reproduces exactly what queries answered at creation
        time — deletes awaiting compaction included.  Re-creating an existing
        name overwrites it.  Raises ``ValueError`` on names the blob layout
        cannot hold.
        """
        if not _SNAPSHOT_NAME.match(snapshot):
            raise ValueError(
                f"invalid snapshot name {snapshot!r}; expected 1-64 characters "
                "from [A-Za-z0-9._-] starting with a letter or digit"
            )
        manifest = self.manifest()
        info = SnapshotInfo(
            snapshot=snapshot,
            base_index=self._base_index,
            created_at=time.time(),
            manifest=manifest,
            tombstones=tuple(sorted(set(tombstones))),
        )
        self._store.put(
            snapshot_blob_name(self._base_index, snapshot),
            json.dumps(info.to_dict()).encode("utf-8"),
        )
        return info

    def get_snapshot(self, snapshot: str) -> SnapshotInfo:
        """Read one snapshot record; raises ``KeyError`` if it does not exist."""
        try:
            data = self._store.get(snapshot_blob_name(self._base_index, snapshot))
        except BlobNotFoundError:
            raise KeyError(snapshot) from None
        return SnapshotInfo.from_dict(json.loads(data.decode("utf-8")))

    def list_snapshots(self) -> list[SnapshotInfo]:
        """Every snapshot of this index, sorted by name."""
        infos: list[SnapshotInfo] = []
        for blob in snapshot_blobs(self._store, self._base_index):
            try:
                infos.append(
                    SnapshotInfo.from_dict(json.loads(self._store.get(blob).decode("utf-8")))
                )
            except (ValueError, KeyError, TypeError):
                continue  # not a snapshot record; never block the listing
        return sorted(infos, key=lambda info: info.snapshot)

    def delete_snapshot(self, snapshot: str) -> None:
        """Drop one snapshot record; raises ``KeyError`` if it does not exist.

        The blobs it pinned become purgeable at the next compaction (they
        stay on the manifest's retired list until then).
        """
        blob = snapshot_blob_name(self._base_index, snapshot)
        if not self._store.exists(blob):
            raise KeyError(snapshot)
        self._store.delete(blob)

    def delete_all_snapshots(self) -> int:
        """Drop every snapshot (the full-rebuild path); returns how many."""
        blobs = snapshot_blobs(self._store, self._base_index)
        for blob in blobs:
            self._store.delete(blob)
        return len(blobs)

    def restore_snapshot(self, snapshot: str) -> SnapshotInfo:
        """Point the index back at ``snapshot``'s manifest (one atomic PUT).

        The current timeline's builds become retired (purged by a later
        compaction, unless another snapshot pins them); ``generation`` and
        ``next_delta`` keep counting from the *maximum* of both timelines so
        post-restore builds never reuse an abandoned prefix.  Raises
        ``KeyError`` for an unknown snapshot and
        :class:`SnapshotRestoreError` when the pinned blobs are gone.
        """
        info = self.get_snapshot(snapshot)
        target = info.manifest
        missing = [
            name for name in target.all_indexes if not build_exists(self._store, name)
        ]
        if missing:
            raise SnapshotRestoreError(self._base_index, snapshot, missing)
        current = self.manifest()
        referenced = set(target.all_indexes)
        stranded = tuple(
            name
            for name in dict.fromkeys((*current.all_indexes, *current.retired))
            if name not in referenced
        )
        self._write_manifest(
            IndexManifest(
                base_index=self._base_index,
                delta_indexes=target.delta_indexes,
                generation=max(current.generation, target.generation),
                active_base=target.active_base,
                next_delta=max(current.next_delta or 0, target.next_delta or 0),
                retired=stranded,
            )
        )
        return info

    def _purge_index_blobs(self, index_name: str) -> None:
        """Physically delete every blob one retired base/delta build owns."""
        for blob in build_blobs(self._store, index_name):
            self._store.delete(blob)
