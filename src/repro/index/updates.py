"""Append-only index updates (the paper's "frequent corpus updates" future work).

Airphant's Builder produces immutable indexes, which suits read-oriented
corpora.  When new documents do arrive, rebuilding the whole index per batch
would be wasteful, so this module implements the standard append-only
pattern on top of the unchanged Builder and Searcher:

* :class:`AppendOnlyIndexManager` keeps a tiny JSON *manifest* blob next to
  the base index listing the delta indexes created so far;
* :meth:`AppendOnlyIndexManager.build_base` builds (or rebuilds) the base,
  the one code that decides where a base over a name lands;
* :meth:`AppendOnlyIndexManager.append` builds a new delta index over just
  the new documents (same Builder, and the base's sketch parameters);
* :meth:`AppendOnlyIndexManager.open_searcher` returns a
  :class:`~repro.search.searcher.AirphantSearcher` over the base plus all
  deltas;
* :meth:`AppendOnlyIndexManager.compact` folds every delta back into a single
  base index by *merging* the members' ranking statistics — each build's
  exact inverted index — minus the pending deletes, and handing the merged
  columns to the Builder; it reads no document and analyses no text, so the
  new base is a fresh rebuild over the survivors by construction.

Compaction, a rebuild over an existing name and a restore each replace the
index's builds by one swap, with one rule (:meth:`_swap`): the first two
build the new base under a fresh generational prefix, a restore points back
at a snapshot's builds, and each commits with one atomic manifest write, so
a concurrent reader either sees the complete old snapshot or the complete
new one — never a half-built mix.  The builds a swap strands are recorded
in the manifest's ``retired`` list and physically deleted one swap *later*,
giving readers that opened the old manifest a full swap of grace before
their blobs disappear.  Where each of these lives in the bucket, and which blobs one
build owns, is :mod:`repro.index.store_layout`'s business alone.
"""

from __future__ import annotations

import dataclasses
import json
import re
import time
from dataclasses import dataclass
from typing import TYPE_CHECKING, AbstractSet, Sequence

from repro.core.config import SketchConfig
from repro.index.builder import AirphantBuilder, BuiltIndex, BuiltShardedIndex
from repro.index.compaction import CompactedSketch
from repro.index.metadata import IndexMetadata
from repro.index.stats import IndexStats, build_stats, decode_stats, union_stats
from repro.index.store_layout import (
    OpenedBuild,
    build_blobs,
    build_exists,
    delta_index_name,
    generation_index_name,
    open_headers,
    snapshot_blob_name,
    snapshot_blobs,
    stats_blob_name,
    update_manifest_blob_name,
)
from repro.parsing.documents import Document, DocumentTable, Posting
from repro.parsing.tokenizer import Tokenizer, WhitespaceAnalyzer
from repro.storage.base import BlobNotFoundError, ObjectStore, RangeRead

if TYPE_CHECKING:  # pragma: no cover - avoids a runtime import cycle
    from repro.search.searcher import AirphantSearcher


#: Snapshot record format version.
SNAPSHOT_FORMAT_V1 = 1

#: Names a snapshot may carry: filesystem-safe, no separators.
_SNAPSHOT_NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9._-]{0,63}$")


class SnapshotRestoreError(Exception):
    """The snapshot exists but its referenced blobs no longer do.

    Raised when a restore finds a member build missing: its blobs were
    purged outside the manager's pin protection.  Typed so the service
    layer can answer 409 instead of restoring a broken timeline.
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
    purged at the *next* swap.
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


def base_config(metadata: IndexMetadata | None) -> SketchConfig:
    """The sketch parameters a build's header records — bin budget B,
    accuracy target F₀ and seed — as the configuration its deltas and
    compactions are built under (the defaults, for a header without
    metadata).  A pinned layer count is not recorded, so Algorithm 1 chooses
    L again under the recorded B and F₀."""
    if metadata is None:
        return SketchConfig()
    return SketchConfig(
        num_bins=metadata.num_bins,
        target_false_positives=metadata.target_false_positives,
        seed=metadata.seed,
    )


class AppendOnlyIndexManager:
    """Manages a base IoU Sketch index plus append-only delta indexes.

    ``config`` is the sketch configuration of every build the manager makes.
    Without one, a rebuilt base takes the default :class:`SketchConfig`, and
    every delta and compaction the active base's own parameters
    (:func:`base_config`): an index keeps the bin budget, accuracy target and
    seed it was built with.
    """

    def __init__(
        self,
        store: ObjectStore,
        base_index: str,
        config: SketchConfig | None = None,
        tokenizer: Tokenizer | None = None,
    ) -> None:
        self._store = store
        self._base_index = base_index
        self._config = config
        self._tokenizer = tokenizer
        #: ``((active base, generation), its configuration)`` as last learnt,
        #: so that a long-lived manager reads a base's header at most once.
        self._followed: tuple[tuple[str, int], SketchConfig] | None = None

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

    def build_base(
        self,
        documents: Sequence[Document] | DocumentTable | IndexStats,
        corpus_name: str = "corpus",
        num_shards: int = 1,
    ) -> BuiltIndex | BuiltShardedIndex:
        """Build (or rebuild) the base: the one code that decides where a
        base over this name lands.

        A fresh name (no update manifest, no build blobs) is built in place
        with no manifest: its header is the commit point, and a cold open
        stays one wave.  Any other name is built in the next generation and
        swapped in (:meth:`_swap`), as a compaction is.  Documents and
        tables are counted with the manager's tokenizer.
        """
        config = self._config if self._config is not None else SketchConfig()
        builder = AirphantBuilder(
            self._store, config=config, tokenizer=self._tokenizer, num_shards=num_shards
        )
        stats = documents if isinstance(documents, IndexStats) else build_stats(
            documents, self._tokenizer or WhitespaceAnalyzer()
        )
        old = self.manifest()
        if old == IndexManifest(self._base_index) and not build_blobs(
            self._store, self._base_index
        ):
            built = builder.build_from_stats(
                stats, index_name=self._base_index, corpus_name=corpus_name
            )
            self._followed = ((self._base_index, old.generation), config)
            return built
        return self._build_generation(old, builder, stats, corpus_name)

    def append(
        self, documents: Sequence[Document] | IndexStats, corpus_name: str = "delta"
    ) -> BuiltIndex:
        """Index newly arrived documents as a fresh delta index.

        The live write path hands the statistics a flushing memtable already
        counted.  Documents are a convenience for callers holding them
        (examples, tests): :func:`build_stats` counts them with the manager's
        tokenizer first, so both forms take the one ``build_from_stats`` path.
        """
        stats = documents if isinstance(documents, IndexStats) else build_stats(
            documents, self._tokenizer or WhitespaceAnalyzer()
        )
        if not stats.num_documents:
            raise ValueError("append() needs at least one document")
        manifest = self.manifest()
        delta_name = delta_index_name(self._base_index, manifest.next_delta)
        builder = AirphantBuilder(
            self._store, config=self._config_of(manifest), tokenizer=self._tokenizer
        )
        built = builder.build_from_stats(stats, index_name=delta_name, corpus_name=corpus_name)
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

    def _config_of(
        self, manifest: IndexManifest, base: CompactedSketch | None = None
    ) -> SketchConfig:
        """The configuration of a build on top of ``manifest``'s active base:
        the manager's own, or else the base's (:func:`base_config`) — from
        its decoded header ``base`` when the caller holds it, else from the
        last one learnt, else from one read of that header."""
        if self._config is not None:
            return self._config
        key = (str(manifest.active_base), manifest.generation)
        if self._followed is None or self._followed[0] != key:
            if base is None:
                (build,) = open_headers(self._store, [key[0]]).builds
                base = build.header
            self._followed = (key, base_config(base.metadata_of()))
        return self._followed[1]

    # -- searching ------------------------------------------------------------------

    def open_searcher(self, max_concurrency: int = 32) -> "AirphantSearcher":
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
        )

    # -- compaction ------------------------------------------------------------------

    def _merged_stats(
        self, builds: Sequence[OpenedBuild], exclude: AbstractSet[Posting]
    ) -> IndexStats:
        """The statistics of every opened build, merged minus ``exclude``.

        One wave reads every build's stats blob.  A blob that is missing or
        in a retired format is
        :class:`~repro.index.store_layout.UnsupportedIndexFormatError` naming
        it, raised before anything is written: that build must be rebuilt.
        """
        fetch = self._store.read_batch(
            [RangeRead(stats_blob_name(build.name), optional=True) for build in builds]
        )
        return union_stats(
            [decode_stats(payload, build.name) for build, payload in zip(builds, fetch.payloads)],
            exclude,
        )

    def compact(
        self,
        corpus_name: str = "corpus",
        exclude: AbstractSet[Posting] = frozenset(),
    ) -> BuiltIndex | "BuiltShardedIndex":
        """Fold all deltas into a fresh generational base and swap atomically.

        The new base is built under the next generational prefix (keeping the
        old base's shard count and sketch parameters; a sharded base returns a
        :class:`~repro.index.builder.BuiltShardedIndex`), then committed with
        a single manifest write — the swap (:meth:`_swap`).  Readers that
        already hold the old manifest keep a complete, untouched snapshot:
        the blobs it references are only *marked* retired now and physically
        deleted at the **next** swap, after every reasonable reader has
        reopened.

        The new base is built from the members' ranking statistics merged
        into one exact inverted index (:func:`~repro.index.stats.union_stats`)
        — no document is re-read and nothing re-analysed, so each document
        keeps the analysis it was built with.  ``exclude`` (the pending
        tombstone set) is how deletes become physical: condemned documents
        are left out of the merged statistics, hence of the new base, so
        after the swap no tombstone filtering is needed for them anywhere.
        """
        manifest = self.manifest()
        builds = open_headers(self._store, manifest.all_indexes).builds
        stats = self._merged_stats(builds, exclude)
        shard_manifest = builds[0].manifest
        builder = AirphantBuilder(
            self._store,
            config=self._config_of(manifest, builds[0].header),
            tokenizer=self._tokenizer,
            num_shards=shard_manifest.num_shards if shard_manifest is not None else 1,
        )
        return self._build_generation(manifest, builder, stats, corpus_name)

    def _build_generation(
        self, old: IndexManifest, builder: AirphantBuilder, stats: IndexStats, corpus_name: str
    ) -> BuiltIndex | BuiltShardedIndex:
        """Build ``stats`` as the base of the generation after ``old``'s,
        under its own prefix, and swap it in (:meth:`_swap`)."""
        generation = old.generation + 1
        new_base = generation_index_name(self._base_index, generation)
        built = builder.build_from_stats(stats, index_name=new_base, corpus_name=corpus_name)
        self._swap(
            old,
            IndexManifest(
                base_index=self._base_index,
                generation=generation,
                active_base=new_base,
                next_delta=old.next_delta,
            ),
        )
        self._followed = ((new_base, generation), builder.config)
        return built

    def _swap(self, old: IndexManifest, new: IndexManifest) -> None:
        """Commit ``new`` in place of ``old``: the one swap rule of a rebuild,
        a compaction and a restore.

        The builds ``old`` references and ``new`` does not are retired: a
        reader holding ``old`` keeps a complete snapshot for one swap of
        grace.  What ``old`` retired has had its grace and is purged after
        the PUT — unless ``new`` references it again, or a snapshot pins it
        (it then stays on the retired list until the snapshot is deleted).
        """
        referenced = set(new.all_indexes)
        stranded = [name for name in old.all_indexes if name not in referenced]
        expired = [name for name in old.retired if name not in referenced]
        pinned = self._snapshot_pins() if expired else set()
        carried = [name for name in expired if name in pinned]
        # The atomic swap: one blob PUT moves every reader to the new snapshot.
        self._write_manifest(dataclasses.replace(new, retired=tuple(stranded + carried)))
        for name in expired:
            if name not in pinned:
                for blob in build_blobs(self._store, name):
                    self._store.delete(blob)

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

        The blobs it pinned become purgeable at the next swap (they stay on
        the manifest's retired list until then).
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

        The swap (:meth:`_swap`) retires the current timeline's builds and
        purges what the previous swap stranded; ``generation`` and
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
        self._swap(
            current,
            IndexManifest(
                base_index=self._base_index,
                delta_indexes=target.delta_indexes,
                generation=max(current.generation, target.generation),
                active_base=target.active_base,
                next_delta=max(current.next_delta or 0, target.next_delta or 0),
            ),
        )
        return info
