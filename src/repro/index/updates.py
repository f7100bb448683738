"""Append-only index updates (the paper's "frequent corpus updates" future work).

Airphant's Builder produces immutable indexes, which suits read-oriented
corpora.  When new documents do arrive, rebuilding the whole index per batch
would be wasteful, so this module implements the standard append-only
pattern on top of the unchanged Builder and Searcher:

* :class:`AppendOnlyIndexManager` keeps a tiny JSON *manifest* blob next to
  the base index: the builds (base, deltas, retired) and the state of the
  index's write-ahead log — the index's one commit point, which every write
  commits through with one PUT;
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
index's builds by one swap (:meth:`_swap`), committed with one atomic
manifest write: a concurrent reader sees the complete old snapshot or the
complete new one.  What a swap strands stays one swap on the manifest's
``retired`` list, as grace for readers of the old manifest; after each
swap, whatever under the index neither the manifest, its retired list nor
a snapshot names is deleted, so a purge a crash cut short is finished by
the next.  Where each of these lives in the bucket is
:mod:`repro.index.store_layout`'s business alone.
"""

from __future__ import annotations

import json
import re
import threading
import time
from dataclasses import dataclass, field, fields, replace
from typing import TYPE_CHECKING, AbstractSet, Any, Callable, Mapping, Sequence

from repro.core.config import SketchConfig
from repro.index.builder import AirphantBuilder, BuiltIndex, BuiltShardedIndex
from repro.index.compaction import CompactedSketch
from repro.index.metadata import IndexMetadata
from repro.index.stats import IndexStats, build_stats, decode_stats, union_stats
from repro.index.store_layout import (
    CorruptIndexError,
    OpenedBuild,
    UnsupportedIndexFormatError,
    build_blobs,
    build_exists,
    build_of,
    delta_index_name,
    generation_index_name,
    ingest_manifest_blob,
    open_headers,
    segment_blob,
    snapshot_blob_name,
    snapshot_blobs,
    stats_blob_name,
    tombstone_blob,
    update_blob,
    update_manifest_blob_name,
    wal_record,
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


def parse_tombstones(data: bytes) -> list[Posting]:
    """The condemned references of a legacy delete record (``tomb-*.json``,
    format version 1), which no code writes any more."""
    payload = json.loads(data.decode("utf-8"))
    if payload.get("version") != 1:
        raise ValueError(f"unknown tombstone record version {payload.get('version')!r}")
    refs = payload["refs"]
    return [Posting(str(blob), int(offset), int(length)) for blob, offset, length in refs]


@dataclass(frozen=True)
class IndexManifest:
    """The one commit point of a logical index: its builds and its WAL's state.

    ``base_index`` is the *logical* name; ``active_base`` the prefix holding
    the current base — ``base_index`` until a swap moves it to a generation.
    ``next_delta`` numbers deltas monotonically, so no delta reuses a
    retired one's prefix; ``retired`` lists the builds the previous swap
    stranded, kept for one swap of grace.

    The rest is the WAL's state (:mod:`repro.ingest.wal`), by sequence
    number: the ``seg-``/``upd-`` blobs from ``floor`` up hold documents the
    builds point into (from ``retired_floor`` up, the retired builds'); the
    segments ``first_unflushed`` … ``reserved_end - 1`` that exist, and the
    listed ``updates``, hold the unflushed ones.  ``tombstones`` are the
    pending deletes themselves, the condemned references.

    ``legacy_wal``: the store holds this WAL state in a legacy form — an
    ``ingest.json`` beside the manifest, or delete records listed by number
    — which the next commit rewrites (and deletes that ``ingest.json``);
    ``legacy_records``: those delete records, while their references are
    not yet folded in (:meth:`folded`).
    """

    base_index: str
    delta_indexes: tuple[str, ...] = ()
    generation: int = 0
    active_base: str | None = None
    next_delta: int | None = None
    retired: tuple[str, ...] = ()
    floor: int = 0
    retired_floor: int | None = None
    first_unflushed: int = 0
    reserved_end: int | None = None
    updates: tuple[int, ...] = ()
    tombstones: frozenset[Posting] = frozenset()
    legacy_wal: bool = field(default=False, compare=False, repr=False)
    legacy_records: tuple[str, ...] = field(default=(), compare=False, repr=False)

    def __post_init__(self) -> None:
        derived = (self.base_index, len(self.delta_indexes), self.floor, self.first_unflushed)
        for name, default in zip(_DERIVED, derived):
            if getattr(self, name) is None:
                object.__setattr__(self, name, default)

    @property
    def all_indexes(self) -> list[str]:
        """Active base first, then deltas in creation order."""
        return [self.active_base, *self.delta_indexes]

    @property
    def in_place(self) -> bool:
        """Whether the builds are the in-place base alone (whatever the WAL)."""
        return replace(self, **_EMPTY_WAL) == IndexManifest(self.base_index)

    def builds(self) -> "IndexManifest":
        """The builds and the WAL floor they point above: what a snapshot freezes."""
        return replace(self, retired=(), **{**_EMPTY_WAL, "floor": self.floor})

    def wal_from(self, counter: int) -> "IndexManifest":
        """This manifest with an empty WAL that numbers on from ``counter``."""
        return replace(
            self, first_unflushed=counter, reserved_end=counter, updates=(), tombstones=frozenset()
        )

    @property
    def has_wal(self) -> bool:
        """Whether a reopening node has a segment range, update or delete to read."""
        return self.first_unflushed < self.reserved_end or bool(self.updates or self.tombstones)

    def segments(self) -> tuple[str, ...]:
        """Every blob that may hold unflushed documents: the range, then the listed."""
        probed = range(self.first_unflushed, self.reserved_end)
        return tuple(segment_blob(self.base_index, n) for n in probed) + tuple(
            update_blob(self.base_index, n) for n in self.updates
        )

    def folded(self, records: Mapping[str, bytes | None]) -> "IndexManifest":
        """This manifest with the references of its legacy delete records,
        whose payloads ``records`` holds, in ``tombstones``.  A listed record
        that is not there (``None``) is lost data:
        :class:`~repro.index.store_layout.CorruptIndexError`."""
        refs = set(self.tombstones)
        for blob in self.legacy_records:
            if records[blob] is None:
                raise CorruptIndexError(blob, "a delete record the manifest lists is missing")
            refs.update(parse_tombstones(records[blob]))
        return replace(self, tombstones=frozenset(refs), legacy_records=())

    def to_dict(self) -> dict[str, Any]:
        """The JSON payload: every field that does not hold its default (the
        name, too: the manifest's own prefix says it).  ``tombstones`` is
        grouped by blob, ``{blob: [offset, length, offset, length, …]}``."""
        derived = replace(self, **dict.fromkeys(_DERIVED))
        payload: dict[str, Any] = {}
        for spec in fields(self)[1:]:
            value = getattr(self, spec.name)
            default = getattr(derived, spec.name) if spec.default is None else spec.default
            if spec.compare and value != default:
                payload[spec.name] = list(value) if isinstance(value, tuple) else value
        if self.tombstones:
            grouped: dict[str, list[int]] = {}
            for ref in sorted(self.tombstones):
                grouped.setdefault(ref.blob, []).extend((ref.offset, ref.length))
            payload["tombstones"] = grouped
        return payload

    @classmethod
    def from_dict(cls, base_index: str, payload: dict[str, Any]) -> "IndexManifest":
        """Inverse of :meth:`to_dict`; a field that is absent holds its
        default.  A ``tombstones`` list numbers delete records (the legacy
        form): they become :attr:`legacy_records`."""
        names = {spec.name for spec in fields(cls) if spec.compare}
        values = {
            name: tuple(value) if isinstance(value, list) else value
            for name, value in payload.items()
            if name in names
        }
        tombstones = values.pop("tombstones", {})
        if isinstance(tombstones, tuple):
            records = tuple(tombstone_blob(base_index, n) for n in tombstones)
            values.update(legacy_records=records, legacy_wal=bool(records))
        else:
            values["tombstones"] = frozenset(
                Posting(blob, offset, length)
                for blob, flat in tombstones.items()
                for offset, length in zip(flat[::2], flat[1::2])
            )
        return cls(**{"base_index": base_index, **values})

    @classmethod
    def read(
        cls, base_index: str, data: bytes | None, legacy: bytes | None = None
    ) -> "IndexManifest":
        """The manifest from what :func:`manifest_reads` fetched (``None``:
        not there).  A legacy ``ingest.json`` beside a manifest without WAL
        state is that state (version 1's listed segments widen the probed
        range down to the first of them); beside one with WAL state it is
        garbage.  Either way the next commit deletes it.  Legacy delete
        records are named, not read: :meth:`folded` takes their payloads."""
        manifest = cls(base_index)
        if data is not None:
            manifest = cls.from_dict(base_index, json.loads(data.decode("utf-8")))
        if legacy is None or manifest.legacy_wal or replace(manifest, **_EMPTY_WAL) != manifest:
            return replace(manifest, legacy_wal=manifest.legacy_wal or legacy is not None)
        payload = json.loads(legacy.decode("utf-8"))
        version = payload.get("version")
        if version not in (1, 2):
            found = f"WAL manifest version {version!r}"
            raise UnsupportedIndexFormatError(manifest_reads(base_index)[1], found, "version 1 or 2")
        v1 = version == 1
        first = int(payload["next_segment" if v1 else "first_unflushed"])
        reserved = int(payload["next_segment" if v1 else "reserved_end"])
        listed = payload["active_segments" if v1 else "listed_segments"]
        records = [wal_record(base_index, blob) for blob in listed]
        return replace(
            manifest,
            first_unflushed=min([first, *(n for kind, n in records if kind == "seg")]),
            reserved_end=reserved,
            updates=tuple(n for kind, n in records if kind == "upd"),
            legacy_records=tuple(payload.get("tombstone_segments", ())),
            legacy_wal=True,
        )


#: The fields whose default (``None``) is what other fields say.
_DERIVED = ("active_base", "next_delta", "retired_floor", "reserved_end")
#: The WAL fields at their defaults.
_EMPTY_WAL: dict[str, Any] = dict(
    floor=0,
    retired_floor=None,
    first_unflushed=0,
    reserved_end=None,
    updates=(),
    tombstones=frozenset(),
)


def manifest_reads(base_index: str, legacy: bool = True) -> list[str]:
    """The blobs one read of ``base_index``'s manifest asks for, as one
    batch: the manifest, then — with ``legacy`` — the legacy WAL manifest
    :meth:`IndexManifest.read` folds in."""
    blobs = [update_manifest_blob_name(base_index)]
    if legacy:
        blobs.append(ingest_manifest_blob(base_index))
    return blobs


@dataclass(frozen=True)
class SnapshotInfo:
    """One named point-in-time snapshot of an index.

    A snapshot *is* a copy of the generational manifest (plus its pending
    deletes at creation time): the base build and delta prefixes it
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
            "manifest": self.manifest.builds().to_dict(),
            "tombstones": [[ref.blob, ref.offset, ref.length] for ref in self.tombstones],
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "SnapshotInfo":
        """Inverse of :meth:`to_dict`."""
        base_index = str(payload["base_index"])
        return cls(
            snapshot=str(payload["snapshot"]),
            base_index=base_index,
            created_at=float(payload.get("created_at", 0.0)),
            manifest=IndexManifest.from_dict(base_index, payload["manifest"]).builds(),
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

    The manager holds the live manifest in memory (read on first use, or
    :meth:`adopt`-ed from an opener's read): every change is one
    read-modify-write of it with one PUT (:meth:`commit`).  Each commit, and
    each build before it picks a name, first reads ``manifest.json`` again
    (:meth:`refresh`), so what another process committed meanwhile is
    adopted, never overwritten.  Two processes writing one index *at the
    same time* are not fenced.
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
        self._manifest: IndexManifest | None = None
        #: The lock of every manifest change in this process — and of the
        #: WAL writes that number from the manifest's reservation.
        self.lock = threading.RLock()
        #: The lock a flush, compaction, rebuild or restore holds throughout.
        self.maintenance_lock = threading.RLock()
        #: ``((active base, generation), its configuration)`` as last learnt,
        #: so that a long-lived manager reads a base's header at most once.
        self._followed: tuple[tuple[str, int], SketchConfig] | None = None

    # -- manifest ------------------------------------------------------------------

    def manifest(self) -> IndexManifest:
        """The live manifest (the empty one if none was written yet), read
        once as one batch of "missing is an answer" reads with the legacy
        WAL manifest it folds in (:func:`manifest_reads`) — and, when it
        lists legacy delete records, one more batch that folds them in."""
        if self._manifest is None:  # once read, no lock: a query never waits on a commit
            with self.lock:
                if self._manifest is None:
                    reads = manifest_reads(self._base_index)
                    fetch = self._store.read_batch([RangeRead(b, optional=True) for b in reads])
                    manifest = IndexManifest.read(self._base_index, *fetch.payloads)
                    records = manifest.legacy_records
                    if records:
                        reads = [RangeRead(blob, optional=True) for blob in records]
                        payloads = self._store.read_batch(reads).payloads
                        manifest = manifest.folded(dict(zip(records, payloads)))
                    self._manifest = manifest
        return self._manifest

    def refresh(self) -> IndexManifest:
        """The live manifest, checked against the store with one read of
        ``manifest.json`` (none on first use, which reads it anyway): when
        another process committed since this one last read or wrote it, the
        stored manifest becomes the live one.  While the WAL state is in a
        legacy form only the builds are compared, since the blob does not
        yet hold the state folded in from it.

        The read does not hold :attr:`lock` (:meth:`adopt`)."""
        held = self._manifest
        if held is None:
            return self.manifest()
        read = RangeRead(update_manifest_blob_name(self._base_index), optional=True)
        (data,) = self._store.read_batch([read]).payloads
        return self.adopt(IndexManifest.read(self._base_index, data), held)

    @property
    def held(self) -> IndexManifest | None:
        """The live manifest, or ``None`` before the first read (never reads)."""
        return self._manifest

    def adopt(self, stored: IndexManifest, held: IndexManifest | None) -> IndexManifest:
        """Make ``stored``, a read of the store begun while :attr:`held` was
        ``held``, the live manifest when it differs (by :meth:`refresh`'s
        rule); returns the live one.  When a commit of this process (or
        another adoption) landed since, the read may predate it and is
        dropped: that commit refreshed under :attr:`lock`.  A first
        manifest must come from a read of every blob :meth:`manifest` reads."""
        with self.lock:
            live = self._manifest
            if live is None:
                self._manifest = stored
            elif live is held:
                wal = _EMPTY_WAL if live.legacy_wal else {}
                if replace(stored, **wal) != replace(live, **wal):
                    self._manifest = replace(stored, legacy_wal=live.legacy_wal)
            return self._manifest

    def commit(self, change: Callable[[IndexManifest], IndexManifest]) -> IndexManifest:
        """Commit ``change`` of the live manifest with one PUT; returns what
        was committed.  ``change`` runs under :attr:`lock` on the manifest as
        it is then, just refreshed (:meth:`refresh`), so concurrent changes
        merge.  A legacy ``ingest.json`` is deleted after the first commit,
        which folded it in."""
        self.refresh()
        with self.lock:
            old = self.manifest()
            new = replace(change(old), legacy_wal=False)
            payload = json.dumps(new.to_dict(), separators=(",", ":")).encode()
            self._store.put(update_manifest_blob_name(self._base_index), payload)
            self._manifest = new
            if old.legacy_wal:
                self._store.delete(ingest_manifest_blob(self._base_index))
            return new

    # -- building ------------------------------------------------------------------

    def build_base(
        self,
        documents: Sequence[Document] | DocumentTable | IndexStats,
        corpus_name: str = "corpus",
        num_shards: int = 1,
        config: SketchConfig | None = None,
    ) -> BuiltIndex | BuiltShardedIndex:
        """Build (or rebuild) the base: the one code that decides where a
        base over this name lands.

        A fresh name (no update manifest, no build blobs) is built in place
        with no manifest: its header is the commit point.  Any other name is
        built in the next generation and swapped in (:meth:`_swap`) with an
        empty WAL numbering on from the old one's reservation, which is
        retired with the old builds.  Documents and tables are counted with
        the manager's tokenizer; ``config`` (else the manager's, else the
        default) is the new base's.
        """
        config = config or self._config or SketchConfig()
        builder = AirphantBuilder(
            self._store, config=config, tokenizer=self._tokenizer, num_shards=num_shards
        )
        stats = documents if isinstance(documents, IndexStats) else build_stats(
            documents, self._tokenizer or WhitespaceAnalyzer()
        )
        old = self.refresh()
        if old == IndexManifest(self._base_index) and not build_blobs(
            self._store, self._base_index
        ):
            built = builder.build_from_stats(
                stats, index_name=self._base_index, corpus_name=corpus_name
            )
            self._followed = ((self._base_index, old.generation), config)
            return built
        return self._build_generation(
            old,
            builder,
            stats,
            corpus_name,
            lambda wal: replace(wal.wal_from(wal.reserved_end), floor=wal.reserved_end),
        )

    def append(
        self,
        documents: Sequence[Document] | IndexStats,
        corpus_name: str = "delta",
        wal: Callable[[IndexManifest], IndexManifest] | None = None,
    ) -> BuiltIndex:
        """Index newly arrived documents as a fresh delta index.

        The live write path hands the statistics a flushing memtable already
        counted, and ``wal``, the change that moves the WAL past them: one
        PUT commits both.  Documents (examples, tests) are counted with the
        manager's tokenizer first (:func:`build_stats`).
        """
        stats = documents if isinstance(documents, IndexStats) else build_stats(
            documents, self._tokenizer or WhitespaceAnalyzer()
        )
        if not stats.num_documents:
            raise ValueError("append() needs at least one document")
        manifest = self.refresh()
        delta_name = delta_index_name(self._base_index, manifest.next_delta)
        builder = AirphantBuilder(
            self._store, config=self._config_of(manifest), tokenizer=self._tokenizer
        )
        built = builder.build_from_stats(stats, index_name=delta_name, corpus_name=corpus_name)

        def added(current: IndexManifest) -> IndexManifest:
            current = replace(
                current,
                delta_indexes=current.delta_indexes + (delta_name,),
                next_delta=manifest.next_delta + 1,
            )
            return wal(current) if wal else current

        self.commit(added)
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
        self, corpus_name: str = "corpus", exclude: AbstractSet[Posting] = frozenset()
    ) -> BuiltIndex | "BuiltShardedIndex":
        """Fold all deltas into a fresh generational base and swap atomically.

        The new base is built under the next generational prefix (keeping the
        old base's shard count and sketch parameters; a sharded base returns a
        :class:`~repro.index.builder.BuiltShardedIndex`) and committed with
        one manifest write, the swap (:meth:`_swap`), which retires what it
        replaced for one swap of grace.  It is built from the members'
        ranking statistics merged (:func:`~repro.index.stats.union_stats`):
        no document is re-read or re-analysed.  ``exclude`` (pending
        deletes) is how deletes become physical: condemned documents are
        left out of the new base, and the swap drops exactly them from the
        manifest's ``tombstones``; one committed during the build stays
        pending.
        """
        manifest = self.refresh()
        builds = open_headers(self._store, manifest.all_indexes).builds
        stats = self._merged_stats(builds, exclude)
        shard_manifest = builds[0].manifest
        builder = AirphantBuilder(
            self._store,
            config=self._config_of(manifest, builds[0].header),
            tokenizer=self._tokenizer,
            num_shards=shard_manifest.num_shards if shard_manifest is not None else 1,
        )
        return self._build_generation(
            manifest,
            builder,
            stats,
            corpus_name,
            lambda wal: replace(wal, tombstones=wal.tombstones - exclude),
        )

    def _build_generation(
        self,
        old: IndexManifest,
        builder: AirphantBuilder,
        stats: IndexStats,
        corpus_name: str,
        wal: Callable[[IndexManifest], IndexManifest],
    ) -> BuiltIndex | BuiltShardedIndex:
        """Build ``stats`` as the base of the generation after ``old``'s,
        under its own prefix, and swap it in (:meth:`_swap`) with the WAL
        state as ``wal`` changes it at the swap."""
        generation = old.generation + 1
        new_base = generation_index_name(self._base_index, generation)
        built = builder.build_from_stats(stats, index_name=new_base, corpus_name=corpus_name)
        self._swap(
            lambda current: wal(
                replace(current, delta_indexes=(), generation=generation, active_base=new_base)
            )
        )
        self._followed = ((new_base, generation), builder.config)
        return built

    def _swap(self, change: Callable[[IndexManifest], IndexManifest]) -> None:
        """Commit ``change`` of the live manifest as a swap: the one swap
        rule of a rebuild, a compaction and a restore.

        The builds the old manifest references and the new one does not are
        retired, and so is the old WAL when the new one starts above it
        (``retired_floor``): one swap of grace for readers of the old
        manifest (a build a snapshot pins stays retired).  After the PUT,
        the purge deletes every listed blob under the index that neither the
        new manifest, its retired list nor a snapshot names — what the
        previous swap retired, and what a purge a crash cut short left.

        The snapshots and the index are listed before the commit takes
        :attr:`lock`, so no write waits on the listings.  A blob made after
        them is not listed; a WAL record whose write was in flight during
        them is committed before the swap's commit (a write holds the lock
        across its PUT and its commit), so the new manifest names it.
        """
        pins = [info.manifest for info in self.list_snapshots()]
        listing = self._store.list_blobs(prefix=f"{self._base_index}/")

        def swapped(old: IndexManifest) -> IndexManifest:
            new = change(old)
            referenced = set(new.all_indexes)
            pinned = {name for pin in pins for name in pin.all_indexes} - referenced
            return replace(
                new,
                retired=tuple(name for name in old.all_indexes if name not in referenced)
                + tuple(name for name in old.retired if name in pinned),
                retired_floor=old.floor,
            )

        # The atomic swap: one blob PUT moves every reader to the new snapshot.
        new = self.commit(swapped)
        for blob in self._unnamed(new, pins, listing):
            self._store.delete(blob)

    def _unnamed(
        self, manifest: IndexManifest, pins: Sequence[IndexManifest], listing: Sequence[str]
    ) -> list[str]:
        """Every blob of ``listing`` that none of ``manifest``, its retired
        list and the snapshots ``pins`` names: a build by name, a segment or
        update by a number at or above the lowest floor.  A legacy delete
        record is never named (the manifest holds its references); manifests
        and snapshot records always are."""
        builds = {*manifest.all_indexes, *manifest.retired}
        builds.update(name for pin in pins for name in pin.all_indexes)
        floor = min([manifest.floor, manifest.retired_floor, *(pin.floor for pin in pins)])
        unnamed = []
        for blob in listing:
            build = build_of(self._base_index, blob)
            kind, number = wal_record(self._base_index, blob) or ("", 0)
            if build is not None:
                named = build in builds
            else:
                named = not kind or (kind != "tomb" and number >= floor)
            if not named:
                unnamed.append(blob)
        return unnamed

    # -- snapshots -----------------------------------------------------------------

    def create_snapshot(self, snapshot: str) -> SnapshotInfo:
        """Freeze the current manifest under ``snapshot`` (point-in-time copy).

        The snapshot captures the manifest *and* its pending deletes,
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
        manifest = self.refresh()
        info = SnapshotInfo(
            snapshot=snapshot,
            base_index=self._base_index,
            created_at=time.time(),
            manifest=manifest,
            tombstones=tuple(sorted(manifest.tombstones)),
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
        """Point the index back at ``snapshot`` with one swap (:meth:`_swap`).

        ``generation`` and ``next_delta`` keep counting from the *maximum* of
        both timelines, so later builds never reuse an abandoned prefix.  The
        WAL drops every unflushed write and keeps its floor, or the
        snapshot's when lower (the snapshot outlived a rebuild a crash cut
        short); its pending deletes are the snapshot's.
        Raises ``KeyError`` for an unknown snapshot and
        :class:`SnapshotRestoreError` when the pinned blobs are gone.
        """
        info = self.get_snapshot(snapshot)
        target = info.manifest
        missing = [
            name for name in target.all_indexes if not build_exists(self._store, name)
        ]
        if missing:
            raise SnapshotRestoreError(self._base_index, snapshot, missing)

        def restored(current: IndexManifest) -> IndexManifest:
            return replace(
                current.wal_from(current.reserved_end),
                tombstones=frozenset(info.tombstones),
                delta_indexes=target.delta_indexes,
                generation=max(current.generation, target.generation),
                active_base=target.active_base,
                next_delta=max(current.next_delta, target.next_delta),
                floor=min(current.floor, target.floor),
            )

        self._swap(restored)
        return info
