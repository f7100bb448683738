"""Catalog of named, lazily-opened indexes backed by one object store.

A query node serves whatever indexes exist in its bucket.  The catalog
discovers them by listing header and shard-manifest blobs, opens each on
first use (downloading only the headers, as the paper's Figure 3 query node
does), and keeps the opened searcher for reuse.  An index with an
append-only manifest (see :mod:`repro.index.updates`) is opened as an
:class:`~repro.search.searcher.AirphantSearcher` over the base plus all
deltas; a plain index is the degenerate single-member case of the same type,
so callers always get one uniform searcher interface.  Sharded indexes
(one header splitting one sketch among ``shard-NNNN/`` shards) are handled
by the index members themselves; their shards — like delta indexes — are
not directly addressable catalog entries.  A stored blob that does not
decode surfaces as :class:`~repro.index.store_layout.CorruptIndexError`
from the open, one in a retired layout (a ``shards.json`` manifest, a
header container per shard) as
:class:`~repro.index.store_layout.UnsupportedIndexFormatError`.

The catalog owns each name's one manager (:meth:`IndexCatalog.manager`),
through which every write of the name in this process commits; its
manifest is the only copy of the name's manifest in memory.  Nothing tells
the catalog of a commit: each open compares its searcher's builds with it.
"""

from __future__ import annotations

from threading import RLock
from typing import TYPE_CHECKING

from repro.index.store_layout import (
    OpenedBuild,
    OpenedIndex,
    discovery_blobs,
    index_name_of,
    is_index_name,
    open_headers,
    open_index,
)
from repro.index.updates import AppendOnlyIndexManager, IndexManifest
from repro.search.searcher import AirphantSearcher
from repro.service.api import IndexInfo
from repro.service.config import ServiceConfig
from repro.storage.base import BlobNotFoundError, ObjectStore

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.ingest.live import IngestCoordinator


class IndexCatalog:
    """Named indexes on one object store, opened lazily and cached."""

    def __init__(self, store: ObjectStore, config: ServiceConfig | None = None) -> None:
        self._store = store
        self._config = config if config is not None else ServiceConfig()
        self._searchers: dict[str, AirphantSearcher] = {}
        self._managers: dict[str, AppendOnlyIndexManager] = {}
        #: Names an invalidate dropped: their next open reads the store's
        #: manifest, not the one their manager holds.
        self._doubted: set[str] = set()
        self._lock = RLock()

    @property
    def store(self) -> ObjectStore:
        """The object store holding every cataloged index."""
        return self._store

    @property
    def config(self) -> ServiceConfig:
        """Query-side configuration applied to every opened index."""
        return self._config

    # -- discovery -----------------------------------------------------------------

    def names(self) -> list[str]:
        """Names of all indexes in the store.

        Deltas fold into their base; shard sub-indexes fold into the sharded
        index whose header names them; generational base builds
        (``gen-NNNNNNNN/``, written by compaction) fold into the logical
        index their append-only manifest names — an index whose base has
        moved fully generational is discovered through that manifest alone.
        """
        names = {index_name_of(blob) for blob in self._store.list_blobs()}
        return sorted(name for name in names if name is not None)

    def contains(self, name: str) -> bool:
        """Whether ``name`` is a servable index."""
        return is_index_name(name) and any(
            self._store.exists(blob) for blob in discovery_blobs(name)
        )

    def is_open(self, name: str) -> bool:
        """Whether ``name`` has already been opened (header in memory)."""
        return name in self._searchers

    def open_count(self) -> int:
        """How many indexes currently hold an opened searcher."""
        with self._lock:
            return len(self._searchers)

    def open_searchers(self) -> list[AirphantSearcher]:
        """Every currently opened searcher (for cache/occupancy accounting); one
        whose builds its manager no longer names is closed, releasing its cache."""
        with self._lock:
            opened = list(self._searchers.items())
        for name, searcher in opened:
            if not self._serves(name, searcher):
                searcher.close()
        return [searcher for _, searcher in opened]

    # -- opening --------------------------------------------------------------------

    def manager(self, name: str) -> AppendOnlyIndexManager:
        """The one manager every write of ``name`` in this process commits
        through, made on first use; its manifest is the one the catalog
        opens from."""
        manager = self._managers.get(name)
        if manager is None:  # setdefault: of two racing first uses, one wins
            tokenizer = self._config.make_tokenizer()
            made = AppendOnlyIndexManager(self._store, name, tokenizer=tokenizer)
            manager = self._managers.setdefault(name, made)
        return manager

    def _held(self, name: str) -> IndexManifest | None:
        """The manifest ``name``'s manager holds (``None``: none yet)."""
        manager = self._managers.get(name)
        return manager.held if manager is not None else None

    def _serves(self, name: str, searcher: AirphantSearcher) -> bool:
        """Whether ``searcher`` holds the builds ``name``'s manager names.
        Build names are never reused, so equal names are equal bytes."""
        held = self._held(name)
        return held is None or held.all_indexes == searcher.index_names

    def _open_index(self, name: str, probe_ingest: bool, base_only: bool = False) -> OpenedIndex:
        """One :func:`~repro.index.store_layout.open_index` of ``name``
        (``KeyError`` when it is no index, or its base build is gone); the
        manager adopts its manifest, as its first only from a probing read."""
        if not is_index_name(name):
            raise KeyError(name)
        held = self._held(name)
        try:
            found = open_index(
                self._store,
                name,
                self._config.max_concurrency,
                known=held is not None and not held.in_place,
                probe_ingest=probe_ingest,
                base_only=base_only,
            )
        except BlobNotFoundError:
            raise KeyError(name) from None
        if held is not None or probe_ingest:
            self.manager(name).adopt(found.manifest, held)
            self._doubted.discard(name)
        return found

    def open(self, name: str, ingest: "IngestCoordinator | None" = None) -> AirphantSearcher:
        """Return the searcher for ``name``, opening it on first use.

        A cached searcher is returned while it holds the builds ``name``'s
        manager names, without taking the catalog lock: the lock is held
        across header downloads, and one slow open must not stall queries
        to every index that is already in memory.  Otherwise the index is
        opened from the manager's manifest — no manifest read, only the
        headers the cached searcher lacks — or, after an :meth:`invalidate`
        and on the manager's first use, from the store.  The open that gives
        the manager its first manifest hands ``ingest`` the WAL blobs that
        rode its waves, so recovery reads nothing of its own.

        Raises ``KeyError`` if no such index exists in the store.
        """
        searcher = self._searchers.get(name)
        if searcher is not None and self._serves(name, searcher):
            return searcher
        with self._lock:
            searcher = self._searchers.get(name)
            if searcher is not None and self._serves(name, searcher):
                return searcher
            held = self._held(name)
            probe = held is None and ingest is not None
            if held is not None and name not in self._doubted:
                found = self._reopen(held, searcher)
            else:
                found = self._open_index(name, probe_ingest=probe)
            opened = AirphantSearcher.open(
                self._store,
                found.manifest.all_indexes,
                tokenizer=self._config.make_tokenizer(),
                max_concurrency=self._config.max_concurrency,
                read_cache_bytes=self._config.read_cache_bytes,
                opened=found,
            )
            self._searchers[name] = opened
        if searcher is not None:
            searcher.close()
        if probe:
            # Outside the lock: parsing the replayed segments must not stall
            # the opening of other indexes.
            ingest.live(name, opened=found)
        return opened

    def _reopen(self, manifest: IndexManifest, searcher: AirphantSearcher | None) -> OpenedIndex:
        """``manifest``'s index, with the headers ``searcher`` decoded: one
        wave for the headers it lacks, no manifest read — unless one is gone
        (another process's swaps purged it): then from the store's manifest."""
        have = {
            member.name: OpenedBuild(member.name, member.header, member.max_concurrency)
            for member in (searcher.opened if searcher is not None else ())
        }
        lacking = [name for name in manifest.all_indexes if name not in have]
        try:
            opened = open_headers(self._store, lacking, self._config.max_concurrency)
        except BlobNotFoundError:
            return self._open_index(manifest.base_index, probe_ingest=False)
        have.update((build.name, build) for build in opened.builds)
        builds = [have[name] for name in manifest.all_indexes]
        return OpenedIndex(manifest, {}, builds, opened.elapsed_ms)

    def invalidate(self, name: str | None = None) -> None:
        """Drop cached searcher(s) so the next use re-reads the manifest and
        headers from the store.

        Call after rebuilding an index elsewhere (or finding a build gone);
        with ``None`` the whole cache is cleared.  Dropped searchers are
        closed, releasing their block caches.
        """
        with self._lock:
            if name is None:
                dropped = list(self._searchers.values())
                self._searchers.clear()
                self._doubted.update(self._managers)
            else:
                searcher = self._searchers.pop(name, None)
                dropped = [searcher] if searcher is not None else []
                self._doubted.add(name)
        for searcher in dropped:
            searcher.close()

    def close(self) -> None:
        """Close every opened searcher (the catalog stays usable afterwards)."""
        self.invalidate(None)

    # -- inspection -----------------------------------------------------------------

    def info(self, name: str) -> IndexInfo:
        """Describe ``name`` without forcing it open.

        For an unopened index the metadata is decoded from its header blob(s)
        directly; an opened index answers from memory, once reopened to the
        builds its manager names (:meth:`open`).  Sharded indexes
        report their shard count and per-shard stats (taken from the shard
        manifest) alongside the aggregated corpus-wide metadata.

        Raises ``KeyError`` if no such index exists.
        """
        if name in self._searchers:
            searcher = self.open(name)
            base = searcher.opened[0]
            metadata = base.metadata
            delta_names = tuple(searcher.index_names[1:])
            shard_manifest = base.shard_manifest
        else:
            # Resolved through the update manifest: after a compaction the
            # live base sits under a generational prefix (and retired
            # in-place blobs may linger for one generation of reader grace —
            # reading those would report stale metadata).
            found = self._open_index(name, probe_ingest=False, base_only=True)
            (base,) = found.builds
            shard_manifest = base.manifest
            metadata = base.header.metadata_of()
            delta_names = found.manifest.delta_indexes
        assert metadata is not None
        return IndexInfo(
            name=name,
            num_documents=metadata.num_documents,
            num_terms=metadata.num_terms,
            num_layers=metadata.num_layers,
            num_common_words=metadata.num_common_words,
            expected_false_positives=metadata.expected_false_positives,
            delta_indexes=delta_names,
            storage_bytes=self._store.total_bytes(prefix=f"{name}/"),
            is_open=self.is_open(name),
            num_shards=shard_manifest.num_shards if shard_manifest is not None else 1,
            # ShardInfo aliases the manifest's ShardEntry, so the per-shard
            # stats pass through unchanged.
            shards=shard_manifest.shards if shard_manifest is not None else (),
        )

    def list_infos(self) -> list[IndexInfo]:
        """Describe every cataloged index, sorted by name."""
        return [self.info(name) for name in self.names()]
