"""Catalog of named, lazily-opened indexes backed by one object store.

A query node serves whatever indexes exist in its bucket.  The catalog
discovers them by listing header and shard-manifest blobs, opens each on
first use (downloading only the headers, as the paper's Figure 3 query node
does), and keeps the opened searcher for reuse.  An index with an
append-only manifest (see :mod:`repro.index.updates`) is opened as an
:class:`~repro.search.searcher.AirphantSearcher` over the base plus all
deltas; a plain index is the degenerate single-member case of the same type,
so callers always get one uniform searcher interface.  Sharded indexes
(a ``shards.json`` manifest plus ``shard-NNNN/`` sub-indexes) are handled by
the index members themselves; their shard sub-indexes — like delta
indexes — are not directly addressable catalog entries.
"""

from __future__ import annotations

from threading import RLock
from typing import TYPE_CHECKING

from repro.index.metadata import index_metadata
from repro.index.store_layout import (
    OpenedIndex,
    discovery_blobs,
    index_name_of,
    is_index_name,
    open_index,
)
from repro.index.updates import IndexManifest
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
        #: Names an update manifest has been seen for: from then on it alone
        #: says where the base lives (survives invalidation — a reopen must
        #: not re-read an in-place header that may be a retired leftover).
        #: Only ever added to / discarded from, so ``info`` needs no lock.
        self._manifested: set[str] = set()
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
        index their ``shards.json`` manifest names; generational base builds
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
        """Every currently opened searcher (for cache/occupancy accounting)."""
        with self._lock:
            return list(self._searchers.values())

    # -- opening --------------------------------------------------------------------

    def _open_index(self, name: str, probe_ingest: bool, base_only: bool = False) -> OpenedIndex:
        """One :func:`~repro.index.store_layout.open_index` of ``name``
        (``KeyError`` when it is no index, or its base build is gone)."""
        if not is_index_name(name):
            raise KeyError(name)
        try:
            found = open_index(
                self._store,
                name,
                self._config.max_concurrency,
                known=name in self._manifested,
                probe_ingest=probe_ingest,
                base_only=base_only,
            )
        except BlobNotFoundError:
            raise KeyError(name) from None
        if found.manifest == IndexManifest(base_index=name):
            self._manifested.discard(name)  # nothing was written: the build is in place
        else:
            self._manifested.add(name)
        return found

    def open(self, name: str, ingest: "IngestCoordinator | None" = None) -> AirphantSearcher:
        """Return the searcher for ``name``, opening it on first use.

        An already-open index is returned without taking the catalog lock:
        the lock is held across header downloads, and one slow open must not
        stall queries to every index that is already in memory.

        A cold open hands ``ingest`` — when it has not looked for ``name``'s
        leftover WAL state yet — the ingest manifest and the WAL blobs that
        rode the open's waves, so recovery reads nothing of its own.

        Raises ``KeyError`` if no such index exists in the store.
        """
        searcher = self._searchers.get(name)
        if searcher is not None:
            return searcher
        with self._lock:
            searcher = self._searchers.get(name)
            if searcher is not None:
                return searcher
            probe = ingest is not None and not ingest.probed(name)
            found = self._open_index(name, probe_ingest=probe)
            searcher = AirphantSearcher.open(
                self._store,
                found.manifest.all_indexes,
                tokenizer=self._config.make_tokenizer(),
                max_concurrency=self._config.max_concurrency,
                top_k_delta=self._config.top_k_delta,
                read_cache_bytes=self._config.read_cache_bytes,
                opened=found,
            )
            self._searchers[name] = searcher
        if probe:
            # Outside the lock: parsing the replayed segments must not stall
            # the opening of other indexes.
            ingest.live(name, opened=found)
        return searcher

    def invalidate(self, name: str | None = None) -> None:
        """Drop cached searcher(s) so the next use re-reads headers.

        Call after rebuilding an index (or appending a delta); with ``None``
        the whole cache is cleared.  Dropped searchers are closed, releasing
        their block caches.
        """
        with self._lock:
            if name is None:
                dropped = list(self._searchers.values())
                self._searchers.clear()
            else:
                searcher = self._searchers.pop(name, None)
                dropped = [searcher] if searcher is not None else []
        for searcher in dropped:
            searcher.close()

    def manifest_written(self, name: str) -> None:
        """This node just committed ``name``'s update manifest (a flush, a
        compaction): invalidate it, and reopen through that manifest alone."""
        self._manifested.add(name)
        self.invalidate(name)

    def close(self) -> None:
        """Close every opened searcher (the catalog stays usable afterwards)."""
        self.invalidate(None)

    # -- inspection -----------------------------------------------------------------

    def info(self, name: str) -> IndexInfo:
        """Describe ``name`` without forcing it open.

        For an unopened index the metadata is decoded from its header blob(s)
        directly; an opened index answers from memory.  Sharded indexes
        report their shard count and per-shard stats (taken from the shard
        manifest) alongside the aggregated corpus-wide metadata.

        Raises ``KeyError`` if no such index exists.
        """
        searcher = self._searchers.get(name)
        if searcher is not None:
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
            metadata = index_metadata(
                shard_manifest, [header.metadata for _, header in base.members]
            )
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
