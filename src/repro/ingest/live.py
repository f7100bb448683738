"""The live write path: one index's ingester, the combined view, the worker.

Lifecycle of an appended document (read-your-writes at every step):

1. ``append`` — the batch becomes a durable WAL segment, then lands in the
   *active* memtable.  Queries see it immediately through the combined view.
2. ``flush`` — the active memtable is atomically *sealed* (a fresh active
   one takes over for concurrent appends), its documents are built into an
   Airphant delta index with ``AppendOnlyIndexManager.append``, the catalog
   is invalidated so the next open includes the delta, and only then are the
   sealed memtable dropped and its WAL segments retired.  At no instant is a
   document invisible; at worst it is briefly visible twice, which the
   query executor's de-duplication by ``(blob, offset, length)`` absorbs.
3. ``compact`` — deltas fold into a fresh generational base via the
   manager's atomic manifest swap (see :mod:`repro.index.updates`).

The combined memtable ∪ deltas ∪ base view is not an object: per query, the
service facade resolves the catalog's (cached) persisted members plus
:meth:`LiveIndex.memtable_members` and hands them, with the pending
tombstones, to one :class:`~repro.search.searcher.AirphantSearcher` — so
catalog invalidations (new delta, new generation) and memtable swaps are
picked up without any notification plumbing.

:class:`IngestCoordinator` owns every live index of a service plus one
background worker thread that applies the flush/compaction policies from
:class:`~repro.service.config.ServiceConfig`; ``close()`` stops the worker
and waits for an in-flight flush or compaction to drain.
"""

from __future__ import annotations

import threading
import time
from typing import TYPE_CHECKING, Any, Callable, Mapping, Sequence

from repro.index.store_layout import OpenedIndex, build_bytes
from repro.index.updates import AppendOnlyIndexManager, IndexManifest
from repro.ingest.memtable import Memtable, MemtableMember
from repro.ingest.wal import WriteAheadLog, ingest_manifest_blob
from repro.observability import MetricsRegistry
from repro.parsing.documents import Posting
from repro.storage.base import ObjectStore, RangeRead

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.service.config import ServiceConfig

#: Histogram buckets for flush/compaction durations (seconds): builds run
#: longer than the default request-latency ladder.
_MAINTENANCE_BUCKETS = (0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 30.0, 60.0)


class IngestOverloadedError(RuntimeError):
    """The memtable has outrun the flusher (typed, maps to HTTP 429).

    Raised by the write path when the configured memtable occupancy limits
    (``ingest_max_memtable_docs`` / ``ingest_max_memtable_bytes``) are still
    exceeded after the bounded wait (``ingest_overload_wait_s``).  The write
    was **not** accepted — nothing was made durable — so the caller can
    safely retry once the flusher catches up.
    """

    def __init__(self, index_name: str, documents: int, nbytes: int) -> None:
        super().__init__(
            f"index {index_name!r} is overloaded: {documents} unflushed documents "
            f"({nbytes} bytes) exceed the configured memtable limits; retry after "
            "the flusher catches up"
        )
        self.index_name = index_name
        self.documents = documents
        self.nbytes = nbytes


class LiveIndex:
    """The write path of one index: WAL, memtables, flush, compaction.

    ``manifest`` (the update manifest) and ``fetched`` (WAL blobs, see
    :class:`~repro.ingest.wal.WriteAheadLog`) are what the opener of the
    index already read; without them the store is asked.
    """

    def __init__(
        self,
        store: ObjectStore,
        index_name: str,
        config: "ServiceConfig",
        metrics: MetricsRegistry,
        invalidate: Callable[[str], None],
        manifest: IndexManifest | None = None,
        fetched: Mapping[str, bytes | None] | None = None,
    ) -> None:
        self._store = store
        self._index_name = index_name
        self._config = config
        self._invalidate = invalidate
        tokenizer = config.make_tokenizer()
        self._tokenizer_factory = config.make_tokenizer
        self._wal = WriteAheadLog(store, index_name, fetched)
        self._manager = AppendOnlyIndexManager(
            store, base_index=index_name, tokenizer=tokenizer
        )
        self._active = Memtable(tokenizer)
        self._sealed: list[Memtable] = []
        # _write_lock guards WAL commits and memtable swaps (short holds);
        # _maintenance_lock serializes flushes/compactions (long holds) so a
        # manual POST /flush and the background worker never interleave.
        self._write_lock = threading.RLock()
        self._maintenance_lock = threading.RLock()
        if manifest is None:
            manifest = self._manager.manifest()
        self._delta_count = len(manifest.delta_indexes)
        self._ratio_dirty = self._delta_count > 0
        # Pending deletes, keyed by tombstone record blob; the flattened
        # frozenset is what query-time filtering and flush-survivor selection
        # read (swapped atomically under the write lock on every mutation).
        self._tombstones: dict[str, tuple[Posting, ...]] = dict(
            self._wal.load_tombstones()
        )
        self._tombstone_set: frozenset[Posting] = frozenset(
            ref for refs in self._tombstones.values() for ref in refs
        )

        self._documents_metric = metrics.counter(
            "airphant_ingest_documents_total",
            "Documents accepted by the live write path",
            label_names=("index",),
        )
        self._batches_metric = metrics.counter(
            "airphant_ingest_batches_total",
            "Append batches accepted by the live write path",
            label_names=("index",),
        )
        self._wal_segments_metric = metrics.counter(
            "airphant_wal_segments_total",
            "WAL segments written",
            label_names=("index",),
        )
        self._wal_bytes_metric = metrics.counter(
            "airphant_wal_bytes_total",
            "Bytes written to WAL segments",
            label_names=("index",),
        )
        self._replayed_metric = metrics.counter(
            "airphant_wal_replayed_documents_total",
            "Documents recovered from WAL segments at open",
            label_names=("index",),
        )
        self._flushes_metric = metrics.counter(
            "airphant_ingest_flushes_total",
            "Memtable flushes completed (one delta index each)",
            label_names=("index",),
        )
        self._compactions_metric = metrics.counter(
            "airphant_ingest_compactions_total",
            "Compactions completed (deltas folded into a new base generation)",
            label_names=("index",),
        )
        self._flush_seconds_metric = metrics.histogram(
            "airphant_ingest_flush_seconds",
            "Wall-clock duration of memtable flushes",
            buckets=_MAINTENANCE_BUCKETS,
        )
        self._compact_seconds_metric = metrics.histogram(
            "airphant_ingest_compact_seconds",
            "Wall-clock duration of compactions",
            buckets=_MAINTENANCE_BUCKETS,
        )
        self._memtable_docs_gauge = metrics.gauge(
            "airphant_memtable_documents",
            "Unflushed documents currently searchable from memtables",
            label_names=("index",),
        )
        self._memtable_bytes_gauge = metrics.gauge(
            "airphant_memtable_bytes",
            "Raw bytes of unflushed documents held by memtables",
            label_names=("index",),
        )
        self._deletes_metric = metrics.counter(
            "airphant_ingest_deletes_total",
            "Document references tombstoned by DELETE operations",
            label_names=("index",),
        )
        self._updates_metric = metrics.counter(
            "airphant_ingest_updates_total",
            "UPDATE operations accepted (new segment + old-ref tombstone)",
            label_names=("index",),
        )
        self._overloads_metric = metrics.counter(
            "airphant_ingest_overloads_total",
            "Writes rejected with ingest_overloaded (memtable over its limits)",
            label_names=("index",),
        )
        self._tombstones_gauge = metrics.gauge(
            "airphant_tombstones_pending",
            "Condemned document references awaiting physical purge at compaction",
            label_names=("index",),
        )

    # -- inspection ---------------------------------------------------------------

    @property
    def index_name(self) -> str:
        """The logical index this ingester writes into."""
        return self._index_name

    @property
    def wal(self) -> WriteAheadLog:
        """The segmented write-ahead log."""
        return self._wal

    @property
    def manager(self) -> AppendOnlyIndexManager:
        """The append-only manager deltas and compactions go through."""
        return self._manager

    @property
    def delta_count(self) -> int:
        """Delta indexes currently stacked on the base (compaction input)."""
        return self._delta_count

    def memtable_documents(self) -> int:
        """Searchable-but-unflushed documents (active + sealed memtables)."""
        with self._write_lock:
            return sum(len(table) for table in (*self._sealed, self._active))

    def memtable_bytes(self) -> int:
        """Raw bytes of searchable-but-unflushed documents."""
        with self._write_lock:
            return sum(
                table.approximate_bytes for table in (*self._sealed, self._active)
            )

    def memtable_members(self) -> list[MemtableMember]:
        """One query member per non-empty live memtable (sealed first, active last)."""
        with self._write_lock:
            tables = [*self._sealed, self._active]
        return [
            MemtableMember(table, f"{self._index_name}/memtable")
            for table in tables
            if len(table) > 0
        ]

    def tombstone_refs(self) -> frozenset[Posting]:
        """Pending deletes: refs condemned but not yet physically purged.

        Query tiers that may still surface a condemned document (deltas,
        base, cluster-routed shards) filter against this set; the memtable
        tier never needs it (deletes are applied there physically).
        """
        with self._write_lock:
            return self._tombstone_set

    def summary(self) -> dict[str, Any]:
        """Compact state block for ``/healthz``."""
        return {
            "memtable_documents": self.memtable_documents(),
            "memtable_bytes": self.memtable_bytes(),
            "wal_segments_active": len(self._wal.manifest().active_segments),
            "delta_indexes": self._delta_count,
            "tombstones_pending": len(self.tombstone_refs()),
        }

    def _update_gauges(self) -> None:
        self._memtable_docs_gauge.set(self.memtable_documents(), index=self._index_name)
        self._memtable_bytes_gauge.set(self.memtable_bytes(), index=self._index_name)
        self._tombstones_gauge.set(len(self.tombstone_refs()), index=self._index_name)

    def clear_gauges(self) -> None:
        """Drop this index's occupancy series (the index is being discarded)."""
        self._memtable_docs_gauge.remove(index=self._index_name)
        self._memtable_bytes_gauge.remove(index=self._index_name)
        self._tombstones_gauge.remove(index=self._index_name)

    def _record_tombstones(self, blob: str, refs: Sequence[Posting]) -> None:
        """Track one committed tombstone record (caller holds the write lock)."""
        self._tombstones[blob] = tuple(refs)
        self._tombstone_set = self._tombstone_set | frozenset(refs)

    # -- recovery -----------------------------------------------------------------

    def replay(self) -> int:
        """Rebuild the memtable from unflushed WAL segments (crash recovery).

        Replayed documents are filtered against the pending tombstone set, so
        a document appended *and* deleted before the crash stays deleted — a
        replay must never resurrect an acknowledged delete.
        """
        documents = self._wal.replay()
        if not documents:
            return 0
        with self._write_lock:
            tombstones = self._tombstone_set
            added = self._active.add(
                document for document in documents if document.ref not in tombstones
            )
        self._replayed_metric.inc(added, index=self._index_name)
        self._update_gauges()
        return added

    # -- the write path -----------------------------------------------------------

    def _wait_for_capacity(self) -> None:
        """Block (briefly) until the memtable is under its occupancy limits.

        The backpressure valve: when the memtable outruns the flusher, wait
        up to ``ingest_overload_wait_s`` for a flush to drain it, then raise
        the typed :class:`IngestOverloadedError` (HTTP 429) instead of
        growing without bound.  Both limits disabled (0) is the default.
        """
        max_docs = self._config.ingest_max_memtable_docs
        max_bytes = self._config.ingest_max_memtable_bytes
        if max_docs <= 0 and max_bytes <= 0:
            return
        deadline = time.monotonic() + max(self._config.ingest_overload_wait_s, 0.0)
        while True:
            documents = self.memtable_documents()
            nbytes = self.memtable_bytes()
            over = (max_docs > 0 and documents >= max_docs) or (
                max_bytes > 0 and nbytes >= max_bytes
            )
            if not over:
                return
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                self._overloads_metric.inc(index=self._index_name)
                raise IngestOverloadedError(self._index_name, documents, nbytes)
            time.sleep(min(0.01, remaining))

    def append(self, texts: Sequence[str]) -> dict[str, Any]:
        """Durably accept one batch of documents; searchable on return.

        Raises ``ValueError`` for documents the WAL segment format cannot
        hold (empty, or containing newlines) and
        :class:`IngestOverloadedError` when the memtable is over its
        configured limits (nothing durable happens in that case).
        """
        from repro.ingest.wal import encode_segment, parse_segment

        texts = list(texts)
        data = encode_segment(texts)  # validation before any I/O or locking
        self._wait_for_capacity()
        with self._write_lock:
            sequence, blob = self._wal.reserve_segment()
        # The heavyweight network write happens OUTSIDE the write lock, so
        # concurrent queries (which briefly take the lock to snapshot the
        # memtables) never stall behind a slow or retried segment upload.
        self._store.put(blob, data)
        documents = parse_segment(blob, data)
        with self._write_lock:
            self._wal.commit_segment(sequence, blob)
            self._active.add(documents)
        nbytes = sum(document.length for document in documents)
        self._documents_metric.inc(len(documents), index=self._index_name)
        self._batches_metric.inc(index=self._index_name)
        self._wal_segments_metric.inc(index=self._index_name)
        self._wal_bytes_metric.inc(nbytes, index=self._index_name)
        self._update_gauges()
        return {
            "index": self._index_name,
            "appended": len(documents),
            "wal_segment": blob,
            "memtable_documents": self.memtable_documents(),
            "refs": [
                {"blob": doc.blob, "offset": doc.offset, "length": doc.length}
                for doc in documents
            ],
        }

    def delete(self, refs: Sequence[Posting]) -> dict[str, Any]:
        """Durably delete documents by reference; invisible on return.

        The commit point is the manifest PUT referencing the tombstone
        record: before it, a crash strands at most an unreferenced record
        blob; after it, every tier filters the refs until a compaction
        physically drops them.  Unknown refs are accepted (deletes are
        idempotent), and the memtable tier applies the delete physically on
        the spot.
        """
        from repro.ingest.wal import encode_tombstones

        refs = list(dict.fromkeys(refs))
        data = encode_tombstones(refs)  # validation before any I/O or locking
        with self._write_lock:
            sequence, blob = self._wal.reserve_tombstone()
        # Like segment uploads, the record PUT happens outside the write lock.
        self._store.put(blob, data)
        with self._write_lock:
            self._wal.commit_tombstone(sequence, blob)
            self._record_tombstones(blob, refs)
            removed = self._active.remove(refs)
            for table in self._sealed:
                removed += table.remove(refs)
        self._deletes_metric.inc(len(refs), index=self._index_name)
        self._update_gauges()
        return {
            "index": self._index_name,
            "deleted": len(refs),
            "memtable_removed": removed,
            "tombstone_record": blob,
            "tombstones_pending": len(self.tombstone_refs()),
        }

    def update(self, ref: Posting, text: str) -> dict[str, Any]:
        """Durably replace one document; read-your-writes on return.

        One new WAL segment (the replacement text) plus one tombstone record
        (the old reference), committed with a **single** manifest PUT: a
        crash before it leaves the old document untouched, after it the
        replacement — no window shows both or neither.  Raises
        ``ValueError`` for text the segment format cannot hold and
        :class:`IngestOverloadedError` under backpressure.
        """
        from repro.ingest.wal import encode_segment, encode_tombstones, parse_segment

        segment_data = encode_segment([text])  # validation before any I/O
        tombstone_data = encode_tombstones([ref])
        self._wait_for_capacity()
        with self._write_lock:
            segment_sequence, segment = self._wal.reserve_segment()
            tombstone_sequence, tombstone = self._wal.reserve_tombstone()
        self._store.put(segment, segment_data)
        self._store.put(tombstone, tombstone_data)
        documents = parse_segment(segment, segment_data)
        with self._write_lock:
            self._wal.commit_update(
                segment_sequence, segment, tombstone_sequence, tombstone
            )
            self._record_tombstones(tombstone, [ref])
            self._active.remove([ref])
            for table in self._sealed:
                table.remove([ref])
            self._active.add(documents)
        self._updates_metric.inc(index=self._index_name)
        self._documents_metric.inc(len(documents), index=self._index_name)
        self._wal_segments_metric.inc(index=self._index_name)
        self._wal_bytes_metric.inc(len(segment_data), index=self._index_name)
        self._update_gauges()
        new_ref = documents[0].ref
        return {
            "index": self._index_name,
            "updated": {"blob": ref.blob, "offset": ref.offset, "length": ref.length},
            "ref": {
                "blob": new_ref.blob,
                "offset": new_ref.offset,
                "length": new_ref.length,
            },
            "wal_segment": segment,
            "tombstone_record": tombstone,
        }

    def should_flush(self) -> bool:
        """Whether the flush policy (doc count / byte budget) has triggered."""
        with self._write_lock:
            return (
                len(self._active) >= self._config.ingest_flush_docs
                or self._active.approximate_bytes >= self._config.ingest_flush_bytes
            )

    def flush(self) -> dict[str, Any] | None:
        """Fold the active memtable into a fresh delta index.

        Returns ``None`` when there was nothing to flush.  Concurrency: the
        sealed memtable stays searchable while the delta builds, and the
        catalog is invalidated *before* it is dropped, so readers never lose
        sight of a document (they may briefly see it from both places; the
        combined view de-duplicates).

        Deletes interact here in two ways: documents tombstoned before the
        seal are filtered out of the delta build (they must not reappear in
        the persisted tier), and a memtable fully emptied by deletes still
        retires its WAL segments — the tombstone records, not the segments,
        carry the deletes forward.
        """
        started = time.perf_counter()
        with self._maintenance_lock:
            with self._write_lock:
                segments = self._wal.manifest().active_segments
                if len(self._active) == 0 and not segments:
                    return None
                sealed = self._active
                self._active = Memtable(self._tokenizer_factory())
                self._sealed.append(sealed)
                # Snapshot once: the build input, the undo payload, and the
                # survivor filter all read this same list (the old code
                # re-queried the sealed memtable in the undo path, racing
                # with concurrent deletes against it).
                documents = sealed.documents()
                tombstones = self._tombstone_set
            survivors = [
                document for document in documents if document.ref not in tombstones
            ]
            built = None
            if survivors:
                try:
                    built = self._manager.append(survivors, corpus_name="ingest")
                except BaseException:
                    # Undo the seal: the documents return to the (new) active
                    # memtable — still searchable, still WAL-covered — so the
                    # next flush retries them.
                    with self._write_lock:
                        self._sealed.remove(sealed)
                        self._active.add(documents)
                    raise
                self._delta_count += 1
                self._ratio_dirty = True
                # New delta first, then drop the sealed memtable: queries in
                # the gap see the documents twice (de-duplicated), never zero
                # times.
                self._invalidate(self._index_name)
            with self._write_lock:
                self._sealed.remove(sealed)
                self._wal.retire(segments)
        elapsed = time.perf_counter() - started
        self._flushes_metric.inc(index=self._index_name)
        self._flush_seconds_metric.observe(elapsed)
        self._update_gauges()
        return {
            "index": self._index_name,
            "flushed": len(survivors),
            "delta": built.index_name if built is not None else None,
            "seconds": elapsed,
        }

    def should_compact(self) -> bool:
        """Whether the compaction policy has triggered.

        Two triggers, both disabled at 0: a maximum stacked-delta count, and
        a delta-bytes / base-bytes ratio.  The ratio needs storage listings,
        so it is only recomputed after a flush changed the delta stack.
        """
        if self._delta_count == 0:
            return False
        max_deltas = self._config.ingest_compact_deltas
        if max_deltas > 0 and self._delta_count >= max_deltas:
            return True
        ratio = self._config.ingest_compact_ratio
        if ratio > 0 and self._ratio_dirty:
            manifest = self._manager.manifest()
            # Own blobs only: an in-place base shares its prefix with the deltas.
            base_bytes = build_bytes(self._store, manifest.active_base)
            delta_bytes = sum(
                build_bytes(self._store, delta) for delta in manifest.delta_indexes
            )
            self._ratio_dirty = False
            if base_bytes > 0 and delta_bytes / base_bytes >= ratio:
                return True
        return False

    def compact(self) -> dict[str, Any] | None:
        """Flush, then fold every delta into a new base generation.

        Returns ``None`` when there is nothing to fold (no memtable
        documents, no deltas, and no pending deletes).

        This is where deletes become physical: the rebuild excludes every
        tombstoned reference, so the new generation — including its ranking
        stats — contains only surviving documents, and the applied tombstone
        records are retired from the WAL afterwards.  Tombstones committed
        *during* the rebuild are not retired; they keep filtering until the
        next compaction.
        """
        started = time.perf_counter()
        with self._maintenance_lock:
            self.flush()
            manifest = self._manager.manifest()
            with self._write_lock:
                tombstone_records = tuple(self._tombstones.keys())
                tombstone_refs = self._tombstone_set
            if not manifest.delta_indexes and not tombstone_refs:
                return None
            folded = len(manifest.delta_indexes)
            built = self._manager.compact(
                corpus_name="compacted", exclude=tombstone_refs
            )
            self._delta_count = 0
            self._ratio_dirty = False
            self._invalidate(self._index_name)
            with self._write_lock:
                self._wal.retire_tombstones(tombstone_records)
                for record in tombstone_records:
                    self._tombstones.pop(record, None)
                self._tombstone_set = frozenset(
                    ref for refs in self._tombstones.values() for ref in refs
                )
        elapsed = time.perf_counter() - started
        self._compactions_metric.inc(index=self._index_name)
        self._compact_seconds_metric.observe(elapsed)
        self._update_gauges()
        manager_manifest = self._manager.manifest()
        return {
            "index": self._index_name,
            "deltas_folded": folded,
            "generation": manager_manifest.generation,
            "base": built.index_name,
            "tombstones_purged": len(tombstone_refs),
            "seconds": elapsed,
        }


class IngestCoordinator:
    """Registry of live indexes plus the background flush/compaction worker.

    Created by :class:`~repro.service.facade.AirphantService`; one worker
    thread per service, started lazily with the first live index.  A live
    index exists for ``name`` once documents were appended this process, or
    once a query found unflushed WAL segments from a previous process (the
    crash-recovery replay).
    """

    def __init__(
        self,
        store: ObjectStore,
        config: "ServiceConfig",
        metrics: MetricsRegistry,
        invalidate: Callable[[str], None],
    ) -> None:
        self._store = store
        self._config = config
        self._metrics = metrics
        self._invalidate = invalidate
        self._lives: dict[str, LiveIndex] = {}
        #: Names already probed for leftover WAL state (one probe per name).
        self._probed: set[str] = set()
        self._lock = threading.RLock()
        self._stop = threading.Event()
        self._worker: threading.Thread | None = None
        self._errors_metric = metrics.counter(
            "airphant_ingest_errors_total",
            "Background ingest-maintenance failures, by stage",
            label_names=("stage",),
        )

    # -- registry -----------------------------------------------------------------

    def probed(self, name: str) -> bool:
        """Whether ``name``'s leftover WAL state has been looked for already."""
        with self._lock:
            return name in self._probed

    def live(
        self, name: str, create: bool = False, opened: OpenedIndex | None = None
    ) -> LiveIndex | None:
        """The live index for ``name``, or ``None`` if it has no write state.

        With ``create=True`` (the append path) a missing live index is
        created.  Either way, the first touch of a name looks once for
        unflushed WAL segments and replays them — this is the crash-recovery
        path, and it also serves reopened processes.  ``opened`` is an
        :func:`~repro.index.store_layout.open_index` of ``name`` that probed
        the ingest manifest: the first touch then reads nothing further.
        """
        with self._lock:
            existing = self._lives.get(name)
            if existing is not None:
                return existing
            manifest_blob = ingest_manifest_blob(name)
            fetched: dict[str, bytes | None] = {}
            if name not in self._probed:
                # Mark probed only after the probe (and replay below)
                # succeed: a transient store failure here must leave the
                # leftover-WAL check pending, not silently skipped forever.
                if opened is not None:
                    fetched = {manifest_blob: opened.ingest, **opened.wal}
                else:
                    probe = RangeRead(manifest_blob, optional=True)
                    fetched = {manifest_blob: self._store.read(probe)}
            needs_replay = fetched.get(manifest_blob) is not None
            if not create and not needs_replay:
                self._probed.add(name)
                return None
            live = LiveIndex(
                self._store,
                name,
                self._config,
                self._metrics,
                self._invalidate,
                opened.manifest if opened is not None else None,
                fetched,
            )
            if needs_replay:
                live.replay()
            self._probed.add(name)
            if (
                not create
                and live.memtable_documents() == 0
                and not live.tombstone_refs()
            ):
                # The WAL manifest exists but everything was flushed and no
                # deletes are pending: no write state to serve; queries stay
                # on the persisted view.
                return None
            self._lives[name] = live
            self._ensure_worker()
            return live

    def tombstone_refs(self, name: str) -> frozenset[Posting]:
        """Pending deletes of ``name`` (empty when it has no live state)."""
        live = self.live(name)
        return live.tombstone_refs() if live is not None else frozenset()

    def discard(self, name: str, destroy_wal: bool = False) -> None:
        """Forget ``name``'s live state (full rebuild path).

        ``destroy_wal=True`` also deletes its WAL segments — only valid when
        the whole index is rebuilt from scratch, making the old documents
        (and hence the segment blobs holding their bytes) garbage.
        """
        with self._lock:
            live = self._lives.pop(name, None)
            if live is not None:
                # A rebuilt index must not keep reporting phantom memtable
                # occupancy from its discarded predecessor.
                live.clear_gauges()
            self._probed.discard(name)
            if destroy_wal:
                WriteAheadLog(self._store, name).destroy()

    def lives(self) -> list[LiveIndex]:
        """Every currently tracked live index."""
        with self._lock:
            return list(self._lives.values())

    def summary(self) -> dict[str, Any]:
        """Aggregate ingest block for ``/healthz``."""
        lives = self.lives()
        return {
            "live_indexes": len(lives),
            "memtable_documents": sum(live.memtable_documents() for live in lives),
            "wal_segments_active": sum(
                len(live.wal.manifest().active_segments) for live in lives
            ),
            "delta_indexes": sum(live.delta_count for live in lives),
            "tombstones_pending": sum(len(live.tombstone_refs()) for live in lives),
            "worker_running": self._worker is not None and self._worker.is_alive(),
        }

    # -- the background worker ----------------------------------------------------

    def _ensure_worker(self) -> None:
        if self._config.ingest_interval_s <= 0:
            return  # background maintenance disabled; manual flush/compact only
        if self._worker is not None and self._worker.is_alive():
            return
        self._stop = threading.Event()
        self._worker = threading.Thread(
            target=self._run, name="airphant-ingest", daemon=True
        )
        self._worker.start()

    def _run(self) -> None:
        stop = self._stop
        while not stop.wait(self._config.ingest_interval_s):
            self.run_maintenance()

    def run_maintenance(self) -> dict[str, int]:
        """One policy pass over every live index (the worker's loop body).

        Public so tests (and ``ingest_interval_s=0`` deployments) can drive
        maintenance deterministically without a thread.
        """
        flushed = compacted = errors = 0
        for live in self.lives():
            try:
                if live.should_flush() and live.flush() is not None:
                    flushed += 1
                if live.should_compact() and live.compact() is not None:
                    compacted += 1
            except Exception:
                # The worker must survive transient storage failures: count
                # them and retry on the next tick (appends stay durable in
                # the WAL regardless).
                errors += 1
                self._errors_metric.inc(stage="maintenance")
        return {"flushed": flushed, "compacted": compacted, "errors": errors}

    def close(self) -> None:
        """Stop the worker and wait for an in-flight flush/compaction to drain.

        Memtable contents are *not* force-flushed: every unflushed document
        is already durable in its WAL segment and will be replayed on the
        next open, which keeps close() fast and crash-equivalent.
        """
        self._stop.set()
        worker, self._worker = self._worker, None
        if worker is not None and worker.is_alive():
            worker.join(timeout=30.0)
        # Serialize with any maintenance that was mid-flight when the stop
        # flag was set (manual flush/compact callers hold the same locks).
        for live in self.lives():
            with live._maintenance_lock:
                pass
