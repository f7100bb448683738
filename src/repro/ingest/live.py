"""The live write path: one index's ingester, the combined view, the worker.

Lifecycle of an appended document (read-your-writes at every step):

1. ``append`` — the batch becomes a durable WAL segment (one PUT, the
   commit point), then lands in the *active* memtable.  Queries see it
   immediately through the combined view.
2. ``flush`` — the active memtable is atomically *sealed* (a fresh active
   one takes over for concurrent appends), its documents are built into an
   Airphant delta index with ``AppendOnlyIndexManager.append`` (under the
   base's bin budget, accuracy target and seed), the delta is committed
   with the WAL's move past its segments in one manifest PUT — from then on
   the manager's manifest names it, so the catalog's next open serves it —
   and only then is the sealed memtable dropped.  At no instant is a
   document invisible; at worst it is briefly visible twice, which the
   query executor's de-duplication by ``(blob, offset, length)`` absorbs.
3. ``compact`` — deltas fold into a fresh generational base via the
   manager's atomic manifest swap (see :mod:`repro.index.updates`).

The combined memtable ∪ deltas ∪ base view is not an object: per query, the
service facade resolves the catalog's (cached) persisted members plus
:meth:`LiveIndex.memtable_members` and hands them, with the pending
tombstones, to one :class:`~repro.search.searcher.AirphantSearcher`.  The
catalog reopens when the builds the manager's manifest names change (new
delta, new generation), so commits and memtable swaps are picked up
without any notification plumbing.

:class:`IngestCoordinator` owns every live index of a service plus one
background worker thread that applies the flush/compaction policies from
:class:`~repro.service.config.ServiceConfig`; ``close()`` stops the worker
and waits for an in-flight flush or compaction to drain.
"""

from __future__ import annotations

import threading
import time
from dataclasses import replace
from typing import TYPE_CHECKING, Any, Callable, Mapping, Sequence

from repro.index.store_layout import OpenedIndex
from repro.index.updates import AppendOnlyIndexManager
from repro.ingest.memtable import Memtable, MemtableMember
from repro.ingest.wal import WriteAheadLog, check_refs, encode_segment
from repro.observability import MetricsRegistry
from repro.parsing.documents import Posting
from repro.storage.base import ObjectStore

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

    ``manager`` is the one manager of the index in this process: its live
    manifest holds the builds, the WAL's state and the pending deletes, and
    every write commits through it.  ``fetched`` is what the opener already
    read of the WAL.
    """

    def __init__(
        self,
        store: ObjectStore,
        index_name: str,
        config: "ServiceConfig",
        metrics: MetricsRegistry,
        manager: AppendOnlyIndexManager,
        fetched: Mapping[str, bytes | None] | None = None,
    ) -> None:
        self._index_name = index_name
        self._config = config
        self._manager = manager
        self._wal = WriteAheadLog(store, index_name, manager, fetched)
        self._active = Memtable(config.make_tokenizer())
        self._sealed: list[Memtable] = []
        # _commit_lock (the manager's) serializes every WAL write and every
        # manifest commit of the index; _write_lock guards the memtables
        # (short holds, no I/O — queries take it); the order
        # is always commit before write.  _maintenance_lock (the manager's)
        # serializes flushes, compactions, rebuilds and restores (long holds)
        # so a manual POST /flush and the background worker never interleave.
        self._commit_lock = self._manager.lock
        self._write_lock = threading.RLock()
        self._maintenance_lock = self._manager.maintenance_lock
        #: Set once a rebuild or restore replaced this write state.
        self._discarded = False

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
        """Delta indexes the live manifest stacks on the base (compaction input)."""
        return len(self._manager.manifest().delta_indexes)

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
        tier never needs it (deletes are applied there physically).  It is
        the live manifest's, so what another process committed counts once
        this one has read its manifest.
        """
        return self._manager.manifest().tombstones

    def summary(self) -> dict[str, Any]:
        """Compact state block for ``/healthz``."""
        return {
            "memtable_documents": self.memtable_documents(),
            "memtable_bytes": self.memtable_bytes(),
            "wal_segments_active": len(self._wal.unflushed),
            "delta_indexes": self.delta_count,
            "tombstones_pending": len(self.tombstone_refs()),
        }

    def _update_gauges(self) -> int:
        """Set the occupancy gauges from one hold of the write lock; returns
        the memtable document count they were set to."""
        with self._write_lock:
            tables = (*self._sealed, self._active)
            documents = sum(len(table) for table in tables)
            nbytes = sum(table.approximate_bytes for table in tables)
        tombstones = len(self.tombstone_refs())
        self._memtable_docs_gauge.set(documents, index=self._index_name)
        self._memtable_bytes_gauge.set(nbytes, index=self._index_name)
        self._tombstones_gauge.set(tombstones, index=self._index_name)
        return documents

    def discard(self) -> None:
        """Flush and compact no more (the caller, holding the maintenance
        lock, replaced this write state), and drop the occupancy series."""
        self._discarded = True
        self._memtable_docs_gauge.remove(index=self._index_name)
        self._memtable_bytes_gauge.remove(index=self._index_name)
        self._tombstones_gauge.remove(index=self._index_name)

    # -- recovery -----------------------------------------------------------------

    def replay(self) -> int:
        """Rebuild the memtable from unflushed WAL segments (crash recovery).

        Each replayed line is tokenized once, as the memtable takes it, and
        the pending tombstones are applied to it as deletes, so a
        document appended *and* deleted before the crash stays deleted — a
        replay must never resurrect an acknowledged delete.
        """
        segments = self._wal.replay()
        if not segments:
            return 0
        with self._write_lock:
            added = sum(self._active.add(*segment) for segment in segments)
            added -= self._active.remove(self.tombstone_refs())
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
        configured limits (nothing durable happens in that case).  A store
        error leaves the batch's fate unknown: a segment PUT that landed
        before it failed is replayed at the next open.
        """
        data = encode_segment(list(texts))  # validation before any I/O or locking
        self._wait_for_capacity()
        # The segment PUT runs under the commit lock only: queries (which
        # briefly take the write lock to snapshot the memtables) never stall
        # behind a slow or retried upload, and no append is in flight while
        # a flush seals the memtable.
        with self._commit_lock:
            segment = self._wal.append(data)
            with self._write_lock:
                self._active.add(*segment)
        blob, offsets, lengths, _ = segment
        self._documents_metric.inc(len(offsets), index=self._index_name)
        self._batches_metric.inc(index=self._index_name)
        self._wal_segments_metric.inc(index=self._index_name)
        self._wal_bytes_metric.inc(sum(lengths), index=self._index_name)
        documents = self._update_gauges()
        return {
            "index": self._index_name,
            "appended": len(offsets),
            "wal_segment": blob,
            "memtable_documents": documents,
            "refs": [
                {"blob": blob, "offset": offset, "length": length}
                for offset, length in zip(offsets, lengths)
            ],
        }

    def delete(self, refs: Sequence[Posting]) -> dict[str, Any]:
        """Durably delete documents by reference; invisible on return.

        One manifest PUT, which adds the refs to its pending deletes, is the
        commit point: before it nothing happened; after it every tier
        filters the refs until a compaction physically drops them.  Unknown
        refs are accepted (deletes are idempotent), and the memtable tier
        applies the delete physically on the spot.
        """
        refs = check_refs(refs)  # validation before any I/O or locking
        with self._commit_lock:
            manifest = self._manager.commit(
                lambda current: replace(current, tombstones=current.tombstones | set(refs))
            )
            with self._write_lock:
                removed = self._active.remove(refs)
                for table in self._sealed:
                    removed += table.remove(refs)
        self._deletes_metric.inc(len(refs), index=self._index_name)
        self._update_gauges()
        return {
            "index": self._index_name,
            "deleted": len(refs),
            "memtable_removed": removed,
            "tombstones_pending": len(manifest.tombstones),
        }

    def update(self, ref: Posting, text: str) -> dict[str, Any]:
        """Durably replace one document; read-your-writes on return.

        One new WAL segment (the replacement text), then a **single**
        manifest PUT that lists it and condemns the old reference: a crash
        before it leaves the old document untouched, after it the
        replacement — no window shows both or neither.  Raises
        ``ValueError`` for text the segment format cannot hold and
        :class:`IngestOverloadedError` under backpressure.
        """
        data = encode_segment([text])  # validation before any I/O
        (ref,) = check_refs([ref])
        self._wait_for_capacity()
        with self._commit_lock:
            segment = self._wal.update(ref, data)
            with self._write_lock:
                self._active.remove([ref])
                for table in self._sealed:
                    table.remove([ref])
                self._active.add(*segment)
        self._updates_metric.inc(index=self._index_name)
        self._documents_metric.inc(len(segment.offsets), index=self._index_name)
        self._wal_segments_metric.inc(index=self._index_name)
        self._wal_bytes_metric.inc(len(data), index=self._index_name)
        self._update_gauges()
        return {
            "index": self._index_name,
            "updated": {"blob": ref.blob, "offset": ref.offset, "length": ref.length},
            "ref": {
                "blob": segment.blob,
                "offset": segment.offsets[0],
                "length": segment.lengths[0],
            },
            "wal_segment": segment.blob,
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
        manager's manifest names the delta *before* it is dropped, so
        readers never lose sight of a document (they may briefly see it
        from both places; the combined view de-duplicates).

        The delta is built from the sealed memtable's statistics, through
        ``build_from_stats`` as compaction's: nothing is tokenized again.
        One manifest PUT commits it with the WAL's move past the sealed
        segments.  Deletes interact here in two ways: documents
        tombstoned before the seal are dropped from the sealed memtable, so
        they do not reappear in the persisted tier, and a memtable fully
        emptied by deletes still retires its WAL segments — the manifest's
        pending deletes, not the segments, carry the deletes forward.
        """
        started = time.perf_counter()
        with self._maintenance_lock:
            if self._discarded:
                return None
            # The commit lock makes the seal exact: every segment the WAL
            # holds unflushed has its documents in the memtable sealed here.
            with self._commit_lock, self._write_lock:
                segments, retire = self._wal.seal()
                if len(self._active) == 0 and not segments:
                    return None
                sealed = self._active
                self._active = Memtable(self._config.make_tokenizer())
                self._sealed.append(sealed)
                sealed.remove(self.tombstone_refs())
            survivors = sealed.statistics()
            built = None
            try:
                if survivors.num_documents:
                    built = self._manager.append(survivors, corpus_name="ingest", wal=retire)
                else:
                    self._manager.commit(retire)
            except BaseException:
                # Undo the seal: the documents return to the (new) active
                # memtable — still searchable, still WAL-covered — so the
                # next flush retries them.
                with self._write_lock:
                    self._sealed.remove(sealed)
                    self._active.absorb(sealed)
                raise
            # The manifest names the new delta first, then the sealed memtable
            # is dropped: queries in the gap see the documents twice
            # (de-duplicated), never zero times.
            with self._write_lock:
                self._sealed.remove(sealed)
        elapsed = time.perf_counter() - started
        self._flushes_metric.inc(index=self._index_name)
        self._flush_seconds_metric.observe(elapsed)
        self._update_gauges()
        return {
            "index": self._index_name,
            "flushed": survivors.num_documents,
            "delta": built.index_name if built is not None else None,
            "seconds": elapsed,
        }

    def should_compact(self) -> bool:
        """Whether the compaction policy has triggered: at least
        ``ingest_compact_deltas`` deltas are stacked (never, at 0)."""
        max_deltas = self._config.ingest_compact_deltas
        return max_deltas > 0 and self.delta_count >= max_deltas

    def compact(self) -> dict[str, Any] | None:
        """Flush, then fold every delta into a new base generation.

        Returns ``None`` when there is nothing to fold (no memtable
        documents, no deltas, and no pending deletes).

        This is where deletes become physical: the rebuild excludes every
        tombstoned reference, so the new generation — including its ranking
        stats — contains only surviving documents, and the swap's one
        manifest PUT drops exactly the deletes it applied.  Only deletes
        committed before the flush are applied: a later one may condemn a
        document whose segment the WAL still holds unflushed, and must keep
        filtering it after a replay.
        """
        started = time.perf_counter()
        with self._maintenance_lock:
            if self._discarded:
                return None
            tombstone_refs = self.tombstone_refs()
            self.flush()
            manifest = self._manager.manifest()
            if not manifest.delta_indexes and not tombstone_refs:
                return None
            folded = len(manifest.delta_indexes)
            built = self._manager.compact(corpus_name="compacted", exclude=tombstone_refs)
            # Swaps hold the maintenance lock: this compaction's manifest.
            manifest = self._manager.manifest()
        elapsed = time.perf_counter() - started
        self._compactions_metric.inc(index=self._index_name)
        self._compact_seconds_metric.observe(elapsed)
        self._update_gauges()
        return {
            "index": self._index_name,
            "deltas_folded": folded,
            "generation": manifest.generation,
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
    crash-recovery replay).  ``manager(name)`` is the catalog's one manager
    of ``name``, which outlives the name's live index.
    """

    def __init__(
        self,
        store: ObjectStore,
        config: "ServiceConfig",
        metrics: MetricsRegistry,
        manager: Callable[[str], AppendOnlyIndexManager],
    ) -> None:
        self._store = store
        self._config = config
        self._metrics = metrics
        self._manager = manager
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

    def live(
        self, name: str, create: bool = False, opened: OpenedIndex | None = None
    ) -> LiveIndex | None:
        """The live index for ``name``, or ``None`` if it has no write state.

        With ``create=True`` (the append path) a missing live index is
        created.  Either way, the first touch of a name looks once for
        unflushed WAL segments and replays them — this is the crash-recovery
        path, and it also serves reopened processes.  ``opened`` is an
        :func:`~repro.index.store_layout.open_index` of ``name`` that probed
        the WAL and gave the name's manager its manifest: the first touch
        then reads nothing further.
        """
        with self._lock:
            existing = self._lives.get(name)
            if existing is not None:
                return existing
            if not create and name in self._probed:
                return None
            # Mark probed only after the probe (and replay below) succeed: a
            # transient store failure here must leave the leftover-WAL check
            # pending, not silently skipped forever.
            manager = self._manager(name)
            if not create and not manager.manifest().has_wal:
                self._probed.add(name)
                return None
            fetched = opened.wal if opened is not None else None
            live = LiveIndex(self._store, name, self._config, self._metrics, manager, fetched)
            # Always: a WAL that has not replayed its range may not retire
            # past it.
            live.replay()
            self._probed.add(name)
            if not create and live.memtable_documents() == 0 and not live.tombstone_refs():
                # The reserved range holds no segment and no deletes are
                # pending: no write state to serve; queries stay on the
                # persisted view.
                return None
            self._lives[name] = live
            self._ensure_worker()
            return live

    def tombstone_refs(self, name: str) -> frozenset[Posting]:
        """Pending deletes of ``name`` (empty when it has no live state)."""
        live = self.live(name)
        return live.tombstone_refs() if live is not None else frozenset()

    def discard(self, name: str) -> None:
        """Forget ``name``'s live state: a rebuild or restore, holding the
        maintenance lock, just replaced it in the manifest."""
        with self._lock:
            live = self._lives.pop(name, None)
            if live is not None:
                # A rebuilt index must not keep reporting phantom memtable
                # occupancy from its discarded predecessor.
                live.discard()
            self._probed.discard(name)

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
            "wal_segments_active": sum(len(live.wal.unflushed) for live in lives),
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
            with live.manager.maintenance_lock:
                pass
