"""Live ingestion: WAL-backed memtables, delta flushes, background compaction.

The paper names "frequent corpus updates" as Airphant's open future work; the
offline half already exists (:mod:`repro.index.updates` builds append-only
delta indexes and compacts them).  This package adds the *online* half — a
write path a serving node can expose:

* :class:`~repro.ingest.memtable.Memtable` — an exact in-memory inverted
  map over freshly appended documents, searchable the moment ``append``
  returns (no sketch: a memtable is small, so exact postings are cheap);
* :mod:`repro.ingest.wal` — every appended batch is persisted first as a
  write-ahead-log *segment* blob (plain line-delimited corpus bytes, so the
  segment doubles as the documents' permanent storage) plus an atomically
  swapped ingest manifest; reopening a store replays unflushed segments;
* :class:`~repro.ingest.live.LiveIndex` — one index's write path: append →
  WAL → memtable, flush → delta index (via ``AppendOnlyIndexManager``),
  compact → generational base swap;
* :class:`~repro.ingest.memtable.MemtableMember` — a memtable behind the
  query executor's member contract, so the combined memtable ∪ deltas ∪ base
  view every query mode routes through is just a longer member list;
* :class:`~repro.ingest.live.IngestCoordinator` — the service's registry of
  live indexes plus the background worker that applies the flush/compaction
  policies.
"""

from repro.ingest.live import (
    IngestCoordinator,
    IngestOverloadedError,
    LiveIndex,
)
from repro.ingest.memtable import Memtable, MemtableMember
from repro.ingest.wal import IngestManifest, WriteAheadLog

__all__ = [
    "IngestCoordinator",
    "IngestManifest",
    "IngestOverloadedError",
    "LiveIndex",
    "Memtable",
    "MemtableMember",
    "WriteAheadLog",
]
