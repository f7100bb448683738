"""Document partitioning for sharded index builds.

A sharded index splits one corpus into N disjoint document partitions, the
shards of one IoU Sketch (:mod:`repro.index.builder`): a query unions the
per-shard answers, and the partitions are disjoint, so no candidate is lost
or double-counted.

A document's shard is a stable hash of its ``(blob, offset, length)``
reference: deterministic across processes and insertion orders, so a
rebuild — or a compaction over the same survivors — routes every document to
the same shard.
"""

from __future__ import annotations

import zlib

import numpy as np

from repro.index.store_layout import shard_index_name  # noqa: F401
from repro.index.stats import IndexStats


def check_partitioning(num_shards: int) -> None:
    """Refuse a shard count no build can use (``ValueError``)."""
    if num_shards < 1:
        raise ValueError(f"num_shards must be >= 1, got {num_shards}")


def route_rows(stats: IndexStats, num_shards: int) -> np.ndarray:
    """The shard of each document row of ``stats``."""
    check_partitioning(num_shards)
    blobs = map(stats.blobs.__getitem__, stats.doc_blob.tolist())
    keys = zip(blobs, stats.doc_offset.tolist(), stats.doc_length.tolist())
    # crc32 (not builtin hash()) so routing survives PYTHONHASHSEED changes.
    shards = (zlib.crc32(f"{b}:{o}:{n}".encode("utf-8")) % num_shards for b, o, n in keys)
    return np.fromiter(shards, np.int64, stats.num_documents)
