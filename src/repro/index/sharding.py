"""Document partitioning for sharded index builds.

A sharded index splits one corpus into N disjoint document partitions, the
shards of one IoU Sketch (:mod:`repro.index.builder`): a query unions the
per-shard answers, and the partitions are disjoint, so no candidate is lost
or double-counted.

Two partitioners are provided:

* ``"hash"`` — a stable hash of the document's ``(blob, offset, length)``
  reference.  Deterministic across processes and insertion orders, so a
  rebuild routes every document to the same shard.
* ``"round-robin"`` — position modulo N.  Perfectly balanced, but stable
  only for an identical document ordering.
"""

from __future__ import annotations

import zlib
from typing import Sequence

import numpy as np

from repro.index.store_layout import shard_index_name  # noqa: F401
from repro.index.stats import IndexStats

#: Partitioner names a sharded build may select.
PARTITIONERS = ("hash", "round-robin")


def check_partitioning(num_shards: int, partitioner: str) -> None:
    """Refuse a shard count or partitioner no build can use (``ValueError``)."""
    if num_shards < 1:
        raise ValueError(f"num_shards must be >= 1, got {num_shards}")
    if partitioner not in PARTITIONERS:
        raise ValueError(
            f"unknown partitioner {partitioner!r}; expected one of {', '.join(PARTITIONERS)}"
        )


def route_rows(
    stats: IndexStats,
    num_shards: int,
    partitioner: str = "hash",
    positions: Sequence[int] | None = None,
) -> np.ndarray:
    """The shard of each document row of ``stats``.

    Round-robin routes by ``positions``, each row's place in its corpus;
    without them, by the row itself.
    """
    check_partitioning(num_shards, partitioner)
    if partitioner == "round-robin":
        places = range(stats.num_documents) if positions is None else positions
        return np.asarray(places, np.int64) % num_shards
    blobs = map(stats.blobs.__getitem__, stats.doc_blob.tolist())
    keys = zip(blobs, stats.doc_offset.tolist(), stats.doc_length.tolist())
    # crc32 (not builtin hash()) so routing survives PYTHONHASHSEED changes.
    shards = (zlib.crc32(f"{b}:{o}:{n}".encode("utf-8")) % num_shards for b, o, n in keys)
    return np.fromiter(shards, np.int64, stats.num_documents)
