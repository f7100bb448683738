"""Document partitioning for sharded index builds.

A sharded index splits one corpus into N disjoint document partitions and
builds an ordinary single-shard IoU Sketch over each.  Shards are
independent, so builds parallelize across cores and a query fans its
superpost reads across all shards in one batch (union of per-shard
answers — the partitions are disjoint, so no candidate is lost or
double-counted).

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

from repro.index.store_layout import shard_index_name  # noqa: F401
from repro.parsing.documents import Document, Posting

#: Partitioner names a sharded build may select.
PARTITIONERS = ("hash", "round-robin")


def shard_of(ref: Posting, position: int, num_shards: int, partitioner: str) -> int:
    """The shard the document at ``ref`` (``position``-th in its corpus) is routed to."""
    if partitioner == "round-robin":
        return position % num_shards
    key = f"{ref.blob}:{ref.offset}:{ref.length}".encode("utf-8")
    # crc32 (not builtin hash()) so routing survives PYTHONHASHSEED changes.
    return zlib.crc32(key) % num_shards


def partition_documents(
    documents: Sequence[Document], num_shards: int, partitioner: str = "hash"
) -> list[list[Document]]:
    """Split ``documents`` into ``num_shards`` disjoint partitions."""
    if num_shards < 1:
        raise ValueError(f"num_shards must be >= 1, got {num_shards}")
    if partitioner not in PARTITIONERS:
        raise ValueError(
            f"unknown partitioner {partitioner!r}; expected one of {', '.join(PARTITIONERS)}"
        )
    partitions: list[list[Document]] = [[] for _ in range(num_shards)]
    for position, document in enumerate(documents):
        partitions[shard_of(document.ref, position, num_shards, partitioner)].append(document)
    return partitions
