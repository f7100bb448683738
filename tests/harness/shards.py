"""Each shard's share of a sharded build's runs.

A sharded build is one table whose pointers point at runs — a bin's shard
superposts back to back — and a member reads a run whole; tests that
reason about one shard's bytes cut the runs here, by the header's split.
"""

from __future__ import annotations

from itertools import accumulate

from repro.core.mht import BinPointer
from repro.index.compaction import CompactedSketch
from repro.search.member import IndexMember


def share_ranges(header: CompactedSketch, row: int, offset: int) -> list[tuple[int, int]]:
    """``(offset, length)`` of each shard's share of run ``row`` (a pointer's
    row) at ``offset``, in shard order."""
    lengths = header.shards.by_run[row].tolist()
    return list(zip(accumulate(lengths[:-1], initial=offset), lengths))


def shard_pointers(member: IndexMember, word: str) -> list[list[BinPointer]]:
    """Per shard, in order: its share of each of ``word``'s runs (a plain
    member's one list is the runs themselves)."""
    pointers = member.mht.pointers_for(word)
    if member.header.shards is None:
        return [pointers]
    shares = [share_ranges(member.header, p.row, p.offset) if p.length else None for p in pointers]
    return [
        [BinPointer(p.blob, *ranges[shard]) if ranges else p for p, ranges in zip(pointers, shares)]
        for shard in range(member.num_shards)
    ]
