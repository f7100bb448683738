"""Each shard's share of a sharded member's runs, as pointers.

A sharded build is one table whose pointers point at runs — a bin's shard
superposts back to back — and the member reads a run whole; tests that
reason about one shard's bytes cut the runs here, by the header's split.
"""

from __future__ import annotations

from repro.core.mht import BinPointer
from repro.search.member import IndexMember


def shard_pointers(member: IndexMember, word: str) -> list[list[BinPointer]]:
    """Per shard the member holds, in order: its share of each of
    ``word``'s runs (a plain member's one list is the runs themselves)."""
    pointers = member.mht.pointers_for(word)
    header = member.header
    if header.shards is None:
        return [pointers]
    return [
        [
            BinPointer(p.blob, *header.share_range(p.row, p.offset, p.length, shard, shard + 1))
            if p.length
            else p
            for p in pointers
        ]
        for shard in member.held
    ]
