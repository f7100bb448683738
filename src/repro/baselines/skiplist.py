"""On-storage skip list term index (Apache Lucene's access pattern).

Lucene's term dictionary is traversed with *dependent sequential reads*: the
location of the next node is only known after the current node has been read.
When the index lives on cloud storage, every step pays a full network
round-trip, which is exactly the bottleneck the paper identifies.

The skip list is persisted as a single blob of fixed-width node records plus
a small JSON header holding the per-level head offsets.  Lookups walk the
list top-down, issuing one range read per previously-unseen node.  When the
whole node region fits in the configured cache budget it is loaded once at
initialization (modelling the OS page cache that makes small corpora fast for
Lucene in the paper's Cranfield results).
"""

from __future__ import annotations

import hashlib
import json
import math
import struct
from dataclasses import dataclass

from repro.core.mht import BinPointer
from repro.baselines._io import dependent_read
from repro.search.results import LatencyBreakdown
from repro.storage.base import ObjectStore

#: Sentinel forward pointer meaning "no next node at this level".
_NO_NODE = 0xFFFFFFFFFFFFFFFF

#: Probability that a node is promoted to the next level (Lucene skip interval ~ 1/4).
_PROMOTION_PROBABILITY = 0.25


@dataclass(frozen=True)
class _Node:
    """Decoded skip-list node."""

    term: str
    postings_offset: int
    postings_length: int
    forwards: tuple[int, ...]


def _node_height(term: str, max_height: int) -> int:
    """Deterministic pseudo-random tower height for ``term``."""
    digest = hashlib.blake2b(term.encode("utf-8"), digest_size=8).digest()
    value = int.from_bytes(digest, "big")
    height = 1
    threshold = int(_PROMOTION_PROBABILITY * 2**64)
    while height < max_height:
        value, remainder = divmod(value * 6364136223846793005 + 1442695040888963407, 2**64)
        value = remainder
        if value >= threshold:
            break
        height += 1
    return height


def _encode_node(term: str, pointer: BinPointer, forwards: list[int]) -> bytes:
    term_bytes = term.encode("utf-8")
    parts = [struct.pack(">H", len(term_bytes)), term_bytes]
    parts.append(struct.pack(">QIB", pointer.offset, pointer.length, len(forwards)))
    for forward in forwards:
        parts.append(struct.pack(">Q", forward))
    return b"".join(parts)


def _node_size(term: str, height: int) -> int:
    return 2 + len(term.encode("utf-8")) + 13 + 8 * height


def _decode_node(data: bytes) -> _Node:
    term_length = struct.unpack_from(">H", data, 0)[0]
    term = data[2 : 2 + term_length].decode("utf-8")
    offset, length, height = struct.unpack_from(">QIB", data, 2 + term_length)
    forwards = struct.unpack_from(f">{height}Q", data, 2 + term_length + 13)
    return _Node(term=term, postings_offset=offset, postings_length=length, forwards=forwards)


class SkipListIndex:
    """A cloud-persisted skip list mapping terms to postings pointers."""

    NODES_BLOB = "skiplist.nodes"
    HEADER_BLOB = "skiplist.header"

    def __init__(self, store: ObjectStore, index_name: str, cache_bytes: int = 4 * 1024 * 1024):
        self._store = store
        self._index_name = index_name
        self._cache_bytes = cache_bytes
        self._heads: list[int] = []
        self._node_sizes: dict[int, int] = {}
        self._region_length = 0
        self._cached_region: bytes | None = None

    # -- blob names --------------------------------------------------------------

    @property
    def nodes_blob(self) -> str:
        """Blob holding the concatenated node records."""
        return f"{self._index_name}/{self.NODES_BLOB}"

    @property
    def header_blob(self) -> str:
        """Blob holding head pointers and node sizes."""
        return f"{self._index_name}/{self.HEADER_BLOB}"

    # -- build ---------------------------------------------------------------------

    def build(self, term_pointers: dict[str, BinPointer]) -> None:
        """Persist a skip list over ``term_pointers`` (term → postings pointer)."""
        terms = sorted(term_pointers)
        num_terms = len(terms)
        max_height = max(1, int(math.ceil(math.log(max(num_terms, 2), 4))) + 1)
        heights = [_node_height(term, max_height) for term in terms]

        # First pass: compute node offsets from their fixed-width sizes.
        offsets: list[int] = []
        cursor = 0
        for term, height in zip(terms, heights):
            offsets.append(cursor)
            cursor += _node_size(term, height)

        # Forward pointers: for each level, the next node of at least that height.
        forwards_per_node: list[list[int]] = [[_NO_NODE] * height for height in heights]
        for level in range(max_height):
            previous: int | None = None
            for node_index in range(num_terms - 1, -1, -1):
                if heights[node_index] > level:
                    forwards_per_node[node_index][level] = (
                        offsets[previous] if previous is not None else _NO_NODE
                    )
                    previous = node_index

        heads = [_NO_NODE] * max_height
        for level in range(max_height):
            for node_index in range(num_terms):
                if heights[node_index] > level:
                    heads[level] = offsets[node_index]
                    break

        blob = bytearray()
        for term, height, forwards in zip(terms, heights, forwards_per_node):
            blob += _encode_node(term, term_pointers[term], forwards)

        header = {
            "heads": heads,
            "num_terms": num_terms,
            "max_height": max_height,
            "region_length": len(blob),
            "node_sizes": {str(offset): _node_size(term, height)
                           for offset, term, height in zip(offsets, terms, heights)},
        }
        self._store.put(self.nodes_blob, bytes(blob))
        self._store.put(self.header_blob, json.dumps(header).encode("utf-8"))

    # -- query ---------------------------------------------------------------------

    def initialize(self, latency: LatencyBreakdown | None = None) -> None:
        """Load the header (and, if small enough, the whole node region)."""
        data = dependent_read(self._store, self.header_blob, 0, None, latency)
        header = json.loads(data.decode("utf-8"))
        self._heads = [int(offset) for offset in header["heads"]]
        self._node_sizes = {int(offset): size for offset, size in header["node_sizes"].items()}
        self._region_length = int(header["region_length"])
        self._cached_region = None
        if 0 < self._region_length <= self._cache_bytes:
            self._cached_region = dependent_read(self._store, self.nodes_blob, 0, None, latency)

    def lookup(self, term: str, latency: LatencyBreakdown) -> BinPointer | None:
        """Find the postings pointer of ``term`` via skip-list traversal.

        Every node examined that is not already cached costs one sequential
        round-trip, charged to ``latency``.
        """
        if not self._heads:
            raise RuntimeError("SkipListIndex.initialize() must be called before lookup()")
        query_cache: dict[int, _Node] = {}
        current_forwards: list[int] = list(self._heads)

        found: _Node | None = None
        for level in range(len(current_forwards) - 1, -1, -1):
            next_offset = current_forwards[level]
            while next_offset != _NO_NODE:
                node = self._read_node(next_offset, query_cache, latency)
                if node.term < term:
                    current_forwards = list(node.forwards) + current_forwards[len(node.forwards):]
                    next_offset = node.forwards[level] if level < len(node.forwards) else _NO_NODE
                else:
                    if node.term == term:
                        found = node
                    break
        if found is None:
            return None
        return BinPointer(
            blob=self._postings_blob_hint,
            offset=found.postings_offset,
            length=found.postings_length,
        )

    #: Name of the postings blob the pointers refer to; set by the owning engine.
    _postings_blob_hint: str = ""

    def set_postings_blob(self, blob_name: str) -> None:
        """Record which blob the stored postings offsets refer to."""
        self._postings_blob_hint = blob_name

    def _read_node(
        self, offset: int, query_cache: dict[int, _Node], latency: LatencyBreakdown
    ) -> _Node:
        if offset in query_cache:
            return query_cache[offset]
        size = self._node_sizes[offset]
        if self._cached_region is not None:
            node = _decode_node(self._cached_region[offset : offset + size])
        else:
            node = _decode_node(dependent_read(self._store, self.nodes_blob, offset, size, latency))
        query_cache[offset] = node
        return node
