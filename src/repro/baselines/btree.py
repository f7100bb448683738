"""Paged B-tree term index (SQLite's access pattern).

SQLite stores its index in fixed-size pages and traverses root → leaf when
looking up a keyword.  Interior pages are small and are typically cached, so
an uncached lookup costs one dependent round-trip per tree level; a warm
cache reduces this to the leaf read only.  The paper uses SQLite as "a
practical B-tree implementation" and reports it as the closest competitor to
Airphant — slower mainly because of its remaining sequential reads.

Pages are serialized as JSON records concatenated into one blob; the header
blob records the root pointer.  A byte-budgeted LRU page cache models
SQLite's buffer pool.
"""

from __future__ import annotations

import json
from collections import OrderedDict
from dataclasses import dataclass

from repro.baselines._io import dependent_read
from repro.core.mht import BinPointer
from repro.search.results import LatencyBreakdown
from repro.storage.base import ObjectStore


@dataclass(frozen=True)
class _PageRef:
    """Location of a serialized page inside the pages blob."""

    offset: int
    length: int


class BTreeIndex:
    """A cloud-persisted B-tree mapping terms to postings pointers."""

    PAGES_BLOB = "btree.pages"
    HEADER_BLOB = "btree.header"

    def __init__(
        self,
        store: ObjectStore,
        index_name: str,
        fanout: int = 64,
        cache_bytes: int = 256 * 1024,
    ):
        if fanout < 2:
            raise ValueError("fanout must be at least 2")
        self._store = store
        self._index_name = index_name
        self._fanout = fanout
        self._cache_bytes = cache_bytes
        self._root: _PageRef | None = None
        self._postings_blob = ""
        self._cache: OrderedDict[int, dict] = OrderedDict()
        self._cache_used = 0

    # -- blob names --------------------------------------------------------------

    @property
    def pages_blob(self) -> str:
        """Blob holding all serialized pages."""
        return f"{self._index_name}/{self.PAGES_BLOB}"

    @property
    def header_blob(self) -> str:
        """Blob holding the root pointer."""
        return f"{self._index_name}/{self.HEADER_BLOB}"

    def set_postings_blob(self, blob_name: str) -> None:
        """Record which blob the stored postings offsets refer to."""
        self._postings_blob = blob_name

    # -- build ---------------------------------------------------------------------

    def build(self, term_pointers: dict[str, BinPointer]) -> None:
        """Persist a B-tree over ``term_pointers`` (term → postings pointer).

        Pages are written bottom-up: leaves first, then each interior level,
        so child references can use final byte offsets.
        """
        terms = sorted(term_pointers)
        blob = bytearray()

        def write_page(page: dict) -> _PageRef:
            encoded = json.dumps(page, separators=(",", ":")).encode("utf-8")
            ref = _PageRef(offset=len(blob), length=len(encoded))
            blob.extend(encoded)
            return ref

        # Leaf level: sorted runs of (term, postings offset, postings length).
        level_refs: list[_PageRef] = []
        level_keys: list[str] = []
        for start in range(0, max(len(terms), 1), self._fanout):
            chunk = terms[start : start + self._fanout]
            page = {
                "leaf": True,
                "entries": [
                    [term, term_pointers[term].offset, term_pointers[term].length]
                    for term in chunk
                ],
            }
            level_refs.append(write_page(page))
            level_keys.append(chunk[0] if chunk else "")

        # Interior levels until a single root remains.
        while len(level_refs) > 1:
            next_refs: list[_PageRef] = []
            next_keys: list[str] = []
            for start in range(0, len(level_refs), self._fanout):
                child_refs = level_refs[start : start + self._fanout]
                child_keys = level_keys[start : start + self._fanout]
                page = {
                    "leaf": False,
                    "keys": child_keys,
                    "children": [[ref.offset, ref.length] for ref in child_refs],
                }
                next_refs.append(write_page(page))
                next_keys.append(child_keys[0])
            level_refs = next_refs
            level_keys = next_keys

        root = level_refs[0]
        header = {"root": [root.offset, root.length], "num_terms": len(terms)}
        self._store.put(self.pages_blob, bytes(blob))
        self._store.put(self.header_blob, json.dumps(header).encode("utf-8"))

    # -- query ---------------------------------------------------------------------

    def initialize(self, latency: LatencyBreakdown | None = None) -> None:
        """Read the header blob (one round-trip) and reset the page cache."""
        data = dependent_read(self._store, self.header_blob, 0, None, latency)
        header = json.loads(data.decode("utf-8"))
        self._root = _PageRef(offset=header["root"][0], length=header["root"][1])
        self._cache.clear()
        self._cache_used = 0

    def lookup(self, term: str, latency: LatencyBreakdown) -> BinPointer | None:
        """Traverse root → leaf; uncached pages cost one round-trip each."""
        if self._root is None:
            raise RuntimeError("BTreeIndex.initialize() must be called before lookup()")
        ref = self._root
        while True:
            page = self._read_page(ref, latency)
            if page["leaf"]:
                for entry_term, offset, length in page["entries"]:
                    if entry_term == term:
                        return BinPointer(blob=self._postings_blob, offset=offset, length=length)
                return None
            keys = page["keys"]
            children = page["children"]
            child_index = 0
            for index in range(1, len(keys)):
                if term >= keys[index]:
                    child_index = index
                else:
                    break
            ref = _PageRef(offset=children[child_index][0], length=children[child_index][1])

    # -- page cache -------------------------------------------------------------------

    def _read_page(self, ref: _PageRef, latency: LatencyBreakdown) -> dict:
        cached = self._cache.get(ref.offset)
        if cached is not None:
            self._cache.move_to_end(ref.offset)
            return cached
        data = dependent_read(self._store, self.pages_blob, ref.offset, ref.length, latency)
        page = json.loads(data.decode("utf-8"))
        self._cache[ref.offset] = page
        self._cache_used += ref.length
        while self._cache_used > self._cache_bytes and len(self._cache) > 1:
            _, evicted = self._cache.popitem(last=False)
            self._cache_used -= len(json.dumps(evicted, separators=(",", ":")).encode("utf-8"))
        return page
