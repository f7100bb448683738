"""Exact inverted index shared by the hierarchical-index baselines.

Every baseline stores one exact postings list per keyword.  As in the paper,
those postings are compressed with the same string-table codec Airphant uses
for its superposts, and all postings lists are compacted into a single
*postings blob* so any one of them can be fetched with a single range read.
The term index (skip list or B-tree) then only needs to map a keyword to the
``(offset, length)`` of its postings list inside that blob.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from typing import Sequence

from repro.core.mht import BinPointer
from repro.index.serialization import StringTable, decode_superpost, encode_superpost
from repro.parsing.documents import Document, Posting
from repro.parsing.tokenizer import Tokenizer, WhitespaceAnalyzer
from repro.storage.base import ObjectStore


@dataclass
class InvertedIndex:
    """In-memory exact inverted index: word → set of postings."""

    postings_by_word: dict[str, set[Posting]]

    @classmethod
    def from_documents(
        cls, documents: Sequence[Document], tokenizer: Tokenizer | None = None
    ) -> "InvertedIndex":
        """Build the exact inverted index over ``documents``."""
        if tokenizer is None:
            tokenizer = WhitespaceAnalyzer()
        postings_by_word: dict[str, set[Posting]] = defaultdict(set)
        for document in documents:
            for word in tokenizer.distinct_terms(document.text):
                postings_by_word[word].add(document.ref)
        return cls(postings_by_word=dict(postings_by_word))

    @property
    def vocabulary(self) -> list[str]:
        """Sorted list of indexed keywords."""
        return sorted(self.postings_by_word)

    def postings(self, word: str) -> set[Posting]:
        """Exact postings of ``word`` (empty set if unindexed)."""
        return self.postings_by_word.get(word, set())


@dataclass
class PostingsFile:
    """A compacted postings blob plus the per-word pointers into it."""

    blob_name: str
    pointers: dict[str, BinPointer]
    string_table: StringTable

    @classmethod
    def write(
        cls, store: ObjectStore, blob_name: str, index: InvertedIndex
    ) -> "PostingsFile":
        """Serialize every postings list and persist the compacted blob.

        Words are written in sorted order so offsets are deterministic.
        """
        string_table = StringTable()
        blob = bytearray()
        pointers: dict[str, BinPointer] = {}
        for word in index.vocabulary:
            encoded = encode_superpost(index.postings_by_word[word], string_table)
            pointers[word] = BinPointer(blob=blob_name, offset=len(blob), length=len(encoded))
            blob += encoded
        store.put(blob_name, bytes(blob))
        return cls(blob_name=blob_name, pointers=pointers, string_table=string_table)

    def decode(self, payload: bytes) -> list[Posting]:
        """Decode one postings list payload fetched from the blob."""
        return list(decode_superpost(payload, self.string_table))
