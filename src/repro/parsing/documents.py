"""Document and posting data types.

A *posting* in Airphant is not just a document id: because documents live in
cloud storage and are fetched directly with range reads, each posting records
``(blob name, byte offset, byte length)``.  This lets the Searcher retrieve a
document's raw bytes in a single request without any directory lookups.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import attrgetter
from typing import Iterable, NamedTuple

import numpy as np

from repro.storage.base import RangeRead


@dataclass(frozen=True, order=True)
class DocumentRef:
    """Location of a document's bytes within cloud storage."""

    blob: str
    offset: int
    length: int

    def __post_init__(self) -> None:
        if self.offset < 0 or self.length < 0:
            raise ValueError("offset and length must be non-negative")

    def to_range_read(self) -> RangeRead:
        """The range read that retrieves this document's content."""
        return RangeRead(blob=self.blob, offset=self.offset, length=self.length)


# A posting *is* a document reference; the alias keeps the paper's vocabulary.
Posting = DocumentRef


@dataclass(frozen=True)
class Document:
    """A parsed document: its storage location plus its raw text."""

    ref: DocumentRef
    text: str

    @property
    def blob(self) -> str:
        """Blob containing this document."""
        return self.ref.blob

    @property
    def offset(self) -> int:
        """Byte offset of this document within its blob."""
        return self.ref.offset

    @property
    def length(self) -> int:
        """Byte length of this document within its blob."""
        return self.ref.length


class DocumentTable(NamedTuple):
    """Documents as columns, in ``(blob, offset, length)`` order, each once.

    Document ``i`` is the bytes ``[offset[i], offset[i] + length[i])`` of
    blob ``names[rank[i]]`` (``names`` sorted) and reads ``texts[i]``: what
    the build side analyses, with no object per document.
    """

    names: list[str]
    rank: np.ndarray
    offset: np.ndarray
    length: np.ndarray
    texts: list[str]

    @classmethod
    def of(cls, documents: Iterable[Document]) -> "DocumentTable":
        """The table of ``documents``: a reference seen twice counts once,
        with its first text."""
        unique: dict[DocumentRef, str] = {}
        for document in documents:
            unique.setdefault(document.ref, document.text)
        ordered = sorted(unique, key=attrgetter("blob", "offset", "length"))
        names = sorted({ref.blob for ref in ordered})
        position = {name: at for at, name in enumerate(names)}
        return cls(
            names,
            np.array([position[ref.blob] for ref in ordered], np.int64),
            np.array([ref.offset for ref in ordered], np.int64),
            np.array([ref.length for ref in ordered], np.int64),
            [unique[ref] for ref in ordered],
        )
