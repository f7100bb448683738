"""Corpus-document parsers.

A corpus in Airphant is a set of blobs in cloud storage.  A corpus-document
parser turns those blobs into :class:`~repro.parsing.documents.Document`
objects whose :class:`~repro.parsing.documents.DocumentRef` records the byte
range of each document so it can later be fetched directly — or, for the
Builder, into one :class:`~repro.parsing.documents.DocumentTable`.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Iterable, Iterator

import numpy as np

from repro.parsing.documents import Document, DocumentRef, DocumentTable
from repro.storage.base import ObjectStore


class CorpusParser(ABC):
    """Splits corpus blobs into documents with byte-range references."""

    @abstractmethod
    def parse_blob(self, blob_name: str, data: bytes) -> Iterator[Document]:
        """Yield the documents contained in one blob."""

    def parse(self, store: ObjectStore, blob_names: Iterable[str]) -> Iterator[Document]:
        """Yield the documents contained in each named blob of ``store``."""
        for blob_name in blob_names:
            yield from self.parse_blob(blob_name, store.get(blob_name))

    def table(self, store: ObjectStore, blob_names: Iterable[str]) -> DocumentTable:
        """The documents of the named blobs as one table: what
        :meth:`parse` yields, each reference once (its first text), sorted."""
        return DocumentTable.of(self.parse(store, blob_names))


class LineDelimitedCorpusParser(CorpusParser):
    """One document per line; the paper's default for log corpora.

    Byte offsets and lengths are computed against the raw blob bytes so that
    a posting's range read returns exactly the document line (without the
    trailing newline).
    """

    def __init__(self, encoding: str = "utf-8", skip_empty: bool = True):
        self._encoding = encoding
        self._skip_empty = skip_empty

    def parse_blob(self, blob_name: str, data: bytes) -> Iterator[Document]:
        for offset, length, text in zip(*self._cut(data)):
            yield Document(ref=DocumentRef(blob=blob_name, offset=offset, length=length), text=text)

    def table(self, store: ObjectStore, blob_names: Iterable[str]) -> DocumentTable:
        """:meth:`parse` straight into columns, with no object per line: a
        blob's lines already come in offset order, each once."""
        data = {name: store.get(name) for name in dict.fromkeys(blob_names)}
        names: list[str] = []
        rank: list[int] = []
        offset: list[int] = []
        length: list[int] = []
        texts: list[str] = []
        for name in sorted(data):
            blob_offsets, blob_lengths, blob_texts = self._cut(data.pop(name))
            if blob_texts:  # a blob without a document is not one of the table's
                rank += [len(names)] * len(blob_texts)
                names.append(name)
                offset += blob_offsets
                length += blob_lengths
                texts += blob_texts
        return DocumentTable(
            names, *(np.array(column, np.int64) for column in (rank, offset, length)), texts
        )

    def _cut(self, data: bytes) -> tuple[list[int], list[int], list[str]]:
        """The byte offsets, byte lengths and texts of ``data``'s documents,
        in order: one per ``b"\\n"``-separated line, empty ones skipped when
        ``skip_empty`` (the newline is not part of a document's range)."""
        offsets: list[int] = []
        lengths: list[int] = []
        texts: list[str] = []
        offset = 0
        for raw_line in data.split(b"\n"):
            length = len(raw_line)
            if length > 0 or not self._skip_empty:
                text = raw_line.decode(self._encoding)
                if text or not self._skip_empty:
                    offsets.append(offset)
                    lengths.append(length)
                    texts.append(text)
            offset += length + 1  # account for the newline separator
        return offsets, lengths, texts


class WholeBlobCorpusParser(CorpusParser):
    """Each blob is a single document (e.g., one file per abstract)."""

    def __init__(self, encoding: str = "utf-8"):
        self._encoding = encoding

    def parse_blob(self, blob_name: str, data: bytes) -> Iterator[Document]:
        ref = DocumentRef(blob=blob_name, offset=0, length=len(data))
        yield Document(ref=ref, text=data.decode(self._encoding))


def parse_corpus(
    store: ObjectStore,
    blob_names: Iterable[str],
    parser: CorpusParser | None = None,
) -> list[Document]:
    """Parse all documents of a corpus into a list.

    ``parser`` defaults to :class:`LineDelimitedCorpusParser`, the layout used
    by every corpus in the paper's evaluation.
    """
    if parser is None:
        parser = LineDelimitedCorpusParser()
    return list(parser.parse(store, blob_names))
