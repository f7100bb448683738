"""Multilayer Hash Table (MHT).

The MHT is the small in-memory half of a persisted IoU Sketch: the layer hash
seeds plus, for every *non-empty* bin, the ``(offset, length)`` of that bin's
serialized superpost inside the compacted superpost blob.  It also carries
the exact pointers of common words.  The Searcher downloads the MHT once at
initialization; every later query is answered with a single parallel batch
of range reads resolved through it.

The pointer table is sparse and columnar: a sorted column of flat bin ids
(``layer * bins_per_layer + bin``) beside an offset and a length column, held
as integer buffers exactly as the header blob stores them.  An id that is
absent *is* the empty bin, so the table costs what the index holds rather
than what the bin budget allows, and opening it creates no per-bin object.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field
from itertools import chain, islice
from operator import lt
from typing import Any, Callable, Iterator, Sequence

import numpy as np

from repro.core.hashing import LayeredHasher
from repro.storage.base import RangeRead


@dataclass(frozen=True)
class BinPointer:
    """Location of one serialized superpost inside the compacted blob."""

    blob: str
    offset: int
    length: int
    #: The pointer's row in the table — the hashed bins' rows, then the
    #: common words' (``-1``: the empty bin).  A sharded build's run split
    #: is indexed by it.
    row: int = field(default=-1, compare=False)

    def __post_init__(self) -> None:
        if self.offset < 0 or self.length < 0:
            raise ValueError("offset and length must be non-negative")

    def to_range_read(
        self, decode: Callable[[bytes | memoryview], Any] | None = None
    ) -> RangeRead:
        """The range read that fetches this superpost (``decode``: what turns
        its bytes into postings, see :attr:`RangeRead.decode`)."""
        return RangeRead(self.blob, self.offset, self.length, decode=decode)

    @property
    def is_empty(self) -> bool:
        """True for bins that received no postings at build time."""
        return self.length == 0


@dataclass
class MultilayerHashTable:
    """Hash seeds plus sparse superpost pointer columns (Searcher-resident state).

    ``bin_ids`` (u32, strictly increasing), ``offsets`` and ``lengths`` (u32,
    or u64 when the blob outgrows 4 GiB) describe the non-empty hashed bins;
    ``common_offsets``/``common_lengths`` are parallel to ``common_words``
    (strictly increasing, so a lookup bisects them as it does ``bin_ids``).
    Columns are anything exposing the buffer protocol (numpy arrays,
    ``memoryview.cast`` results); they are validated here, once, against the
    hasher's shape and ``blob_bytes``, so both header decoders and the writer
    hand over untrusted columns and get a ``ValueError`` for a bad one.
    """

    hasher: LayeredHasher
    blob: str
    blob_bytes: int
    bin_ids: Sequence[int]
    offsets: Sequence[int]
    lengths: Sequence[int]
    common_words: Sequence[str] = ()
    common_offsets: Sequence[int] = field(default_factory=lambda: np.empty(0, np.uint32))
    common_lengths: Sequence[int] = field(default_factory=lambda: np.empty(0, np.uint32))

    def __post_init__(self) -> None:
        if not 0 <= self.blob_bytes < 1 << 64:
            raise ValueError("superpost blob length out of range")
        ids = np.asarray(self.bin_ids)
        if ids.dtype != np.uint32 or ids.ndim != 1:
            raise ValueError("bin ids must be one u32 column")
        if ids.size and not (
            ids[-1] < self.num_layers * self.bins_per_layer and np.all(ids[1:] > ids[:-1])
        ):
            raise ValueError("bin ids must be strictly increasing and within the table")
        words = self.common_words
        if not all(map(lt, words, islice(words, 1, None))):
            raise ValueError("common words must be strictly increasing")
        width = np.asarray(self.offsets).dtype
        if width not in (np.uint32, np.uint64):
            raise ValueError("pointer columns must be u32 or u64")
        limit = np.uint64(self.blob_bytes)
        for rows, offsets, lengths in (
            (ids.size, self.offsets, self.lengths),
            (len(self.common_words), self.common_offsets, self.common_lengths),
        ):
            offsets, lengths = np.asarray(offsets), np.asarray(lengths)
            if not (offsets.dtype == lengths.dtype == width) or not (
                offsets.shape == lengths.shape == (rows,)
            ):
                raise ValueError("pointer columns must share one width and hold one row per id")
            # Two unsigned comparisons, so a huge offset cannot wrap the sum.
            if np.any(offsets > limit) or np.any(lengths > limit - offsets):
                raise ValueError("pointer past the end of the superpost blob")
        # Scalar probes index memoryviews: they yield plain ints several times
        # faster than numpy scalars, and a per-call np.searchsorted costs more
        # than the whole bisect.
        self.bin_ids = memoryview(ids)
        self.offsets, self.lengths = memoryview(self.offsets), memoryview(self.lengths)
        self.common_offsets = memoryview(self.common_offsets)
        self.common_lengths = memoryview(self.common_lengths)

    # -- structure -------------------------------------------------------------------

    @property
    def num_layers(self) -> int:
        """Number of layers L."""
        return self.hasher.num_layers

    @property
    def bins_per_layer(self) -> int:
        """Number of bins in each layer."""
        return self.hasher.bins_per_layer

    @property
    def num_common_words(self) -> int:
        """Number of words with exact (common-word) pointers."""
        return len(self.common_words)

    @property
    def columns(self) -> tuple[memoryview, ...]:
        """The five integer columns, in the order the header blob stores them."""
        return (
            self.offsets, self.lengths, self.common_offsets, self.common_lengths, self.bin_ids
        )

    def memory_bytes(self) -> int:
        """In-memory footprint of the pointer columns (their real ``nbytes``)."""
        return sum(column.nbytes for column in self.columns)

    def ranges(self) -> Iterator[tuple[int, int]]:
        """``(offset, length)`` of every stored superpost, common words included."""
        return chain(
            zip(self.offsets, self.lengths), zip(self.common_offsets, self.common_lengths)
        )

    # -- lookups ---------------------------------------------------------------------

    def _common_row(self, word: str) -> int | None:
        """The row of ``word`` among the sorted common words (``None``: not one)."""
        words = self.common_words
        row = bisect_left(words, word)
        return row if row < len(words) and words[row] == word else None

    def is_common(self, word: str) -> bool:
        """Whether ``word`` is answered from an exact common-word bin."""
        return self._common_row(word) is not None

    def pointer_of(self, layer: int, bin_index: int) -> BinPointer:
        """Pointer of one hashed bin; an absent id is the empty bin ``(0, 0)``."""
        flat = layer * self.bins_per_layer + bin_index
        row = bisect_left(self.bin_ids, flat)
        if row < len(self.bin_ids) and self.bin_ids[row] == flat:
            return BinPointer(self.blob, self.offsets[row], self.lengths[row], row)
        return BinPointer(self.blob, 0, 0)

    def pointers_for(self, word: str) -> list[BinPointer]:
        """The superpost pointers a query for ``word`` must fetch.

        Returns a single pointer for common words and one pointer per layer
        otherwise.  Empty bins are included (the Searcher skips zero-length
        reads) so the caller always knows which layer produced which payload.
        """
        row = self._common_row(word)
        if row is not None:
            return [
                BinPointer(
                    self.blob, self.common_offsets[row], self.common_lengths[row],
                    len(self.bin_ids) + row,
                )
            ]
        return [
            self.pointer_of(layer, bin_index)
            for layer, bin_index in enumerate(self.hasher.bins_of(word))
        ]
