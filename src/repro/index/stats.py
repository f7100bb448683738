"""Ranking statistics persisted next to an index's superposts.

Membership queries never need more than the superposts, but *ranked*
retrieval (``mode="topk_bm25"``) scores candidates with BM25, which needs
three things the sketch deliberately throws away:

* per-document lengths (in analyzer tokens) and the corpus totals they
  aggregate into (``N``, ``avgdl``);
* per-term document frequencies (the IDF input);
* per-``(term, document)`` term frequencies (the saturation input — and,
  because they are **exact**, a free false-positive filter: a superpost
  candidate whose stats show ``tf = 0`` for a query term provably does not
  contain it, so ranked queries never fetch document text just to discard
  it).

The Builder persists them as one *stats blob* per build (``{index}/stats.json``
— a name kept from the JSON era, as ``header.json``'s is), written alongside
the header and superpost blobs.  Container v3 (byte layout in
``docs/RANKING.md``) keeps each column in the least room it can be read
from: the documents as narrow fixed-width rows (so a candidate's row is a
direct index) with their offsets as gaps from the previous document's end;
the sorted terms front-coded in blocks of :data:`TERMS_PER_BLOCK`, with each
term's df beside it; each term's entries as one run of document-row delta
varints, the rare ``tf != 1`` as exceptions after it; and a CRC-32 trailer,
checked once per read.  Decoding a blob checks the trailer and decodes the
documents; a term's vocabulary block and run are decoded only when a query
asks for that term (:meth:`IndexStats.entries`), and the whole term-side
columns only when build or compaction reads them.

The Builder writes the stats blob before the header, the build's commit
point, so every build that opens has its statistics.  Container v3 is the
one format read: a missing stats blob, or one in the v1 JSON or v2 container
of earlier builds (or any other container version), is
:class:`~repro.index.store_layout.UnsupportedIndexFormatError` naming the
blob — the index answers membership queries, but a ranked query or a
compaction asks for a rebuild.  A blob that does not decode is
:class:`~repro.index.store_layout.CorruptIndexError` naming it.
"""

from __future__ import annotations

import json
import math
import struct
import zlib
from bisect import bisect_left, bisect_right
from functools import cached_property
from itertools import chain
from typing import AbstractSet, Iterable, Sequence

import numpy as np

from repro.core.superpost import Superpost
from repro.index.serialization import decode_varint, decode_varints, encode_varints, varint_widths
from repro.index.store_layout import (
    STATS_BLOB_SUFFIX,
    CorruptIndexError,
    UnsupportedIndexFormatError,
    stats_blob_name,
)
from repro.parsing.documents import Document, DocumentTable, Posting
from repro.parsing.tokenizer import Tokenizer
from repro.profiling.profiler import CorpusProfile

#: Leading bytes of a stats blob.  They differ from the leading bytes of
#: every retired format (:data:`_RETIRED_STATS`) in at least two places, so
#: no single flipped byte makes a current blob read as a retired one.
STATS_MAGIC = b"AIRPRNK\n"
#: Version of the stats container the builder writes.
STATS_CONTAINER_VERSION = 3
#: Magic, then container version and preamble length as little-endian u32.
_STATS_PREFIX = struct.Struct("<8sII")
#: The CRC-32 of every byte before it, which ends the blob.
_CHECKSUM = struct.Struct("<I")
#: Leading bytes of the formats no longer read -> what a blob with them holds.
_RETIRED_STATS = {
    b'{"': "a JSON stats blob (v1)",
    b"AIRPSTA\n": "a stats container v2 blob",
}
#: The one stats format read.
_READ_FORMAT = f"stats container v{STATS_CONTAINER_VERSION}"
#: Terms per front-coded vocabulary block: each block starts with a whole
#: term, and a lookup decodes at most one block.
TERMS_PER_BLOCK = 16
_UNSIGNED_LIMITS = [(dtype, int(np.iinfo(dtype).max)) for dtype in (np.uint8, np.uint16, np.uint32)]

#: The columns of the statistics, as :class:`IndexStats` holds them.
COLUMNS = (
    "doc_blob",  # rank of the document's blob name in ``blobs``
    "doc_offset",
    "doc_length",  # the posting's byte length
    "doc_words",  # the document's length in analyzer tokens
    "term_bytes",  # the sorted terms' UTF-8, concatenated
    "term_ends",  # term i is term_bytes[term_ends[i]:term_ends[i + 1]]
    "term_starts",  # term i's entries are [term_starts[i], term_starts[i + 1])
    "entry_doc",  # document index, ascending within a term
    "entry_tf",
)
#: The term-side columns, which a decoded blob materialises only on request.
TERM_COLUMNS = COLUMNS[4:]

#: The sections of container v3, in blob order: fixed-width rows (``K`` is
#: the number of vocabulary blocks) or bytes.
SECTIONS = (
    "doc_blob",  # N rows
    "doc_length",  # N rows
    "doc_words",  # N rows
    "doc_gaps",  # N rows: offset - the previous document's end in its blob, zigzagged
    "block_fields",  # K rows: where block k starts in term_fields,
    "block_suffixes",  # ... in term_suffixes,
    "block_runs",  # ... and in entry_runs
    "term_fields",  # 4 varints a term: shared prefix, suffix length, df, run length
    "term_suffixes",  # each term's bytes after the prefix it shares with the previous one
    "entry_runs",  # per term: df row deltas, then (position delta, tf) where tf != 1
)
_BYTE_SECTIONS = ("term_fields", "term_suffixes", "entry_runs")
#: Values one vectorised varint encoding pass takes on.
_ENCODE_CHUNK = 4096


class _Materialized:
    """A term-side column of a decoded blob: on first access every term-side
    column is decoded in full and kept as a plain attribute."""

    def __set_name__(self, owner: type, name: str) -> None:
        self.name = name

    def __get__(self, stats: "IndexStats | None", owner: type | None = None):
        if stats is None:
            return self
        stats.__dict__.update(zip(TERM_COLUMNS, stats._encoded.columns()))
        stats._check()
        return stats.__dict__[self.name]


class IndexStats:
    """Exact ranking statistics of one build (or memtable), as columns.

    The columns of :data:`COLUMNS` are attributes.  Document ``i`` is
    ``docs[i]`` — a sorted :class:`~repro.core.superpost.Superpost` over the
    ``doc_*`` columns — and is ``doc_words[i]`` tokens long; :meth:`entries`
    are a term's ``(document index, tf)`` columns.  Nothing here is ever
    merged or copied per query: a query reads the rows of its candidates and
    the entries of its words.  Statistics decoded from a blob hold the
    ``doc_*`` columns and decode a term's entries when asked for them; the
    term-side columns materialise on first access.  Construction refuses
    columns that disagree with each other or point outside one another
    (``ValueError``).
    """

    term_bytes = _Materialized()
    term_ends = _Materialized()
    term_starts = _Materialized()
    entry_doc = _Materialized()
    entry_tf = _Materialized()

    def __init__(
        self,
        num_documents: int,
        total_words: int,
        blobs: Sequence[str],
        encoded: "_EncodedTerms | None" = None,
        **columns: np.ndarray,
    ) -> None:
        self.num_documents = num_documents
        self.total_words = total_words
        self.blobs = tuple(blobs)
        self._encoded = encoded
        for name in COLUMNS if encoded is None else COLUMNS[:4]:
            setattr(self, name, columns[name])
        self._check()
        self.docs = Superpost.from_columns(
            self.blobs, *(columns[name].astype(np.int64) for name in COLUMNS[:3])
        )

    def _check(self) -> None:
        consistent = (
            list(self.blobs) == sorted(set(self.blobs))
            and {len(getattr(self, name)) for name in COLUMNS[:4]} == {self.num_documents}
            and self.total_words == int(self.doc_words.sum(dtype=np.uint64))
            and _within(self.doc_blob, len(self.blobs))
        )
        if consistent and "entry_doc" in self.__dict__:
            ends, starts, entries = self.term_ends, self.term_starts, self.entry_doc
            consistent = (
                len(ends) == len(starts) >= 1
                and len(entries) == len(self.entry_tf)
                and _within(entries, self.num_documents)
                and ends[0] == starts[0] == 0
                and ends[-1] == len(self.term_bytes)
                and starts[-1] == len(entries)
                and bool((np.diff(ends) >= 0).all() and (np.diff(starts) >= 0).all())
            )
        if not consistent:
            raise ValueError("ranking statistics columns disagree or point outside each other")

    @property
    def num_terms(self) -> int:
        if self._encoded is not None:
            return self._encoded.num_terms
        return len(self.term_ends) - 1

    @cached_property
    def _terms(self) -> bytes:
        return self.term_bytes.tobytes()

    def term(self, index: int) -> bytes:
        """The UTF-8 of the ``index``-th term in sort order."""
        return self._terms[self.term_ends[index] : self.term_ends[index + 1]]

    def terms(self) -> list[bytes]:
        """Every term's UTF-8, in sort order."""
        ends = self.term_ends.tolist()
        return [self._terms[start:end] for start, end in zip(ends, ends[1:])]

    def words(self) -> list[str]:
        """Every term as the analyzer produced it, in sort order."""
        return [term.decode("utf-8", "surrogatepass") for term in self.terms()]

    def profile(self) -> CorpusProfile:
        """The corpus profile Algorithm 1 and the header read, straight from
        the columns: a document's distinct words are its entries.  The
        per-word maps stay empty: a word's document frequency (its entry
        count) and occurrences (the sum of its tfs) are columns already."""
        distinct = np.bincount(self.entry_doc.astype(np.int64), minlength=self.num_documents)
        return CorpusProfile(
            self.num_documents, self.num_terms, self.total_words, distinct.tolist(), {}, {}
        )

    def entries(self, term: str) -> tuple[np.ndarray, np.ndarray]:
        """``(document indexes ascending, tfs)`` of ``term`` (empty when absent)."""
        wanted = _term_key(term)
        if self._encoded is not None:
            return self._encoded.entries(wanted)
        at = bisect_left(range(self.num_terms), wanted, key=self.term)
        if at == self.num_terms or self.term(at) != wanted:
            return self.entry_doc[:0], self.entry_tf[:0]
        span = slice(self.term_starts[at], self.term_starts[at + 1])
        return self.entry_doc[span], self.entry_tf[span]

    def frequencies(self, term: str, rows: np.ndarray) -> np.ndarray:
        """The tf of ``term`` in each document of ``rows`` (0 where absent)."""
        return frequencies_at(self.entries(term), rows)


def frequencies_at(entries: tuple[np.ndarray, np.ndarray], rows: np.ndarray) -> np.ndarray:
    """The tf in each document of ``rows`` (0 where absent) of the term whose
    :meth:`IndexStats.entries` are ``entries``."""
    docs, tfs = entries
    if not len(docs):
        return np.zeros(len(rows), np.int64)
    at = np.minimum(np.searchsorted(docs, rows), len(docs) - 1)
    return np.where(docs[at] == rows, tfs[at], 0)


def _term_key(term: str) -> bytes:
    """A term's sort key and stored form (lone surrogates survive)."""
    return term.encode("utf-8", "surrogatepass")


def narrowest(values: Iterable[int] | np.ndarray) -> np.ndarray:
    """``values`` in the narrowest unsigned dtype that holds them."""
    if isinstance(values, np.ndarray):
        array = values.astype(np.uint64)
    else:
        array = np.fromiter(values, np.uint64)
    top = int(array.max(initial=0))
    dtype = next((dtype for dtype, limit in _UNSIGNED_LIMITS if top <= limit), np.uint64)
    return array.astype(dtype, copy=False)


def _assemble(
    blobs: Sequence[str],
    doc_columns: Sequence[Sequence[int] | np.ndarray],
    terms: Sequence[bytes],
    term_sizes: Sequence[int] | np.ndarray,
    entry_doc: Iterable[int] | np.ndarray,
    entry_tf: Iterable[int] | np.ndarray,
) -> IndexStats:
    """Statistics from documents already in ``(blob, offset, length)`` order
    (``doc_columns`` as in :data:`COLUMNS`), the sorted ``terms`` and their
    entries back to back (``term_sizes`` of them each, by document)."""
    doc_words = narrowest(np.asarray(doc_columns[3], np.uint64))
    return IndexStats(
        len(doc_words),
        int(doc_words.sum(dtype=np.uint64)),
        blobs,
        **dict(zip(COLUMNS[:3], (narrowest(np.asarray(c, np.uint64)) for c in doc_columns))),
        doc_words=doc_words,
        term_bytes=np.frombuffer(b"".join(terms), np.uint8),
        term_ends=narrowest(np.cumsum([0, *map(len, terms)])),
        term_starts=narrowest(np.cumsum(np.append(0, term_sizes).astype(np.int64))),
        entry_doc=narrowest(entry_doc),
        entry_tf=narrowest(entry_tf),
    )


def build_stats(
    documents: Iterable[Document] | DocumentTable, tokenizer: Tokenizer
) -> IndexStats:
    """Compute exact ranking statistics over already-parsed documents.

    The one place the build side analyses text: every document is tokenized
    once, and the sketch, its profile and its layout all derive from these
    columns.  ``documents`` are a parser's :class:`DocumentTable`, or any
    documents, which become one: a reference seen twice counts once (its
    first text).
    """
    table = documents if isinstance(documents, DocumentTable) else DocumentTable.of(documents)
    analysed = map(tokenizer.tokenize, table.texts)
    return count_stats(table.names, (table.rank, table.offset, table.length), analysed)


def count_stats(
    names: Sequence[str], doc_columns: Sequence[Sequence[int]], analysed: Iterable[list[str]]
) -> IndexStats:
    """The counting half of :func:`build_stats`, over documents tokenized
    already (a memtable's): ``doc_columns`` are the documents' blob ranks in
    the sorted ``names``, offsets and lengths, in that order, each document
    once, and ``analysed`` yields each document's tokens in the same order."""
    # Every document's tokens back to back, and how many each has.
    tokens: list[str] = []
    extend = tokens.extend
    counts = [extend(tokenized) or len(tokenized) for tokenized in analysed]
    # Code-point order is UTF-8 byte order: the sorted words are the sorted terms.
    words = sorted(set(tokens))
    term_of = {word: term for term, word in enumerate(words)}
    num_documents = len(counts)
    width = max(num_documents, 1)
    doc_words = np.array(counts, np.int64)
    keys = np.fromiter(map(term_of.__getitem__, tokens), np.int64, len(tokens)) * width
    keys += np.repeat(np.arange(num_documents), doc_words)
    # One entry per distinct (term, document), counted: sorted by term, then document.
    entries, tfs = np.unique(keys, return_counts=True)
    sizes = np.bincount(entries // width, minlength=len(words))
    return _assemble(
        names, (*doc_columns, doc_words), [*map(_term_key, words)], sizes, entries % width, tfs
    )


def union_stats(
    members: Sequence[IndexStats],
    exclude: AbstractSet[Posting] = frozenset(),
) -> IndexStats:
    """One set of statistics over the documents of ``members`` minus ``exclude``.

    Column for column what :func:`build_stats` gives over the surviving
    documents: a document several members hold counts once, with the length
    and entries of the first member (in the order given) that holds it;
    excluded documents, and terms left without an entry, are dropped; rows
    are renumbered in ``(blob, offset, length)`` order.  No text is read or
    analysed.
    """
    names = sorted(set(chain.from_iterable(member.blobs for member in members)))
    position = {name: at for at, name in enumerate(names)}
    condemned = [posting for posting in exclude if posting.blob in position]
    # The condemned postings as holder -1, then every member's documents,
    # sorted so that each distinct document's tombstone or first holder leads.
    holder = np.repeat(
        np.arange(-1, len(members)), [len(condemned), *(m.num_documents for m in members)]
    )
    rank = np.concatenate(
        [
            np.array([position[posting.blob] for posting in condemned], np.int64),
            *(np.array([position[b] for b in m.blobs], np.int64)[m.doc_blob] for m in members),
        ]
    )
    offset, length, doc_words = (
        np.concatenate([np.array(tail, np.uint64), *(getattr(m, name) for m in members)])
        for name, tail in (
            ("doc_offset", [posting.offset for posting in condemned]),
            ("doc_length", [posting.length for posting in condemned]),
            ("doc_words", [0] * len(condemned)),
        )
    )
    order = np.lexsort((holder, length, offset, rank))
    leads = np.ones(len(order), bool)
    leads[1:] = (np.diff(rank[order]) != 0) | (offset[order][1:] != offset[order][:-1])
    leads[1:] |= length[order][1:] != length[order][:-1]
    kept = order[leads & (holder[order] >= 0)]
    row = np.full(len(order), -1, np.int64)
    row[kept] = np.arange(len(kept))
    used, doc_blob = np.unique(rank[kept], return_inverse=True)

    # Each member's entries, on the merged vocabulary and the new rows.
    term_lists = [member.terms() for member in members]
    vocabulary = sorted(set(chain.from_iterable(term_lists)))
    term_of = {term: at for at, term in enumerate(vocabulary)}
    terms, docs, tfs = [np.empty(0, np.int64)], [np.empty(0, np.int64)], [np.empty(0, np.int64)]
    first_row = len(condemned)
    for member, member_terms in zip(members, term_lists):
        held = row[first_row + member.entry_doc.astype(np.int64)]
        first_row += member.num_documents
        mapped = np.fromiter(map(term_of.__getitem__, member_terms), np.int64, len(member_terms))
        terms.append(np.repeat(mapped, np.diff(member.term_starts.astype(np.int64)))[held >= 0])
        docs.append(held[held >= 0])
        tfs.append(member.entry_tf[held >= 0].astype(np.int64))
    terms, docs, tfs = map(np.concatenate, (terms, docs, tfs))
    by_term = np.lexsort((docs, terms))
    counts = np.bincount(terms, minlength=len(vocabulary))
    present = np.flatnonzero(counts)
    return _assemble(
        [names[at] for at in used.tolist()],
        (doc_blob, offset[kept], length[kept], doc_words[kept]),
        [vocabulary[at] for at in present.tolist()],
        counts[present],
        docs[by_term],
        tfs[by_term],
    )


def shard_profiles(
    stats: IndexStats, shard_of_row: np.ndarray, num_shards: int
) -> list[CorpusProfile]:
    """Each shard's profile as far as its header metadata reads one — its
    documents, terms, words and each document's distinct words, in row
    order — with ``shard_of_row`` naming each row's shard, from one grouping
    of the rows by shard.  The per-word maps stay empty: a shard's sketch
    and statistics are its build's."""
    entry_doc = stats.entry_doc.astype(np.int64)
    sizes = np.diff(stats.term_starts.astype(np.int64))
    # Each (term, shard) pair once: a shard's terms.
    term = np.repeat(np.arange(len(sizes)), sizes)
    pairs = np.unique(term * num_shards + shard_of_row[entry_doc])
    terms = np.bincount(pairs % num_shards, minlength=num_shards).tolist()
    distinct = np.bincount(entry_doc, minlength=stats.num_documents)
    doc_words = stats.doc_words.astype(np.int64)
    counts = np.bincount(shard_of_row, minlength=num_shards)
    rows = np.split(np.argsort(shard_of_row, kind="stable"), np.cumsum(counts)[:-1])
    return [
        CorpusProfile(
            len(own), terms[shard], int(doc_words[own].sum()), distinct[own].tolist(), {}, {}
        )
        for shard, own in enumerate(rows)
    ]


def encode_stats(stats: IndexStats) -> bytes:
    """Serialize the stats blob (container v3).

    ``magic | u32 version | u32 preamble length | JSON preamble (space-padded
    to 8 bytes) | the sections of`` :data:`SECTIONS` ``| u32 CRC-32 of all
    before it``: fixed-width sections little-endian in the narrowest width
    that holds them, the others as bytes.
    """
    sections = {
        "doc_blob": narrowest(stats.doc_blob),
        "doc_length": narrowest(stats.doc_length),
        "doc_words": narrowest(stats.doc_words),
        "doc_gaps": narrowest(_zigzag(_offset_gaps(stats))),
        **_encode_terms(stats),
    }
    preamble = json.dumps(
        {
            "num_documents": stats.num_documents,
            "total_words": stats.total_words,
            "num_terms": stats.num_terms,
            "blobs": list(stats.blobs),
            "sections": [
                [name, 1, len(section)] if name in _BYTE_SECTIONS
                else [name, section.itemsize, len(section)]
                for name, section in sections.items()
            ],
        },
        separators=(",", ":"),
    ).encode("utf-8")
    preamble += b" " * (-len(preamble) % 8)
    prefix = _STATS_PREFIX.pack(STATS_MAGIC, STATS_CONTAINER_VERSION, len(preamble))
    body = b"".join(
        [
            prefix,
            preamble,
            *(
                section if name in _BYTE_SECTIONS
                else section.astype(f"<u{section.itemsize}", copy=False).tobytes()
                for name, section in sections.items()
            ),
        ]
    )
    return body + _CHECKSUM.pack(zlib.crc32(body))


def _offset_gaps(stats: IndexStats) -> np.ndarray:
    """Each document's offset less the end of the document before it in its
    blob (0 for a blob's first document): negative only where they overlap."""
    offset, length = stats.doc_offset.astype(np.int64), stats.doc_length.astype(np.int64)
    previous_end = np.zeros_like(offset)
    same_blob = stats.doc_blob[1:] == stats.doc_blob[:-1]
    previous_end[1:] = np.where(same_blob, (offset + length)[:-1], 0)
    return offset - previous_end


def _zigzag(values: np.ndarray) -> np.ndarray:
    return (values << 1) ^ (values >> 63)


def _encode_terms(stats: IndexStats) -> dict[str, np.ndarray | bytes]:
    """The vocabulary blocks and entry runs of ``stats``."""
    ends, starts = stats.term_ends.astype(np.int64), stats.term_starts.astype(np.int64)
    lengths, flat = np.diff(ends), stats.term_bytes
    shared = _shared_prefixes(flat, ends)
    runs, run_lengths = _encode_runs(stats.entry_doc.astype(np.int64), stats.entry_tf, starts)
    fields = np.stack([shared, lengths - shared, np.diff(starts), run_lengths], axis=1).ravel()
    widths = varint_widths(fields)
    heads = np.arange(0, len(lengths), TERMS_PER_BLOCK)

    def block_starts(sizes: np.ndarray) -> np.ndarray:
        return narrowest(np.append(0, np.cumsum(sizes, dtype=np.int64))[heads])

    # Each term's bytes past its shared prefix: mark where prefixes start and
    # end (a prefix ends before the next term starts), and keep what no
    # prefix covers.
    marks = np.zeros(len(flat) + 1, np.int8)
    marks[ends[:-1][shared > 0]] = 1
    marks[(ends[:-1] + shared)[shared > 0]] = -1
    in_prefix = np.cumsum(marks[:-1], dtype=np.int8) != 0
    return {
        "block_fields": block_starts(widths.reshape(-1, 4).sum(axis=1, dtype=np.int64)),
        "block_suffixes": block_starts(lengths - shared),
        "block_runs": block_starts(run_lengths),
        "term_fields": encode_varints(fields, widths),
        "term_suffixes": flat[~in_prefix].tobytes(),
        "entry_runs": runs,
    }


def _shared_prefixes(flat: np.ndarray, ends: np.ndarray) -> np.ndarray:
    """How many leading bytes each term shares with the one before it in its
    block (0 for a block's first term), one byte position at a time over the
    pairs still equal."""
    starts, lengths = ends[:-1], np.diff(ends)
    shared = np.zeros(len(lengths), np.int64)
    live = np.arange(len(lengths))
    live = live[live % TERMS_PER_BLOCK != 0]
    position = 0
    while len(live):
        live = live[(lengths[live] > position) & (lengths[live - 1] > position)]
        live = live[flat[starts[live] + position] == flat[starts[live - 1] + position]]
        position += 1
        shared[live] = position
    return shared


def _encode_runs(
    docs: np.ndarray, tfs: np.ndarray, starts: np.ndarray
) -> tuple[bytes, np.ndarray]:
    """Each term's run — its entries' document-row deltas (the first one
    absolute), then a ``(position delta, tf)`` pair for each of its entries
    whose tf is not 1 — back to back, and each run's length in bytes."""
    df = np.diff(starts)
    exceptions = np.flatnonzero(tfs != 1)
    owner = np.searchsorted(starts, exceptions, side="right") - 1
    pairs = np.stack(
        [
            _deltas(exceptions - starts[owner], _group_starts(owner)),
            tfs[exceptions].astype(np.int64),
        ],
        axis=1,
    )
    # Each term's pairs go in after its last entry.
    values = np.insert(
        _deltas(docs, starts[:-1][df > 0]), np.repeat(starts[1:][owner], 2), pairs.ravel()
    )
    per_term = np.bincount(owner, minlength=len(df))
    run_starts = starts[:-1] + 2 * (np.cumsum(per_term) - per_term)
    runs, widths = _chunked_varints(values)
    if not len(df):
        return runs, df
    return runs, np.add.reduceat(widths, run_starts, dtype=np.int64)


def _chunked_varints(values: np.ndarray) -> tuple[bytes, np.ndarray]:
    """``values`` as varints, and each one's width, encoded
    :data:`_ENCODE_CHUNK` at a time to bound the encoder's temporaries."""
    chunks = [values[at : at + _ENCODE_CHUNK] for at in range(0, len(values), _ENCODE_CHUNK)]
    widths = [varint_widths(chunk) for chunk in chunks]
    encoded = b"".join(map(encode_varints, chunks, widths))
    return encoded, np.concatenate(widths) if widths else np.empty(0, np.uint8)


def _deltas(values: np.ndarray, firsts: np.ndarray) -> np.ndarray:
    """``values`` less the one before, except at ``firsts`` (the first of each
    group, by index or mask), which stay as they are.  Inverse of
    :func:`_running`."""
    deltas = np.diff(values, prepend=0)
    deltas[firsts] = values[firsts]
    return deltas


def _running(deltas: np.ndarray, group: np.ndarray) -> np.ndarray:
    """The running sums of ``deltas`` within each (contiguous) ``group``."""
    total = np.cumsum(deltas)
    first = _group_starts(group)
    return total - (total - deltas)[first][np.cumsum(first) - 1]


def _group_starts(group: np.ndarray) -> np.ndarray:
    first = np.ones(len(group), bool)
    first[1:] = group[1:] != group[:-1]
    return first


def decode_stats(data: bytes | None, index_name: str = "index") -> IndexStats:
    """Inverse of :func:`encode_stats`: checks the trailer and decodes the
    documents; the terms' side is decoded as it is asked for.

    Raises :class:`~repro.index.store_layout.UnsupportedIndexFormatError`
    naming the blob when it is missing (``data`` is ``None``) or in a format
    this reader does not know — a v1 JSON blob, a v2 container, or an
    intact blob of another container version — and
    :class:`~repro.index.store_layout.CorruptIndexError` naming the blob for
    anything else that is not a well-formed stats blob: malformed,
    truncated, failing its checksum, or pointing outside its own sections.
    """
    blob = stats_blob_name(index_name)
    if data is None:
        raise UnsupportedIndexFormatError(blob, "nothing (the blob is missing)", _READ_FORMAT)
    end = len(data) - _CHECKSUM.size
    if (
        end >= _STATS_PREFIX.size
        and data.startswith(STATS_MAGIC)
        and _CHECKSUM.unpack_from(data, end)[0] == zlib.crc32(memoryview(data)[:end])
    ):
        version = _STATS_PREFIX.unpack_from(data)[1]
        if version != STATS_CONTAINER_VERSION:
            raise UnsupportedIndexFormatError(blob, f"stats container v{version}", _READ_FORMAT)
        try:
            return _decode_v3_stats(data, end, blob)
        except (ValueError, KeyError, TypeError, IndexError, OverflowError) as error:
            raise CorruptIndexError(blob, error) from error
    for signature, found in _RETIRED_STATS.items():
        if data.startswith(signature):
            raise UnsupportedIndexFormatError(blob, found, _READ_FORMAT)
    raise CorruptIndexError(blob, "not a stats blob, or one that fails its checksum")


def _decode_v3_stats(data: bytes, end: int, blob: str) -> IndexStats:
    position = _STATS_PREFIX.size + _STATS_PREFIX.unpack_from(data)[2]
    fields = json.loads(data[_STATS_PREFIX.size : position])
    shapes = [(name, width, rows) for name, width, rows in fields["sections"]]
    if [name for name, _, _ in shapes] != list(SECTIONS) or not all(
        width in ((1,) if name in _BYTE_SECTIONS else (1, 2, 4, 8))
        and isinstance(rows, int)
        and rows >= 0
        for name, width, rows in shapes
    ):
        raise ValueError("bad stats section description")
    if position + sum(width * rows for _, width, rows in shapes) != end:
        raise ValueError("stats blob length does not match its sections")
    sections: dict[str, np.ndarray | bytes] = {}
    # Every section is a view of the blob: nothing in it is held twice.
    for name, width, rows in shapes:
        if name in _BYTE_SECTIONS:
            sections[name] = memoryview(data)[position : position + rows]
        else:
            column = np.frombuffer(data, f"<u{width}", rows, position)
            sections[name] = column.astype(column.dtype.newbyteorder("="), copy=False)
        position += width * rows
    num_documents, num_terms = fields["num_documents"], fields["num_terms"]
    if not isinstance(num_terms, int) or num_terms < 0:
        raise ValueError("bad term count")
    doc_blob, doc_length = sections["doc_blob"], sections["doc_length"]
    offsets = _decode_offsets(sections["doc_gaps"], doc_blob, doc_length)
    return IndexStats(
        num_documents,
        fields["total_words"],
        fields["blobs"],
        _EncodedTerms(blob, num_documents, num_terms, sections),
        doc_blob=doc_blob,
        doc_offset=narrowest(offsets),
        doc_length=doc_length,
        doc_words=sections["doc_words"],
    )


def _decode_offsets(
    gaps: np.ndarray, doc_blob: np.ndarray, doc_length: np.ndarray
) -> np.ndarray:
    """The document offsets :func:`_offset_gaps` gapped."""
    if len(gaps) != len(doc_blob):
        raise ValueError("offset gaps disagree with the documents")
    zigzag = gaps.astype(np.int64)
    steps = (zigzag >> 1) ^ -(zigzag & 1)
    steps[1:] += np.where(doc_blob[1:] == doc_blob[:-1], doc_length[:-1].astype(np.int64), 0)
    offsets = _running(steps, doc_blob)
    if len(offsets) and int(offsets.min()) < 0:
        raise ValueError("a document offset below 0")
    return offsets


def _varints(data: bytes, expected: int | None) -> np.ndarray:
    """The varints filling ``data`` (exactly ``expected`` of them, if given)."""
    values = decode_varints(data)
    if (data and data[-1] & 0x80) or expected not in (None, len(values)):
        raise ValueError("varints disagree with their count")
    return values


class _EncodedTerms:
    """The term side of a decoded stats blob: a term's vocabulary block and
    entry run are decoded each time it is looked up, the whole columns only
    on request.  Failures are :class:`~repro.index.store_layout.CorruptIndexError`
    naming ``blob``."""

    def __init__(
        self, blob: str, num_documents: int, num_terms: int, sections: dict
    ) -> None:
        self.blob, self.num_documents, self.num_terms = blob, num_documents, num_terms
        self._fields = sections["term_fields"]
        self._suffixes = sections["term_suffixes"]
        self._runs = sections["entry_runs"]
        blocks = [sections[name] for name in ("block_fields", "block_suffixes", "block_runs")]
        if {len(column) for column in blocks} != {-(-num_terms // TERMS_PER_BLOCK)}:
            raise ValueError("vocabulary blocks disagree with the term count")
        self._blocks = blocks

    def entries(self, key: bytes) -> tuple[np.ndarray, np.ndarray]:
        """``(document rows ascending, tfs)`` of the term ``key``."""
        try:
            return self._decode_run(key)
        except (ValueError, IndexError) as error:
            raise CorruptIndexError(self.blob, error) from error

    @cached_property
    def _heads(self) -> list[bytes]:
        """Each block's first term, for a lookup to bisect."""
        fields, suffixes, heads = self._fields, self._suffixes, []
        for at, start in zip(self._blocks[0].tolist(), self._blocks[1].tolist()):
            # Past the head's shared length, a one-byte 0: its length, one
            # byte too unless the term is long.
            size = fields[at + 1] if fields[at + 1] < 0x80 else decode_varint(fields, at + 1)[0]
            heads.append(bytes(suffixes[start : start + size]))
        return heads

    def _lookup(self, key: bytes) -> tuple[int, int, int]:
        """``(df, run start, run end)`` of the term ``key`` (all 0 when absent)."""
        block = bisect_right(self._heads, key) - 1
        if block < 0:
            return 0, 0, 0
        at, suffix, run = (int(column[block]) for column in self._blocks)
        terms = min(TERMS_PER_BLOCK, self.num_terms - block * TERMS_PER_BLOCK)
        term = b""
        for _ in range(terms):
            fields = []
            for _ in range(4):
                value, at = decode_varint(self._fields, at)
                fields.append(value)
            shared, size, df, length = fields
            if shared > len(term):
                raise ValueError("a term shares more than the term before it")
            term = term[:shared] + self._suffixes[suffix : suffix + size]
            if term >= key:
                if term != key:
                    break
                if run + length > len(self._runs):
                    raise ValueError(f"the entry run of {key!r} ends past the blob")
                return df, run, run + length
            suffix += size
            run += length
        return 0, 0, 0

    def _decode_run(self, key: bytes) -> tuple[np.ndarray, np.ndarray]:
        """One term's run: its ``df`` row deltas (the first absolute), then a
        ``(position delta, tf)`` pair per entry whose tf is not 1.  Decoded
        alone, as grouping it like :meth:`_columns` would costs several
        times a run's own decoding.  Every step after a first is at least 1
        (so a sum that wraps shows as a row below 0), and every exception's
        tf at least 2."""
        df, start, end = self._lookup(key)
        if not df:
            return np.empty(0, np.int64), np.empty(0, np.int64)
        values = _varints(self._runs[start:end], None)
        if len(values) < df or (len(values) - df) % 2:
            raise ValueError(f"the entry run of {key!r} disagrees with its df")
        docs, at, exceptions = np.cumsum(values[:df]), np.cumsum(values[df::2]), values[df + 1 :: 2]
        if not (
            _within(docs, self.num_documents)
            and _within(at, df)
            and values[1:df].all()
            and values[df + 2 :: 2].all()
            and (exceptions >= 2).all()
        ):
            raise ValueError(f"the entry run of {key!r} points outside its term")
        tfs = np.ones(df, np.int64)
        tfs[at] = exceptions
        return docs, tfs

    def columns(self) -> tuple[np.ndarray, ...]:
        """Every term-side column of :data:`TERM_COLUMNS`, decoded at once."""
        try:
            return self._columns()
        except (ValueError, IndexError) as error:
            raise CorruptIndexError(self.blob, error) from error

    def _columns(self) -> tuple[np.ndarray, ...]:
        num_terms = self.num_terms
        shared, size, df, run = _varints(self._fields, 4 * num_terms).reshape(-1, 4).T
        full = shared + size
        if (
            shared[::TERMS_PER_BLOCK].any()
            or (shared[1:] > full[:-1]).any()
            or int(size.max(initial=0)) > len(self._suffixes)
            or int(run.max(initial=0)) > len(self._runs)
            or int(size.sum()) != len(self._suffixes)
            or int(run.sum()) != len(self._runs)
            or (num_terms and min(int(df.min()), int(run.min())) < 1)
        ):
            raise ValueError("vocabulary fields point outside the blob")
        # Term bytes: a byte inside a term's shared prefix is the previous
        # term's byte there, and so on back (fewer than TERMS_PER_BLOCK
        # steps, so a few pointer doublings) to a term holding it in its suffix.
        ends = np.append(0, np.cumsum(full))
        owner = np.repeat(np.arange(num_terms), full)
        position = np.arange(ends[-1]) - ends[owner]
        inherited = position < shared[owner]
        source = np.arange(ends[-1])
        source[inherited] = ends[owner[inherited] - 1] + position[inherited]
        for _ in range(TERMS_PER_BLOCK.bit_length()):
            source = source[source]
        term_bytes = np.empty(ends[-1], np.uint8)
        term_bytes[~inherited] = np.frombuffer(self._suffixes, np.uint8)
        term_bytes = term_bytes[source]
        # Entries: per run, df document-row deltas, then (position delta, tf)
        # pairs; as in _decode_run, every step after a first is at least 1
        # (so a sum that wraps shows as a row below 0).
        raw = np.frombuffer(self._runs, np.uint8)
        values = decode_varints(self._runs)
        run_ends = np.cumsum(run)
        counts = np.diff(np.append(0, np.cumsum(raw < 0x80)[run_ends - 1]))
        if (raw[run_ends - 1] >= 0x80).any() or (counts < df).any() or ((counts - df) % 2).any():
            raise ValueError("entry runs disagree with their dfs")
        value_term = np.repeat(np.arange(num_terms), counts)
        local = np.arange(len(values)) - np.repeat(np.cumsum(counts) - counts, counts)
        is_entry = local < df[value_term]
        entry_term, deltas = value_term[is_entry], values[is_entry]
        pairs, owner = values[~is_entry].reshape(-1, 2), value_term[~is_entry][0::2]
        starts = np.append(0, np.cumsum(df))
        docs, at = _running(deltas, entry_term), _running(pairs[:, 0], owner)
        if (
            not deltas[~_group_starts(entry_term)].all()
            or not pairs[~_group_starts(owner), 0].all()
            or not _within(docs, self.num_documents)
            or ((at < 0) | (at >= df[owner])).any()
            or (pairs[:, 1] < 2).any()
        ):
            raise ValueError("entry runs point outside their terms")
        tfs = np.ones(len(docs), np.int64)
        tfs[starts[owner] + at] = pairs[:, 1]
        return term_bytes, narrowest(ends), narrowest(starts), narrowest(docs), narrowest(tfs)


def _within(column: np.ndarray, limit: int) -> bool:
    """Whether every value of ``column`` is in ``[0, limit)``."""
    return not len(column) or (int(column.min()) >= 0 and int(column.max()) < limit)


def idf(num_documents: int, doc_frequency: int) -> float:
    """The BM25 inverse document frequency (Robertson-Spärck Jones form).

    ``ln(1 + (N - df + 0.5) / (df + 0.5))`` — strictly positive, so scores
    stay monotone in term frequency and normalize cleanly into [0, 1].
    """
    return math.log1p(
        (num_documents - doc_frequency + 0.5) / (doc_frequency + 0.5)
    )


__all__ = [
    "COLUMNS",
    "STATS_BLOB_SUFFIX",
    "STATS_CONTAINER_VERSION",
    "STATS_MAGIC",
    "IndexStats",
    "build_stats",
    "decode_stats",
    "encode_stats",
    "frequencies_at",
    "idf",
    "stats_blob_name",
]
