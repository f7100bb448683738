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
the header and superpost blobs.  Container v2 follows the header container
(byte layout in ``docs/RANKING.md``): magic, container version and a JSON
preamble, then little-endian columns, each in the narrowest unsigned dtype
that holds it — the documents in ``(blob, offset, length)`` order with their
lengths, the sorted terms with CSR starts, and per term its entries (document
index ascending, tf).  A searcher reads the blob in the lookup wave of its
first ranked query and keeps the columns; scoring
(:mod:`repro.search.ranking`) touches only the query words' entries and the
candidates' rows.  The v1 JSON blobs of earlier builds (leading ``{``) decode
into the same columns; the builder writes only v2, so the next compaction
upgrades them.  Indexes without a stats blob stay fully readable for
membership queries and reject the ranked mode with the typed
:class:`RankingUnsupportedError`.
"""

from __future__ import annotations

import json
import math
import struct
from array import array
from bisect import bisect_left
from collections import defaultdict
from itertools import chain, count
from typing import AbstractSet, Iterable, Sequence

import numpy as np

from repro.core.superpost import POSTING_ORDER, Superpost
from repro.index.store_layout import STATS_BLOB_SUFFIX, stats_blob_name
from repro.parsing.documents import Document, Posting
from repro.parsing.tokenizer import Tokenizer
from repro.profiling.profiler import CorpusProfile

#: Leading bytes of a v2 stats blob; a v1 (JSON) blob starts with ``{``.
STATS_MAGIC = b"AIRPSTA\n"
#: Version of the stats container the builder writes.
STATS_CONTAINER_VERSION = 2
#: Magic, then container version and preamble length as little-endian u32.
_STATS_PREFIX = struct.Struct("<8sII")
#: Magic marker and version inside v1 JSON blobs.
_LEGACY_STATS_MAGIC = "airphant-stats"
_LEGACY_STATS_VERSION = 1

#: The columns of container v2, in blob order.
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


class RankingUnsupportedError(Exception):
    """The index cannot answer ranked queries (typed, maps to HTTP 400).

    Raised when an index has no stats blob (it predates ranked retrieval)
    or its stats blob declares an unknown format version.  Membership
    queries against the same index keep working; rebuilding the index
    writes current stats and enables ``mode="topk_bm25"``.
    """

    def __init__(self, index_name: str, reason: str) -> None:
        super().__init__(
            f"index {index_name!r} does not support ranked retrieval: {reason}; "
            "rebuild the index to generate ranking statistics"
        )
        self.index_name = index_name
        self.reason = reason


class IndexStats:
    """Exact ranking statistics of one build (or memtable), as columns.

    The columns of :data:`COLUMNS` are attributes.  Document ``i`` is
    ``docs[i]`` — a sorted :class:`~repro.core.superpost.Superpost` over the
    ``doc_*`` columns — and is ``doc_words[i]`` tokens long; :meth:`entries`
    are a term's ``(document index, tf)`` columns.  Nothing here is ever
    merged or copied per query: a query reads the rows of its candidates and
    the entries of its words.  Construction refuses columns that disagree
    with each other or point outside one another (``ValueError``).
    """

    def __init__(
        self, num_documents: int, total_words: int, blobs: Sequence[str], **columns: np.ndarray
    ) -> None:
        self.num_documents = num_documents
        self.total_words = total_words
        self.blobs = tuple(blobs)
        for name in COLUMNS:
            setattr(self, name, columns[name])
        self._check()
        self.docs = Superpost.from_columns(
            self.blobs, *(columns[name].astype(np.int64) for name in COLUMNS[:3])
        )
        self._terms = self.term_bytes.tobytes()

    def _check(self) -> None:
        ends, starts, entries = self.term_ends, self.term_starts, self.entry_doc
        consistent = (
            list(self.blobs) == sorted(set(self.blobs))
            and {len(getattr(self, name)) for name in COLUMNS[:4]} == {self.num_documents}
            and self.total_words == int(self.doc_words.sum(dtype=np.uint64))
            and len(ends) == len(starts) >= 1
            and len(entries) == len(self.entry_tf)
        )
        bounded = consistent and (
            _below(self.doc_blob, len(self.blobs))
            and _below(entries, self.num_documents)
            and ends[0] == starts[0] == 0
            and ends[-1] == len(self.term_bytes)
            and starts[-1] == len(entries)
            and bool((np.diff(ends) >= 0).all() and (np.diff(starts) >= 0).all())
        )
        if not bounded:
            raise ValueError("ranking statistics columns disagree or point outside each other")

    @property
    def num_terms(self) -> int:
        return len(self.term_ends) - 1

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
        """The corpus profile Algorithm 1 reads, straight from the columns:
        a document's distinct words are its entries, a word's document
        frequency its entry count, its occurrences the sum of its tfs."""
        words = self.words()
        starts = self.term_starts.astype(np.int64)
        totals = np.append(0, np.cumsum(self.entry_tf, dtype=np.int64))
        distinct = np.bincount(self.entry_doc.astype(np.int64), minlength=self.num_documents)
        return CorpusProfile(
            num_documents=self.num_documents,
            num_terms=self.num_terms,
            num_words=self.total_words,
            distinct_words_per_document=distinct.tolist(),
            document_frequencies=dict(zip(words, np.diff(starts).tolist())),
            word_counts=dict(zip(words, (totals[starts[1:]] - totals[starts[:-1]]).tolist())),
        )

    def entries(self, term: str) -> tuple[np.ndarray, np.ndarray]:
        """``(document indexes ascending, tfs)`` of ``term`` (empty when absent)."""
        wanted = _term_key(term)
        at = bisect_left(range(self.num_terms), wanted, key=self.term)
        if at == self.num_terms or self.term(at) != wanted:
            return self.entry_doc[:0], self.entry_tf[:0]
        span = slice(self.term_starts[at], self.term_starts[at + 1])
        return self.entry_doc[span], self.entry_tf[span]

    def frequencies(self, term: str, rows: np.ndarray) -> np.ndarray:
        """The tf of ``term`` in each document of ``rows`` (0 where absent)."""
        docs, tfs = self.entries(term)
        if not len(docs):
            return np.zeros(len(rows), np.int64)
        at = np.minimum(np.searchsorted(docs, rows), len(docs) - 1)
        return np.where(docs[at] == rows, tfs[at], 0)


def _term_key(term: str) -> bytes:
    """A term's sort key and stored form (lone surrogates survive)."""
    return term.encode("utf-8", "surrogatepass")


def _narrowest(values: Iterable[int] | np.ndarray) -> np.ndarray:
    """``values`` in the narrowest unsigned dtype that holds them."""
    if isinstance(values, np.ndarray):
        array = values.astype(np.uint64)
    else:
        array = np.fromiter(values, np.uint64)
    top = int(array.max(initial=0))
    for dtype in (np.uint8, np.uint16, np.uint32):
        if top <= np.iinfo(dtype).max:
            return array.astype(dtype)
    return array


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
    doc_words = _narrowest(np.asarray(doc_columns[3], np.uint64))
    return IndexStats(
        len(doc_words),
        int(doc_words.sum(dtype=np.uint64)),
        blobs,
        **dict(zip(COLUMNS[:3], (_narrowest(np.asarray(c, np.uint64)) for c in doc_columns))),
        doc_words=doc_words,
        term_bytes=np.frombuffer(b"".join(terms), np.uint8),
        term_ends=_narrowest(np.cumsum([0, *map(len, terms)])),
        term_starts=_narrowest(np.cumsum(np.append(0, term_sizes).astype(np.int64))),
        entry_doc=_narrowest(entry_doc),
        entry_tf=_narrowest(entry_tf),
    )


def build_stats(documents: Iterable[Document], tokenizer: Tokenizer) -> IndexStats:
    """Compute exact ranking statistics over already-parsed documents.

    The one place the build side analyses text: every document is tokenized
    once, and the sketch, its profile and its layout all derive from these
    columns.  A reference seen twice counts once (its first text).
    """
    unique: dict[Posting, Document] = {}
    for document in documents:
        unique.setdefault(document.ref, document)
    ordered = sorted(unique, key=POSTING_ORDER)
    blobs = sorted({ref.blob for ref in ordered})
    rank = {blob: index for index, blob in enumerate(blobs)}
    doc_words: list[int] = []
    # Each token as the number of its word in order of first appearance.
    numbers: defaultdict[str, int] = defaultdict(count().__next__)
    tokens = array("q")
    for ref in ordered:
        analysed = tokenizer.tokenize(unique[ref].text)
        doc_words.append(len(analysed))
        tokens.extend(map(numbers.__getitem__, analysed))
    # Code-point order is UTF-8 byte order: the sorted words are the sorted terms.
    words = sorted(numbers)
    term_of = np.empty(len(words), np.int64)  # word number -> term index
    term_of[[numbers[word] for word in words]] = np.arange(len(words))
    width = max(len(ordered), 1)
    keys = term_of[np.frombuffer(tokens, np.int64)] * width
    keys += np.repeat(np.arange(len(ordered)), doc_words)
    # One entry per distinct (term, document), counted: sorted by term, then document.
    entries, tfs = np.unique(keys, return_counts=True)
    doc_columns = (
        [rank[ref.blob] for ref in ordered],
        [ref.offset for ref in ordered],
        [ref.length for ref in ordered],
        doc_words,
    )
    sizes = np.bincount(entries // width, minlength=len(words))
    return _assemble(blobs, doc_columns, [*map(_term_key, words)], sizes, entries % width, tfs)


def union_stats(
    members: Sequence[IndexStats],
    exclude: AbstractSet[Posting] = frozenset(),
    keep: np.ndarray | None = None,
) -> IndexStats:
    """One set of statistics over the documents of ``members`` minus ``exclude``.

    Column for column what :func:`build_stats` gives over the surviving
    documents: a document several members hold counts once, with the length
    and entries of the first member (in the order given) that holds it;
    excluded documents, and terms left without an entry, are dropped; rows
    are renumbered in ``(blob, offset, length)`` order.  ``keep`` — a mask
    over those renumbered rows — narrows the result further: how a merged
    corpus is split into shards.  No text is read or analysed.
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
    if keep is not None:
        kept = kept[keep]
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


def encode_stats(stats: IndexStats) -> bytes:
    """Serialize the stats blob (container v2).

    ``magic | u32 version | u32 preamble length | JSON preamble (space-padded
    to 8 bytes) | the columns of`` :data:`COLUMNS`, each little-endian in
    the width the preamble names.
    """
    columns = [getattr(stats, name) for name in COLUMNS]
    preamble = json.dumps(
        {
            "num_documents": stats.num_documents,
            "total_words": stats.total_words,
            "blobs": list(stats.blobs),
            "columns": [
                [name, column.itemsize, len(column)] for name, column in zip(COLUMNS, columns)
            ],
        },
        separators=(",", ":"),
    ).encode("utf-8")
    preamble += b" " * (-len(preamble) % 8)
    prefix = _STATS_PREFIX.pack(STATS_MAGIC, STATS_CONTAINER_VERSION, len(preamble))
    return b"".join(
        [prefix, preamble, *(c.astype(f"<u{c.itemsize}", copy=False).tobytes() for c in columns)]
    )


def decode_stats(data: bytes, index_name: str = "index") -> IndexStats:
    """Inverse of :func:`encode_stats`; also reads v1 JSON blobs.

    Raises ``ValueError`` for anything that is not a well-formed stats blob —
    malformed, truncated, or pointing outside its own columns — and the
    typed :class:`RankingUnsupportedError` when it declares a container
    version this reader does not know.
    """
    try:
        if data[:1] == b"{":
            return _decode_legacy_stats(data, index_name)
        return _decode_v2_stats(data, index_name)
    except (KeyError, TypeError, IndexError, OverflowError, struct.error) as error:
        raise ValueError(f"malformed Airphant stats blob: {error!r}") from error


def _decode_v2_stats(data: bytes, index_name: str) -> IndexStats:
    magic, version, preamble_bytes = _STATS_PREFIX.unpack_from(data)
    if magic != STATS_MAGIC:
        raise ValueError("not an Airphant stats blob")
    if version != STATS_CONTAINER_VERSION:
        raise RankingUnsupportedError(index_name, f"unknown stats blob version {version!r}")
    position = _STATS_PREFIX.size + preamble_bytes
    if position > len(data):
        raise ValueError("stats blob truncated inside its preamble")
    fields = json.loads(data[_STATS_PREFIX.size : position])
    shapes = [(name, width, rows) for name, width, rows in fields["columns"]]
    if [name for name, _, _ in shapes] != list(COLUMNS) or not all(
        width in (1, 2, 4, 8) and isinstance(rows, int) and rows >= 0 for _, width, rows in shapes
    ):
        raise ValueError("bad stats column description")
    if position + sum(width * rows for _, width, rows in shapes) != len(data):
        raise ValueError("stats blob length does not match its columns")
    columns = {}
    for name, width, rows in shapes:
        column = np.frombuffer(data, f"<u{width}", rows, position)
        columns[name] = column.astype(column.dtype.newbyteorder("="), copy=False)
        position += width * rows
    return IndexStats(fields["num_documents"], fields["total_words"], fields["blobs"], **columns)


def _below(column: np.ndarray, limit: int) -> bool:
    return not len(column) or int(column.max()) < limit


def _decode_legacy_stats(data: bytes, index_name: str) -> IndexStats:
    """Read a v1 JSON blob: its writer interned blob names in sorted order,
    wrote the documents in posting order and each term's pairs by document."""
    payload = json.loads(data.decode("utf-8"))
    if payload.get("magic") != _LEGACY_STATS_MAGIC:
        raise ValueError("not an Airphant stats blob")
    version = payload.get("version")
    if version != _LEGACY_STATS_VERSION:
        raise RankingUnsupportedError(index_name, f"unknown stats blob version {version!r}")
    rows = np.array(payload["docs"], np.uint64).reshape(-1, 4)
    terms = sorted((_term_key(term), pairs) for term, pairs in payload["terms"].items())
    pairs = np.array([pair for _, pairs in terms for pair in pairs], np.uint64).reshape(-1, 2)
    sizes = [len(pairs) for _, pairs in terms]
    return _assemble(payload["blobs"], rows.T, [term for term, _ in terms], sizes, *pairs.T)


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
    "RankingUnsupportedError",
    "build_stats",
    "decode_stats",
    "encode_stats",
    "idf",
    "stats_blob_name",
]
