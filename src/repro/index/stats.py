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

The Builder persists them as one versioned *stats blob*
(``{index}/stats.json``) written alongside the header and superpost blobs.
Like the header it is JSON — debuggable with standard tooling, a few MB at
the corpus scales the paper studies — and it is downloaded **once**, lazily,
on a searcher's first ranked query; every later ranked query scores from
memory.  Indexes built before this blob existed (any v1/v2 index without a
``stats.json``) stay fully readable for membership queries and reject the
ranked mode with the typed :class:`RankingUnsupportedError` instead of
failing obscurely.
"""

from __future__ import annotations

import json
import math
from collections import Counter
from dataclasses import dataclass, field
from typing import Container, Iterable, Sequence

from repro.index.store_layout import STATS_BLOB_SUFFIX, stats_blob_name
from repro.parsing.documents import Document, Posting
from repro.parsing.tokenizer import Tokenizer

#: Current (and only) stats blob format.
STATS_FORMAT_V1 = 1
SUPPORTED_STATS_VERSIONS = (STATS_FORMAT_V1,)

#: Magic marker guarding against accidental blob mixups.
_STATS_MAGIC = "airphant-stats"


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


@dataclass
class IndexStats:
    """Exact ranking statistics of one index (or index member).

    ``doc_lengths`` maps every indexed document to its length in analyzer
    tokens; ``term_frequencies`` maps each distinct term to its exact
    ``{posting: tf}`` postings.  Document frequency is derived
    (``len(term_frequencies[term])``), so it can never drift out of sync
    with the postings that define it.
    """

    num_documents: int = 0
    total_words: int = 0
    doc_lengths: dict[Posting, int] = field(default_factory=dict)
    term_frequencies: dict[str, dict[Posting, int]] = field(default_factory=dict)

    @property
    def average_length(self) -> float:
        """Mean document length in tokens (0.0 for an empty corpus)."""
        if self.num_documents == 0:
            return 0.0
        return self.total_words / self.num_documents

    def doc_frequency(self, term: str) -> int:
        """Number of documents containing ``term``."""
        return len(self.term_frequencies.get(term, ()))

    def term_frequency(self, term: str, posting: Posting) -> int:
        """Exact occurrences of ``term`` in the document at ``posting``."""
        postings = self.term_frequencies.get(term)
        if not postings:
            return 0
        return postings.get(posting, 0)


def build_stats(documents: Iterable[Document], tokenizer: Tokenizer) -> IndexStats:
    """Compute exact ranking statistics over already-parsed documents.

    Uses the same analyzer as the sketch build, so a term's stats postings
    agree exactly with its membership answer.
    """
    stats = IndexStats()
    for document in documents:
        tokens = tokenizer.tokenize(document.text)
        if document.ref in stats.doc_lengths:
            continue
        stats.doc_lengths[document.ref] = len(tokens)
        stats.total_words += len(tokens)
        for term, count in Counter(tokens).items():
            stats.term_frequencies.setdefault(term, {})[document.ref] = count
    stats.num_documents = len(stats.doc_lengths)
    return stats


def merge_stats(parts: Iterable[IndexStats]) -> IndexStats:
    """Aggregate per-member stats into corpus-wide stats.

    Members may transiently overlap (a document visible in both a fresh
    delta and the memtable mid-flush); merging keys everything by posting,
    so each document counts exactly once regardless.
    """
    merged = IndexStats()
    for part in parts:
        merged.doc_lengths.update(part.doc_lengths)
        for term, postings in part.term_frequencies.items():
            merged.term_frequencies.setdefault(term, {}).update(postings)
    merged.num_documents = len(merged.doc_lengths)
    merged.total_words = sum(merged.doc_lengths.values())
    return merged


def prune_stats(stats: IndexStats, removed: "Container[Posting]") -> IndexStats:
    """Stats with every posting in ``removed`` excised (the delete path).

    Ranking under pending deletes must score with the *surviving* corpus —
    ``N``, ``df``, ``avgdl`` all shrink — or BM25 would diverge from a fresh
    rebuild over the surviving documents.  Pruning is exact integer surgery
    on the aggregates, so the result is byte-identical to recomputing the
    stats from scratch without the condemned documents.  Returns ``stats``
    unchanged (same object) when nothing held is being removed.
    """
    doc_lengths = {
        posting: length
        for posting, length in stats.doc_lengths.items()
        if posting not in removed
    }
    if len(doc_lengths) == len(stats.doc_lengths):
        return stats
    term_frequencies: dict[str, dict[Posting, int]] = {}
    for term, postings in stats.term_frequencies.items():
        kept = {
            posting: tf for posting, tf in postings.items() if posting not in removed
        }
        if kept:
            term_frequencies[term] = kept
    return IndexStats(
        num_documents=len(doc_lengths),
        total_words=sum(doc_lengths.values()),
        doc_lengths=doc_lengths,
        term_frequencies=term_frequencies,
    )


def encode_stats(stats: IndexStats) -> bytes:
    """Serialize the stats blob (versioned JSON, blob names interned).

    Layout (v1): a ``blobs`` string table; ``docs`` as
    ``[blob_idx, offset, length, doc_len]`` rows (row index = document id
    within the blob); ``terms`` mapping each term to ``[doc_id, tf]`` pairs.
    """
    blob_ids: dict[str, int] = {}
    doc_ids: dict[Posting, int] = {}
    docs: list[list[int]] = []
    for posting in sorted(stats.doc_lengths):
        blob_id = blob_ids.setdefault(posting.blob, len(blob_ids))
        doc_ids[posting] = len(docs)
        docs.append(
            [blob_id, posting.offset, posting.length, stats.doc_lengths[posting]]
        )
    terms = {
        term: sorted(
            [doc_ids[posting], tf] for posting, tf in postings.items()
        )
        for term, postings in sorted(stats.term_frequencies.items())
    }
    payload = {
        "magic": _STATS_MAGIC,
        "version": STATS_FORMAT_V1,
        "num_documents": stats.num_documents,
        "total_words": stats.total_words,
        "blobs": [blob for blob, _ in sorted(blob_ids.items(), key=lambda kv: kv[1])],
        "docs": docs,
        "terms": terms,
    }
    return json.dumps(payload, separators=(",", ":")).encode("utf-8")


def decode_stats(data: bytes, index_name: str = "index") -> IndexStats:
    """Inverse of :func:`encode_stats`.

    Raises ``ValueError`` when the blob is not a stats blob at all, and the
    typed :class:`RankingUnsupportedError` when it declares a format version
    this reader does not know (the forward-compatibility contract of every
    other versioned blob in the index).
    """
    payload = json.loads(data.decode("utf-8"))
    if payload.get("magic") != _STATS_MAGIC:
        raise ValueError("not an Airphant stats blob")
    version = payload.get("version")
    if version not in SUPPORTED_STATS_VERSIONS:
        raise RankingUnsupportedError(
            index_name, f"unknown stats blob version {version!r}"
        )
    blobs: Sequence[str] = payload["blobs"]
    postings: list[Posting] = []
    doc_lengths: dict[Posting, int] = {}
    for blob_id, offset, length, doc_len in payload["docs"]:
        posting = Posting(blob=blobs[blob_id], offset=offset, length=length)
        postings.append(posting)
        doc_lengths[posting] = doc_len
    term_frequencies = {
        term: {postings[doc_id]: tf for doc_id, tf in pairs}
        for term, pairs in payload["terms"].items()
    }
    return IndexStats(
        num_documents=int(payload["num_documents"]),
        total_words=int(payload["total_words"]),
        doc_lengths=doc_lengths,
        term_frequencies=term_frequencies,
    )


def idf(num_documents: int, doc_frequency: int) -> float:
    """The BM25 inverse document frequency (Robertson-Spärck Jones form).

    ``ln(1 + (N - df + 0.5) / (df + 0.5))`` — strictly positive, so scores
    stay monotone in term frequency and normalize cleanly into [0, 1].
    """
    return math.log1p(
        (num_documents - doc_frequency + 0.5) / (doc_frequency + 0.5)
    )


__all__ = [
    "STATS_BLOB_SUFFIX",
    "STATS_FORMAT_V1",
    "SUPPORTED_STATS_VERSIONS",
    "IndexStats",
    "RankingUnsupportedError",
    "build_stats",
    "decode_stats",
    "encode_stats",
    "idf",
    "merge_stats",
    "prune_stats",
    "stats_blob_name",
]
