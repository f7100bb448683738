"""BM25 top-k ranked retrieval over Airphant indexes.

``mode="topk_bm25"`` keeps the membership machinery intact and layers
scoring on top of it:

1. **candidates** come from the superposts exactly like a keyword query
   (every member's per-word layer intersections, unioned across shards) — a
   slight superset of the true matches;
2. **scores** come from the persisted :mod:`~repro.index.stats` columns:
   ``score(d) = Σ_t w_t · idf(t) · tf(t,d)·(k1+1) / (tf(t,d) + k1·(1 − b +
   b·|d|/avgdl))`` with the classic ``k1 = 1.2``, ``b = 0.75`` defaults and
   optional per-term field weights ``w_t``.  Because the stats are exact, a
   candidate with ``tf = 0`` for any query term is provably a false positive
   (or a partial match) and is dropped *without fetching its text* — ranked
   queries retrieve document bytes only for the final top-k;
3. **normalization** divides by the query's supremum score
   ``Σ_t w_t · idf(t) · (k1+1)`` (the tf saturation term is strictly below
   ``k1+1``), so every score lands in ``[0, 1)`` and scores are comparable
   across queries;
4. **merging** is deterministic: ties break on the posting's
   ``(blob, offset, length)`` order, so repeated runs, rebuilt indexes,
   sharded builds, and routed clusters all produce the identical ranked
   list.

Cross-tier identity hinges on one invariant: *every* execution scores with
the same corpus-wide statistics.  :func:`rank_candidates` sums ``N``, the
total length and each query word's ``df`` over every member's statistics
(one :class:`~repro.index.stats.IndexStats` per build, however it is
sharded), counting a document once — by the first member holding it, so a
document transiently visible in two members mid-flush counts once — and not
at all when it is condemned.  Nothing is
merged or copied per query: a query reads its words' entries and its
candidates' rows.

This module is the BM25 maths only.  The query itself — both read waves,
over every member at once — is run by
:meth:`AirphantSearcher.search_topk <repro.search.searcher.AirphantSearcher.search_topk>`.
"""

from __future__ import annotations

import math
from collections.abc import Set as AbstractSet
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from repro.core.superpost import EMPTY, Superpost
from repro.index.stats import IndexStats, frequencies_at, idf
from repro.parsing.documents import Posting

#: Default ranked result count when neither the request nor the service
#: config pins one (the "bounded k" contract: ranked queries never return
#: the whole candidate set).
DEFAULT_RANKED_K = 10

#: Hard ceiling on ranked k — scoring is in-memory, but document retrieval
#: for the final list is not, and an unbounded k defeats the mode's point.
MAX_RANKED_K = 10_000

#: A word's ``(document rows, tfs)`` in one member's statistics.
Entries = tuple[np.ndarray, np.ndarray]


@dataclass(frozen=True)
class BM25Params:
    """The two BM25 free parameters (paper-classic defaults)."""

    k1: float = 1.2
    b: float = 0.75

    def __post_init__(self) -> None:
        if self.k1 < 0:
            raise ValueError(f"k1 must be non-negative, got {self.k1}")
        if not 0.0 <= self.b <= 1.0:
            raise ValueError(f"b must be within [0, 1], got {self.b}")


def normalize_weights(
    words: Sequence[str], weights: Mapping[str, float] | None
) -> dict[str, float]:
    """Per-term weights for ``words`` (1.0 where unspecified)."""
    if not weights:
        return {word: 1.0 for word in words}
    return {word: float(weights.get(word, 1.0)) for word in words}


def bm25(
    tf: np.ndarray,
    doc_words: np.ndarray,
    idf_by_word: Sequence[float],
    weights: Sequence[float],
    params: BM25Params,
    avg_doc_length: float,
    max_score: float,
) -> np.ndarray:
    """Normalized BM25 of documents holding every query word.

    ``tf`` has one row per word, one column per document; ``doc_words`` are
    the documents' lengths.  The sum runs word by word, each term evaluated
    as ``w·idf·(tf·(k1+1)) / (tf + k1·norm)`` in exactly that order, so a
    document's score is the same double however many are scored at once.
    """
    if avg_doc_length > 0:
        norm = 1.0 - params.b + params.b * (doc_words / avg_doc_length)
    else:
        norm = 1.0
    score = np.zeros(len(doc_words))
    for row, weight, word_idf in zip(tf, weights, idf_by_word):
        score += weight * word_idf * (row * (params.k1 + 1.0)) / (row + params.k1 * norm)
    if max_score <= 0.0 or not math.isfinite(max_score):
        return np.zeros(len(doc_words))
    # At k1 = 0 the saturation term attains its supremum exactly and float
    # rounding can land a hair above 1.0; clamp to keep the [0, 1] contract.
    return np.minimum(score / max_score, 1.0)


def rank_candidates(
    shares: Sequence[tuple[int, Superpost]],
    statistics: Sequence[IndexStats],
    words: Sequence[str],
    k: int,
    exclude: AbstractSet[Posting] = frozenset(),
    weights: Mapping[str, float] | None = None,
    params: BM25Params | None = None,
) -> tuple[list[tuple[Posting, float, int]], int]:
    """The best ``k`` candidates: ``(posting, score, owner)``, best first,
    and how many candidates the statistics did not refute.

    ``shares`` are the executor's ``(owning member's index, its
    candidates)``; ``statistics[m]`` is member ``m``'s, and ``exclude`` the
    condemned postings.  A candidate's tf and length come
    from its owner's statistics; one that misses a query word there
    (``tf == 0``, or unknown) is refuted without its bytes ever being
    fetched.  Ties break on the posting, so the order is deterministic.
    """
    params = params if params is not None else BM25Params()
    # Each member's entries of each word, decoded once for the whole query.
    entries = [[part.entries(word) for word in words] for part in statistics]
    num_documents, total_words, frequencies = _corpus(statistics, entries, len(words), exclude)
    idf_by_word = [idf(num_documents, df) for df in frequencies]
    weight_by_word = normalize_weights(words, weights)
    weight = [weight_by_word[word] for word in words]
    max_score = sum(w * word_idf * (params.k1 + 1.0) for w, word_idf in zip(weight, idf_by_word))
    avg_doc_length = total_words / num_documents if num_documents else 0.0
    scored = []
    for owner, share in shares:
        tf, doc_words = _rows(statistics[owner], entries[owner], share, len(words))
        kept = np.flatnonzero((tf > 0).all(axis=0))
        scores = bm25(
            tf[:, kept], doc_words[kept], idf_by_word, weight, params, avg_doc_length, max_score
        )
        scored.append((owner, share, kept, scores))
    total = sum(len(kept) for _, _, kept, _ in scored)
    floor = -math.inf
    if total > k:  # only the k best (and whatever ties the k-th) become postings
        every = np.concatenate([scores for *_, scores in scored])
        floor = np.partition(every, total - k)[total - k]
    winners = []
    for owner, share, kept, scores in scored:
        best = scores >= floor
        winners += [
            (share[index], score, owner)
            for index, score in zip(kept[best].tolist(), scores[best].tolist())
        ]
    winners.sort(key=lambda winner: (-winner[1], winner[0]))
    return winners[:k], total


def _corpus(
    statistics: Sequence[IndexStats],
    entries: Sequence[Sequence[Entries]],
    num_words: int,
    exclude: AbstractSet[Posting],
) -> tuple[int, int, list[int]]:
    """``N``, total length and each word's ``df`` over the surviving corpus,
    every document counted once; ``entries[m]`` are member ``m``'s entries
    of each word."""
    condemned = Superpost(exclude) if exclude else EMPTY
    num_documents = total_words = 0
    frequencies = [0] * num_words
    for member, (part, word_entries) in enumerate(zip(statistics, entries)):
        dropped = _dropped(part, condemned, statistics[:member])
        num_documents += part.num_documents - len(dropped)
        total_words += part.total_words - int(part.doc_words[dropped].sum())
        for at, (docs, _) in enumerate(word_entries):
            frequencies[at] += len(docs)
            if len(dropped):
                frequencies[at] -= int(np.isin(docs, dropped).sum())
    return num_documents, total_words, frequencies


def _dropped(part: IndexStats, condemned: Superpost, earlier: Sequence[IndexStats]) -> np.ndarray:
    """The rows of ``part`` a query does not count: its condemned documents,
    and those an earlier member already counted."""
    found = [np.flatnonzero(other.docs.positions(part.docs) >= 0) for other in earlier]
    if condemned:
        rows = part.docs.positions(condemned)
        found.append(rows[rows >= 0])
    return np.unique(np.concatenate(found)) if found else np.empty(0, np.int64)


def _rows(
    part: IndexStats, entries: Sequence[Entries], share: Superpost, num_words: int
) -> tuple[np.ndarray, np.ndarray]:
    """Each candidate's tf per word (0 where its statistics lack it) and
    length; ``entries`` are the owner's entries of each word."""
    tf = np.zeros((num_words, len(share)), np.int64)
    doc_words = np.zeros(len(share), np.int64)
    rows = part.docs.positions(share)
    held = np.flatnonzero(rows >= 0)
    if len(held):
        rows = rows[held]
        doc_words[held] = part.doc_words[rows]
        for at, found in enumerate(entries):
            tf[at, held] = frequencies_at(found, rows)
    return tf, doc_words


__all__ = [
    "DEFAULT_RANKED_K",
    "MAX_RANKED_K",
    "BM25Params",
    "bm25",
    "normalize_weights",
    "rank_candidates",
]
