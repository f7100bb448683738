"""BM25 top-k ranked retrieval over Airphant indexes.

``mode="topk_bm25"`` keeps the membership machinery intact and layers
scoring on top of it:

1. **candidates** come from the superposts exactly like a keyword query
   (every member's per-word layer intersections, unioned across shards) — a
   slight superset of the true matches;
2. **scores** come from the persisted :mod:`~repro.index.stats` blob:
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
   sharded fan-outs, and routed clusters all produce the identical ranked
   list.

Cross-tier identity hinges on one invariant: *every* execution scores with
the same corpus-wide statistics.  Members therefore expose their exact
stats contribution (:meth:`ranking_stats`), :func:`corpus_stats` merges them
by posting (so a document counts once even if it is transiently visible in
two members mid-flush), and a shard-restricted view still reports its *full*
index stats — a node answering shards {2,3} uses the same IDF as the node
answering {0,1}, which is what makes routed answers byte-identical to
single-node ones.

This module is the BM25 maths only.  The query itself — both read waves,
over every member at once — is run by
:meth:`AirphantSearcher.search_topk <repro.search.searcher.AirphantSearcher.search_topk>`.
"""

from __future__ import annotations

import math
from collections.abc import Set as AbstractSet
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

from repro.index.stats import IndexStats, idf, merge_stats, prune_stats
from repro.parsing.documents import Posting

#: Default ranked result count when neither the request nor the service
#: config pins one (the "bounded k" contract: ranked queries never return
#: the whole candidate set).
DEFAULT_RANKED_K = 10

#: Hard ceiling on ranked k — scoring is in-memory, but document retrieval
#: for the final list is not, and an unbounded k defeats the mode's point.
MAX_RANKED_K = 10_000


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


def score_posting(
    posting: Posting,
    words: Sequence[str],
    term_frequencies: Mapping[str, Mapping[Posting, int]],
    doc_lengths: Mapping[Posting, int],
    idf_by_word: Mapping[str, float],
    weights: Mapping[str, float],
    params: BM25Params,
    avg_doc_length: float,
    max_score: float,
) -> float | None:
    """Normalized BM25 score of one candidate, or ``None`` to drop it.

    ``None`` means the exact stats refute the candidate: it misses at least
    one query term (a sketch false positive, or a partial match under the
    conjunctive contract), or it is unknown to the stats entirely.
    """
    doc_length = doc_lengths.get(posting)
    if doc_length is None:
        return None
    if avg_doc_length > 0:
        norm = 1.0 - params.b + params.b * (doc_length / avg_doc_length)
    else:
        norm = 1.0
    score = 0.0
    for word in words:
        tf = term_frequencies[word].get(posting, 0)
        if tf == 0:
            return None
        score += (
            weights[word]
            * idf_by_word[word]
            * (tf * (params.k1 + 1.0))
            / (tf + params.k1 * norm)
        )
    if max_score <= 0.0 or not math.isfinite(max_score):
        return 0.0
    # At k1 = 0 the saturation term attains its supremum exactly and float
    # rounding can land a hair above 1.0; clamp to keep the [0, 1] contract.
    return min(score / max_score, 1.0)


def corpus_stats(
    member_stats: Sequence[IndexStats], exclude: AbstractSet[Posting] = frozenset()
) -> IndexStats:
    """The statistics one query scores against: every member's, merged.

    Merged by posting, so overlapping members (a document mid-flush) never
    double-count.  ``exclude`` names condemned (tombstoned) postings: BM25
    scores depend on corpus-wide aggregates (``N``, ``df``, ``avgdl``), so
    dropping deleted documents from the ranked list alone would keep scoring
    the survivors against the *pre-delete* corpus; each member's statistics
    are therefore pruned with :func:`~repro.index.stats.prune_stats` — exact
    integer surgery, so every score equals a fresh rebuild over the survivors.
    """
    if exclude:
        member_stats = [prune_stats(stats, exclude) for stats in member_stats]
    return merge_stats(member_stats)


def rank_candidates(
    candidates: Iterable[Posting],
    words: Sequence[str],
    stats: IndexStats,
    weights: Mapping[str, float] | None = None,
    params: BM25Params | None = None,
) -> list[tuple[Posting, float]]:
    """Score ``candidates`` against ``stats``: ``(posting, score)``, best first.

    The shared scoring behind every execution tier — a standalone index, a
    sharded one, the live memtable ∪ deltas ∪ base view, and each node of a
    routed cluster — which is what keeps their ranked lists identical.
    Candidates the exact statistics disprove (``tf == 0`` or unknown
    document) are refuted here, without ever fetching their bytes; ties
    break on the posting, so the order is deterministic.
    """
    params = params if params is not None else BM25Params()
    idf_by_word = {
        word: idf(stats.num_documents, stats.doc_frequency(word)) for word in words
    }
    weight_by_word = normalize_weights(words, weights)
    max_score = sum(
        weight_by_word[word] * idf_by_word[word] * (params.k1 + 1.0) for word in words
    )
    term_frequencies = {word: stats.term_frequencies.get(word, {}) for word in words}
    scored: list[tuple[Posting, float]] = []
    for posting in candidates:
        score = score_posting(
            posting,
            words,
            term_frequencies,
            stats.doc_lengths,
            idf_by_word,
            weight_by_word,
            params,
            stats.average_length,
            max_score,
        )
        if score is not None:
            scored.append((posting, score))
    scored.sort(key=lambda item: (-item[1], item[0]))
    return scored


__all__ = [
    "DEFAULT_RANKED_K",
    "MAX_RANKED_K",
    "BM25Params",
    "corpus_stats",
    "normalize_weights",
    "rank_candidates",
    "score_posting",
]
