"""Statistical analysis of IoU Sketch accuracy.

Implements the formulas of Section IV-A:

* Equation 1 — the exact false-positive probability q_i(L) of document i for
  an irrelevant query word, and its approximation q̂_i(L).
* Equation 2 — the expected number of false positives per query
  F(L) = Σ_i c_i q_i(L).
* Lemma 1 — the per-document minimizer L*_i = (B/|W_i|) ln 2 and the induced
  lower bound Σ_i c_i 2^(−L*_i) used as the feasibility check of Algorithm 1.
* Equation 5 — the Hoeffding concentration bound on the observed number of
  false positives.
* Equation 6 — the top-K sample size R_K, as the exact binomial quantile in
  place of the paper's Hoeffding bound (11 postings, not 23, for K = 10).
"""

from __future__ import annotations

import math
from typing import NamedTuple, Sequence, Union

import numpy as np

from repro.profiling.distributions import QueryWordDistribution
from repro.profiling.profiler import CorpusProfile

__all__ = [
    "TOP_K_DELTA",
    "SizeClasses",
    "approx_false_positive_probability",
    "expected_false_positives",
    "false_positive_probability",
    "fast_region_limit",
    "hoeffding_deviation",
    "lemma1_lower_bound",
    "optimal_layer_for_document",
    "size_classes",
    "slow_region_limit",
    "top_k_sample_size",
]

#: Failure probability δ of the top-K sampling guarantee (Equation 6): the
#: paper's 10⁻⁶, the one value every query runs under.
TOP_K_DELTA = 1e-6


class SizeClasses(NamedTuple):
    """A corpus as Equation 2 and Lemmas 1–3 read it: the distinct document
    sizes |Wᵢ| > 0 ascending, and the summed cᵢ of the documents of each.

    Every formula below takes one in place of a profile, so Algorithm 1
    groups the documents once (:func:`size_classes`) and then evaluates F(L)
    at each candidate L from the classes alone."""

    sizes: np.ndarray
    weights: np.ndarray


#: What the formulas read: a profile, raw |Wᵢ| (uniform cᵢ = 1), or their classes.
Corpus = Union[CorpusProfile, Sequence[int], SizeClasses]


def false_positive_probability(num_layers: float, num_bins: int, distinct_words: int) -> float:
    """Exact q_i(L) of Equation 1.

    Probability that document i (with ``distinct_words`` = |W_i| distinct
    words) appears in the intersection for a query word it does not contain,
    given ``num_bins`` = B total bins split across ``num_layers`` = L layers.
    """
    _validate_structure(num_layers, num_bins)
    if distinct_words < 0:
        raise ValueError("distinct_words must be non-negative")
    if distinct_words == 0:
        return 0.0
    bins_per_layer = num_bins / num_layers
    if bins_per_layer <= 1.0:
        # A single bin per layer makes every document a certain false positive.
        return 1.0
    per_layer = 1.0 - (1.0 - 1.0 / bins_per_layer) ** distinct_words
    return float(per_layer**num_layers)


def approx_false_positive_probability(
    num_layers: float, num_bins: int, distinct_words: int
) -> float:
    """Approximate q̂_i(L) = (1 − e^(−|W_i|·L/B))^L of Equation 1."""
    _validate_structure(num_layers, num_bins)
    if distinct_words < 0:
        raise ValueError("distinct_words must be non-negative")
    if distinct_words == 0:
        return 0.0
    z = 1.0 - math.exp(-distinct_words * num_layers / num_bins)
    return float(z**num_layers)


def expected_false_positives(
    num_layers: float,
    num_bins: int,
    profile: Corpus,
    distribution: QueryWordDistribution | None = None,
    exact: bool = True,
) -> float:
    """Expected number of false positives per query, F(L) of Equation 2.

    ``profile`` may be a :class:`CorpusProfile`, a raw sequence of per-
    document distinct word counts |W_i| (in which case a uniform query prior
    with c_i ≈ 1 is assumed, matching the worst case in the paper's remarks),
    or :class:`SizeClasses` already grouped under their prior.
    ``exact`` selects between q_i (True) and the approximation q̂_i (False).
    """
    _validate_structure(num_layers, num_bins)
    sizes, weights = size_classes(profile, distribution)
    if sizes.size == 0:
        return 0.0
    if exact:
        bins_per_layer = num_bins / num_layers
        if bins_per_layer <= 1.0:
            probabilities = np.ones_like(sizes, dtype=float)
        else:
            per_layer = 1.0 - (1.0 - 1.0 / bins_per_layer) ** sizes
            probabilities = per_layer**num_layers
    else:
        z = 1.0 - np.exp(-sizes * num_layers / num_bins)
        probabilities = z**num_layers
    return float(np.dot(weights, probabilities))


def optimal_layer_for_document(num_bins: int, distinct_words: int) -> float:
    """Lemma 1: the per-document minimizer L*_i = (B / |W_i|) · ln 2."""
    if num_bins <= 0:
        raise ValueError("num_bins must be positive")
    if distinct_words <= 0:
        raise ValueError("distinct_words must be positive")
    return num_bins / distinct_words * math.log(2.0)


def lemma1_lower_bound(
    num_bins: int,
    profile: Corpus,
    distribution: QueryWordDistribution | None = None,
) -> float:
    """Lower bound Σ_i c_i·2^(−L*_i) ≤ F(L) from Lemma 1.

    Used by Algorithm 1 as a cheap feasibility check: if even this bound
    exceeds the target F₀, no number of layers can satisfy the constraint.
    """
    sizes, weights = size_classes(profile, distribution)
    if sizes.size == 0:
        return 0.0
    exponents = num_bins / sizes * math.log(2.0)
    # 2^(-L*) underflows harmlessly to zero for very small documents.
    with np.errstate(over="ignore", under="ignore"):
        terms = np.exp2(-exponents)
    return float(np.dot(weights, terms))


def fast_region_limit(num_bins: int, profile: Corpus) -> float:
    """L_min = min_i L*_i = (B / max_i |W_i|) · ln 2 (Lemma 2).

    For L < L_min, F̂(L) is strictly (exponentially) decreasing, so Algorithm 1
    can binary-search this region.
    """
    sizes = size_classes(profile).sizes
    if not sizes.size:
        return float(num_bins)
    return optimal_layer_for_document(num_bins, float(sizes[-1]))


def slow_region_limit(num_bins: int, profile: Corpus) -> float:
    """L_max = max_i L*_i = (B / min_i |W_i|) · ln 2 (Lemma 3).

    For L > L_max, F̂(L) is strictly increasing, so no solution can lie beyond
    it and Algorithm 1 stops its iterative search there.
    """
    sizes = size_classes(profile).sizes
    if not sizes.size:
        return float(num_bins)
    return optimal_layer_for_document(num_bins, float(sizes[0]))


def hoeffding_deviation(sigma_x: float, delta: float) -> float:
    """Deviation bound ε such that Pr[X ≥ F(L) + ε] ≤ δ (Equation 5).

    ε = sqrt(σ_X² · ln(1/δ) / 2) where σ_X² = Σ_i Σ_{w∉W_i} p_w².
    """
    if sigma_x < 0:
        raise ValueError("sigma_x must be non-negative")
    if not 0 < delta < 1:
        raise ValueError("delta must be in (0, 1)")
    return math.sqrt(0.5 * sigma_x**2 * math.log(1.0 / delta))


def top_k_sample_size(
    k: int, num_postings: int, expected_false_positives_f0: float, delta: float
) -> int:
    """Number of postings to sample for a top-K query (Equation 6).

    Given a final postings list with R = ``num_postings`` entries of which F₀
    are expected to be false positives, each sampled posting is a true match
    with probability p = 1 − F₀/R.  Sampling R_K postings yields at least K
    true matches with probability ≥ 1 − δ; R_K is the exact quantile — the
    smallest n with P(Binomial(n, p) < K) ≤ δ — so no sample is larger than
    the guarantee needs (with F₀ = 0 it is exactly K).  When K ≥ R − F₀ the
    whole list must be fetched.  The tail walks up from n = K by its
    recurrence P(X_{n+1} < K) = P(X_n < K) − p·P(X_n = K − 1): O(R_K − K) steps.
    """
    if k <= 0:
        raise ValueError("k must be positive")
    if num_postings < 0:
        raise ValueError("num_postings must be non-negative")
    if expected_false_positives_f0 < 0:
        raise ValueError("expected_false_positives_f0 must be non-negative")
    if not 0 < delta < 1:
        raise ValueError("delta must be in (0, 1)")
    if k >= num_postings - expected_false_positives_f0:
        return num_postings
    q = expected_false_positives_f0 / num_postings
    p = 1.0 - q
    # P(X_n < K) and P(X_n = K − 1) at n = K.  Each step may cost the running
    # tail ~1e-15 of absolute error: within that of δ, the K terms' sum decides.
    n, tail, mass = k, -math.expm1(k * math.log1p(-q)), k * p ** (k - 1) * q
    while n < num_postings and (
        tail > delta + (slack := (n - k + 1) * 1e-15)
        or (tail > delta - slack and _lower_tail(n, k, p, q, mass) > delta)
    ):
        tail -= p * mass
        mass *= (n + 1) * q / (n + 2 - k)
        n += 1
    return n


# -- internal helpers --------------------------------------------------------------


def _lower_tail(n: int, k: int, p: float, q: float, mass: float) -> float:
    """P(X < k) for X ~ Binomial(n, p), summed from ``mass`` = P(X = k − 1)
    down through the ratios P(X = j − 1) / P(X = j) = j·q / ((n − j + 1)·p):
    k positive terms, so accurate to its last digits even near tiny δ."""
    term = total = mass
    for j in range(k - 1, 0, -1):
        term *= j * q / ((n - j + 1) * p)
        total += term
    return total


def _validate_structure(num_layers: float, num_bins: int) -> None:
    if num_bins <= 0:
        raise ValueError("num_bins must be positive")
    if num_layers < 1 or num_layers > num_bins:
        raise ValueError(f"num_layers must satisfy 1 <= L <= B, got L={num_layers}, B={num_bins}")


def size_classes(
    profile: Corpus, distribution: QueryWordDistribution | None = None
) -> SizeClasses:
    """Group documents by |W_i| > 0 and sum their c_i weights (classes pass
    through as they are).

    Evaluating F(L) touches every document; grouping identical sizes keeps the
    optimizer fast even for corpora with millions of documents.
    """
    if isinstance(profile, SizeClasses):
        return profile
    if isinstance(profile, CorpusProfile):
        sizes = np.asarray(profile.distinct_words_per_document, dtype=float)
        weights = np.asarray(profile.irrelevance_coefficients(distribution), dtype=float)
    else:
        sizes = np.asarray(list(profile), dtype=float)
        weights = np.ones_like(sizes)
    mask = sizes > 0
    sizes = sizes[mask]
    weights = weights[mask]
    if sizes.size == 0:
        return SizeClasses(sizes, weights)
    unique_sizes, inverse = np.unique(sizes, return_inverse=True)
    grouped_weights = np.zeros_like(unique_sizes)
    np.add.at(grouped_weights, inverse, weights)
    return SizeClasses(unique_sizes, grouped_weights)
