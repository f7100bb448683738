"""Algorithm 1: minimize the number of IoU Sketch layers.

Given a bin budget B and an accuracy target F₀ (expected false positives per
query), find the smallest integer number of layers L* with F(L*) ≤ F₀, or
report that the configuration is infeasible.

The search exploits the structure proved in the paper:

* Lemma 1 gives a cheap lower bound on F(L); if it already exceeds F₀ the
  configuration is rejected immediately.
* Lemma 2: for L < L_min = (B / max_i |W_i|)·ln 2, F̂(L) is strictly
  decreasing, so the smallest feasible L in [1, L_min] can be binary-searched.
* Lemma 3: for L > L_max = (B / min_i |W_i|)·ln 2, F̂(L) is strictly
  increasing, so the iterative search never needs to look past L_max.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.core.analysis import (
    Corpus,
    expected_false_positives,
    fast_region_limit,
    lemma1_lower_bound,
    size_classes,
    slow_region_limit,
)
from repro.profiling.distributions import QueryWordDistribution


class InfeasibleConfigurationError(ValueError):
    """Raised when no number of layers can satisfy the accuracy target."""

    def __init__(self, num_bins: int, target: float, lower_bound: float):
        message = (
            f"no layer count satisfies F(L) <= {target} with B={num_bins} bins "
            f"(lower bound {lower_bound:.4g}); increase the bin budget or relax the target"
        )
        super().__init__(message)
        self.num_bins = num_bins
        self.target = target
        self.lower_bound = lower_bound


@dataclass(frozen=True)
class OptimizationResult:
    """Outcome of Algorithm 1."""

    num_layers: int
    expected_false_positives: float
    used_fast_region: bool
    lower_bound: float


def minimize_layers(
    num_bins: int,
    target_false_positives: float,
    profile: Corpus,
    distribution: QueryWordDistribution | None = None,
    max_layers: int | None = None,
    exact: bool = True,
) -> OptimizationResult:
    """Run Algorithm 1 and return the minimum feasible number of layers.

    Parameters
    ----------
    num_bins:
        Total bin budget B across all layers.
    target_false_positives:
        Accuracy target F₀ (expected irrelevant documents per query).
    profile:
        Corpus profile (or a raw list of per-document distinct word counts,
        or their :class:`~repro.core.analysis.SizeClasses`).
    distribution:
        Query word prior; defaults to the uniform prior implied by the profile.
    max_layers:
        Optional hard cap on L (useful to bound query fan-out); defaults to B.
    exact:
        Evaluate F with the exact q_i (True) or the approximation q̂_i (False).

    Raises
    ------
    InfeasibleConfigurationError
        If the Lemma 1 lower bound exceeds the target or no L ≤ L_max (and
        ≤ ``max_layers``) satisfies the constraint.
    """
    if num_bins <= 0:
        raise ValueError("num_bins must be positive")
    if target_false_positives < 0:
        raise ValueError("target_false_positives must be non-negative")
    layer_cap = num_bins if max_layers is None else min(max_layers, num_bins)
    if layer_cap < 1:
        raise ValueError("max_layers must allow at least one layer")

    # Every evaluation below reads the documents grouped once.
    classes = size_classes(profile, distribution)

    def objective(num_layers: int) -> float:
        return expected_false_positives(num_layers, num_bins, classes, exact=exact)

    lower_bound = lemma1_lower_bound(num_bins, classes)
    if lower_bound > target_false_positives:
        raise InfeasibleConfigurationError(num_bins, target_false_positives, lower_bound)

    l_min = max(1, min(layer_cap, int(math.floor(fast_region_limit(num_bins, classes)))))
    l_max = max(l_min, min(layer_cap, int(math.ceil(slow_region_limit(num_bins, classes)))))

    if objective(l_min) <= target_false_positives:
        best = _binary_search_smallest(objective, 1, l_min, target_false_positives)
        return OptimizationResult(
            num_layers=best,
            expected_false_positives=objective(best),
            used_fast_region=True,
            lower_bound=lower_bound,
        )

    # Slow region: F is not guaranteed monotone, scan upward until feasible.
    for num_layers in range(l_min + 1, l_max + 1):
        value = objective(num_layers)
        if value <= target_false_positives:
            return OptimizationResult(
                num_layers=num_layers,
                expected_false_positives=value,
                used_fast_region=False,
                lower_bound=lower_bound,
            )
    raise InfeasibleConfigurationError(num_bins, target_false_positives, lower_bound)


def _binary_search_smallest(objective, low: int, high: int, target: float) -> int:
    """Smallest integer L in [low, high] with objective(L) <= target.

    Valid because the objective is strictly decreasing on the fast region and
    objective(high) is known to satisfy the target.
    """
    while low < high:
        mid = (low + high) // 2
        if objective(mid) <= target:
            high = mid
        else:
            low = mid + 1
    return low
