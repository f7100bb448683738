"""Unit tests for the accuracy analysis (Equations 1, 2, 5 and 6, Lemma 1)."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.analysis import (
    approx_false_positive_probability,
    expected_false_positives,
    false_positive_probability,
    fast_region_limit,
    hoeffding_deviation,
    lemma1_lower_bound,
    optimal_layer_for_document,
    slow_region_limit,
    top_k_sample_size,
)
from repro.parsing.documents import Document, DocumentRef
from repro.profiling.profiler import profile_documents


class TestFalsePositiveProbability:
    def test_matches_closed_form_for_single_layer(self):
        # q_i(1) = 1 - (1 - 1/B)^{|W_i|}
        value = false_positive_probability(1, 100, 10)
        assert value == pytest.approx(1 - (1 - 1 / 100) ** 10)

    def test_probability_decreases_with_more_layers_in_fast_region(self):
        values = [false_positive_probability(layers, 1000, 20) for layers in (1, 2, 4, 8)]
        assert values == sorted(values, reverse=True)

    def test_probability_bounded_in_unit_interval(self):
        for layers in (1, 3, 7):
            for words in (1, 10, 100):
                value = false_positive_probability(layers, 64, words)
                assert 0.0 <= value <= 1.0

    def test_zero_distinct_words_gives_zero_probability(self):
        assert false_positive_probability(2, 100, 0) == 0.0

    def test_one_bin_per_layer_gives_certain_false_positive(self):
        assert false_positive_probability(4, 4, 5) == 1.0

    def test_approximation_close_to_exact_for_large_bins(self):
        exact = false_positive_probability(3, 10_000, 50)
        approx = approx_false_positive_probability(3, 10_000, 50)
        assert approx == pytest.approx(exact, rel=0.02)

    def test_approximation_upper_bounds_behaviour(self):
        # q_hat uses 1 - e^{-x} >= 1 - (1 - 1/m)^{mx}-ish; both stay in [0, 1].
        assert 0.0 <= approx_false_positive_probability(2, 100, 10) <= 1.0

    def test_invalid_structure_rejected(self):
        with pytest.raises(ValueError):
            false_positive_probability(0, 100, 10)
        with pytest.raises(ValueError):
            false_positive_probability(101, 100, 10)
        with pytest.raises(ValueError):
            false_positive_probability(1, 0, 10)
        with pytest.raises(ValueError):
            false_positive_probability(1, 10, -1)


class TestExpectedFalsePositives:
    def test_raw_sizes_assume_unit_weights(self):
        sizes = [10, 10, 10]
        expected = 3 * false_positive_probability(2, 100, 10)
        assert expected_false_positives(2, 100, sizes) == pytest.approx(expected)

    def test_profile_weights_use_irrelevance_coefficients(self):
        documents = [
            Document(DocumentRef("b", 0, 1), "a b"),
            Document(DocumentRef("b", 10, 1), "c"),
        ]
        profile = profile_documents(documents)
        weights = profile.irrelevance_coefficients()
        manual = sum(
            weight * false_positive_probability(2, 50, size)
            for weight, size in zip(weights, profile.distinct_words_per_document)
        )
        assert expected_false_positives(2, 50, profile) == pytest.approx(manual)

    def test_empty_corpus_has_zero_expectation(self):
        assert expected_false_positives(1, 10, []) == 0.0

    def test_exact_flag_switches_to_approximation(self):
        sizes = [5] * 20
        exact = expected_false_positives(2, 1000, sizes, exact=True)
        approx = expected_false_positives(2, 1000, sizes, exact=False)
        assert approx == pytest.approx(exact, rel=0.05)
        assert approx != exact

    def test_monotone_decreasing_before_lmin(self):
        sizes = [30] * 100
        num_bins = 600
        l_min = fast_region_limit(num_bins, sizes)
        layer_values = [
            expected_false_positives(layers, num_bins, sizes)
            for layers in range(1, int(l_min) + 1)
        ]
        assert layer_values == sorted(layer_values, reverse=True)


class TestLemmas:
    def test_optimal_layer_formula(self):
        assert optimal_layer_for_document(100, 10) == pytest.approx(10 * math.log(2))

    def test_lower_bound_below_objective_everywhere(self):
        sizes = [8, 16, 32, 64]
        num_bins = 256
        bound = lemma1_lower_bound(num_bins, sizes)
        for layers in range(1, 40):
            assert expected_false_positives(layers, num_bins, sizes) >= bound - 1e-12

    def test_fast_region_uses_largest_document(self):
        sizes = [5, 10, 50]
        assert fast_region_limit(200, sizes) == pytest.approx(optimal_layer_for_document(200, 50))

    def test_slow_region_uses_smallest_document(self):
        sizes = [5, 10, 50]
        assert slow_region_limit(200, sizes) == pytest.approx(optimal_layer_for_document(200, 5))

    def test_regions_ordered(self):
        sizes = [3, 9, 27]
        assert fast_region_limit(100, sizes) <= slow_region_limit(100, sizes)

    def test_optimal_layer_validation(self):
        with pytest.raises(ValueError):
            optimal_layer_for_document(0, 5)
        with pytest.raises(ValueError):
            optimal_layer_for_document(10, 0)


class TestHoeffdingDeviation:
    def test_formula(self):
        assert hoeffding_deviation(2.0, 0.01) == pytest.approx(
            math.sqrt(0.5 * 4.0 * math.log(100))
        )

    def test_smaller_delta_wider_deviation(self):
        assert hoeffding_deviation(1.0, 1e-6) > hoeffding_deviation(1.0, 1e-2)

    def test_zero_sigma_zero_deviation(self):
        assert hoeffding_deviation(0.0, 0.5) == 0.0

    def test_invalid_inputs_rejected(self):
        with pytest.raises(ValueError):
            hoeffding_deviation(-1.0, 0.5)
        with pytest.raises(ValueError):
            hoeffding_deviation(1.0, 0.0)
        with pytest.raises(ValueError):
            hoeffding_deviation(1.0, 1.0)


class TestTopKSampleSize:
    def test_paper_configuration_selects_the_exact_quantile(self):
        # Section V-A's K = 10 and delta = 1e-6, over R = 2 274 candidates of
        # which F0 = 0.0008 are expected false: each sampled candidate is false
        # with q = F0 / R ~ 3.52e-7, and X counts the true ones.
        #   n = 10: P(X < 10) = 1 - (1 - q)^10 ~ 10 q ~ 3.5e-6 > delta;
        #   n = 11: P(X < 10) = P(2 or more false) ~ C(11, 2) q^2 ~ 6.8e-12 <= delta.
        # So 11, where the Hoeffding bound asks for 23.
        assert top_k_sample_size(10, 2274, 0.0008, 1e-6) == 11
        assert _hoeffding_sample_size(10, 2274, 0.0008, 1e-6) == 23

    def test_whole_list_fetched_when_k_close_to_result_size(self):
        assert top_k_sample_size(10, 11, 1.0, 1e-6) == 11

    def test_sample_never_exceeds_available_postings(self):
        assert top_k_sample_size(10, 15, 1.0, 1e-6) <= 15

    def test_sample_at_least_k(self):
        assert top_k_sample_size(10, 10_000, 1.0, 1e-6) >= 10

    def test_zero_postings(self):
        assert top_k_sample_size(5, 0, 1.0, 1e-6) == 0

    def test_smaller_delta_needs_more_samples(self):
        loose = top_k_sample_size(10, 10_000, 1.0, 1e-2)
        tight = top_k_sample_size(10, 10_000, 1.0, 1e-9)
        assert tight >= loose

    def test_more_false_positives_need_more_samples(self):
        clean = top_k_sample_size(10, 10_000, 0.5, 1e-6)
        noisy = top_k_sample_size(10, 10_000, 5_000.0, 1e-6)
        assert noisy > clean

    def test_exact_lists_sample_exactly_k(self):
        assert top_k_sample_size(10, 2500, 0.0, 1e-12) == 10

    @given(
        k=st.integers(1, 60),
        num_postings=st.integers(0, 5000),
        share=st.floats(0.0, 1.0),
        delta=st.floats(1e-12, 0.5),
    )
    @settings(max_examples=300, deadline=None)
    def test_is_the_smallest_sample_meeting_delta(self, k, num_postings, share, delta):
        f0 = share * num_postings
        n = top_k_sample_size(k, num_postings, f0, delta)
        assert min(k, num_postings) <= n <= num_postings
        assert n <= _hoeffding_sample_size(k, num_postings, f0, delta)
        if f0 == 0:
            assert n == min(k, num_postings)
        q = f0 / num_postings if num_postings else 0.0
        # The brute force is good to ~1e-11 relative; exact ties such as
        # 0.5^3 == 0.125 need that much room.
        if n < num_postings:
            # Fetching the whole list cannot come up short; a sample can.
            assert _binomial_lower_tail(n, k, q) <= delta * (1 + 1e-9)
        if k < n < num_postings:
            assert _binomial_lower_tail(n - 1, k, q) > delta * (1 - 1e-9)

    def test_invalid_inputs_rejected(self):
        with pytest.raises(ValueError):
            top_k_sample_size(0, 10, 1.0, 1e-6)
        with pytest.raises(ValueError):
            top_k_sample_size(1, -1, 1.0, 1e-6)
        with pytest.raises(ValueError):
            top_k_sample_size(1, 10, -1.0, 1e-6)
        with pytest.raises(ValueError):
            top_k_sample_size(1, 10, 1.0, 2.0)


def _binomial_lower_tail(n: int, k: int, q: float) -> float:
    """P(Binomial(n, 1 - q) < k) by brute force: every term in log space."""
    if q == 0.0:
        return 0.0
    logs = [
        math.lgamma(n + 1)
        - math.lgamma(j + 1)
        - math.lgamma(n - j + 1)
        + j * math.log1p(-q)
        + (n - j) * math.log(q)
        for j in range(min(k, n + 1))
    ]
    top = max(logs)
    return math.exp(top) * sum(math.exp(value - top) for value in logs)


def _hoeffding_sample_size(k: int, num_postings: int, f0: float, delta: float) -> int:
    """Equation 6 as the paper bounds it (Hoeffding): the reference the exact
    quantile must never exceed."""
    if num_postings == 0:
        return 0
    if k >= num_postings - f0:
        return num_postings
    p = 1.0 - f0 / num_postings
    log_term = 0.5 * math.log(1.0 / delta)
    root = math.sqrt(max((2 * p * k + log_term) ** 2 - 4 * p**2 * k**2, 0.0))
    return min(num_postings, math.ceil((2 * p * k + log_term + root) / (2 * p**2)))
