"""Property-based tests (hypothesis) for the IoU Sketch core invariants.

The two invariants the whole system rests on:

* **No false negatives** — for any corpus and any sketch structure, querying
  a word returns a superset of its true postings list.
* **Monotone accuracy** — the analytical false-positive probability behaves
  as Lemmas 1-3 predict.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.analysis import (
    expected_false_positives,
    false_positive_probability,
    lemma1_lower_bound,
)
from repro.core.sketch import IoUSketch
from repro.core.superpost import Superpost
from repro.parsing.documents import Posting


# -- strategies ---------------------------------------------------------------------

words_strategy = st.text(
    alphabet=st.characters(whitelist_categories=("Ll", "Nd")), min_size=1, max_size=8
)

postings_strategy = st.sets(
    st.builds(
        Posting,
        blob=st.sampled_from(["blob-a", "blob-b"]),
        offset=st.integers(min_value=0, max_value=10_000),
        length=st.integers(min_value=1, max_value=200),
    ),
    min_size=1,
    max_size=8,
)

corpus_strategy = st.dictionaries(words_strategy, postings_strategy, min_size=1, max_size=40)

structure_strategy = st.tuples(
    st.integers(min_value=1, max_value=6),  # layers
    st.integers(min_value=6, max_value=64),  # total bins
)


class TestNoFalseNegativesProperty:
    @given(corpus=corpus_strategy, structure=structure_strategy, seed=st.integers(0, 1000))
    @settings(max_examples=60, deadline=None)
    def test_query_is_always_a_superset_of_true_postings(self, corpus, structure, seed):
        num_layers, total_bins = structure
        sketch = IoUSketch.build(
            num_layers=num_layers, total_bins=max(total_bins, num_layers), seed=seed
        )
        for word, postings in corpus.items():
            sketch.insert(word, postings)
        for word, postings in corpus.items():
            assert postings <= set(sketch.query(word))

    @given(corpus=corpus_strategy, seed=st.integers(0, 100))
    @settings(max_examples=30, deadline=None)
    def test_single_layer_bin_contains_union_of_its_words(self, corpus, seed):
        sketch = IoUSketch.build(num_layers=1, total_bins=8, seed=seed)
        for word, postings in corpus.items():
            sketch.insert(word, postings)
        for word, postings in corpus.items():
            (superpost,) = sketch.layer_superposts(word)
            assert postings <= superpost


class TestSuperpostAlgebraProperties:
    @given(
        sets=st.lists(
            st.sets(st.integers(min_value=0, max_value=50), max_size=10), min_size=1, max_size=5
        )
    )
    @settings(max_examples=80, deadline=None)
    def test_intersect_all_equals_python_set_intersection(self, sets):
        superposts = [Superpost({Posting("b", value, 1) for value in s}) for s in sets]
        expected = set.intersection(*[{Posting("b", value, 1) for value in s} for s in sets])
        assert set(Superpost.intersect_all(superposts)) == expected

    @given(
        sets=st.lists(
            st.sets(st.integers(min_value=0, max_value=50), max_size=10), min_size=0, max_size=5
        )
    )
    @settings(max_examples=80, deadline=None)
    def test_union_all_equals_python_set_union(self, sets):
        superposts = [Superpost({Posting("b", value, 1) for value in s}) for s in sets]
        expected = set().union(*[{Posting("b", value, 1) for value in s} for s in sets])
        assert set(Superpost.union_all(superposts)) == expected

    @given(
        left=st.sets(st.integers(0, 30), max_size=10),
        right=st.sets(st.integers(0, 30), max_size=10),
    )
    @settings(max_examples=60, deadline=None)
    def test_intersection_is_subset_of_both_operands(self, left, right):
        a = Superpost({Posting("b", value, 1) for value in left})
        b = Superpost({Posting("b", value, 1) for value in right})
        result = set(Superpost.intersect_all([a, b]))
        assert result <= set(a)
        assert result <= set(b)


class TestAnalysisProperties:
    @given(
        num_bins=st.integers(min_value=2, max_value=5000),
        distinct_words=st.integers(min_value=0, max_value=500),
        num_layers=st.integers(min_value=1, max_value=16),
    )
    @settings(max_examples=150, deadline=None)
    def test_probability_always_in_unit_interval(self, num_bins, distinct_words, num_layers):
        if num_layers > num_bins:
            num_layers = num_bins
        value = false_positive_probability(num_layers, num_bins, distinct_words)
        assert 0.0 <= value <= 1.0

    @given(
        sizes=st.lists(st.integers(min_value=1, max_value=50), min_size=1, max_size=30),
        num_bins=st.integers(min_value=16, max_value=2048),
    )
    @settings(max_examples=80, deadline=None)
    def test_lemma1_bound_never_exceeds_objective(self, sizes, num_bins):
        bound = lemma1_lower_bound(num_bins, sizes)
        for num_layers in (1, 2, 4, 8, min(16, num_bins)):
            assert expected_false_positives(num_layers, num_bins, sizes) >= bound - 1e-9

    @given(
        sizes=st.lists(st.integers(min_value=1, max_value=20), min_size=1, max_size=30),
        num_bins=st.integers(min_value=8, max_value=1024),
    )
    @settings(max_examples=80, deadline=None)
    def test_expectation_never_exceeds_document_count(self, sizes, num_bins):
        value = expected_false_positives(1, num_bins, sizes)
        assert value <= len(sizes) + 1e-9
