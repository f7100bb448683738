"""Unit tests for the in-memory IoU Sketch."""

import pytest

from repro.core.common_words import CommonWordTable
from repro.core.sketch import IoUSketch
from repro.parsing.documents import Posting


def _posting(index: int) -> Posting:
    return Posting(blob="corpus", offset=index * 100, length=50)


def _paper_example_sketch(num_layers: int = 3, total_bins: int = 9, seed: int = 0) -> IoUSketch:
    """The four-word example of the paper's Figure 4 (structure, not exact bins)."""
    sketch = IoUSketch.build(num_layers=num_layers, total_bins=total_bins, seed=seed)
    sketch.insert("w1", [_posting(1)])
    sketch.insert("w2", [_posting(2), _posting(3)])
    sketch.insert("w3", [_posting(2), _posting(3), _posting(4)])
    sketch.insert("w4", [_posting(2), _posting(3), _posting(4), _posting(5)])
    return sketch


class TestConstruction:
    def test_build_splits_bins_across_layers(self):
        sketch = IoUSketch.build(num_layers=4, total_bins=100)
        assert sketch.num_layers == 4
        assert sketch.bins_per_layer == 25
        assert sketch.total_bins == 100

    def test_build_requires_at_least_one_bin_per_layer(self):
        with pytest.raises(ValueError):
            IoUSketch.build(num_layers=10, total_bins=5)

    def test_build_rejects_non_positive_layers(self):
        with pytest.raises(ValueError):
            IoUSketch.build(num_layers=0, total_bins=10)

    def test_bin_of_returns_one_bin_per_layer(self):
        sketch = IoUSketch.build(num_layers=3, total_bins=30)
        assert len(sketch.bin_of("hello")) == 3


class TestNoFalseNegatives:
    def test_query_always_contains_true_postings(self):
        sketch = _paper_example_sketch()
        assert {_posting(2), _posting(3)} <= set(sketch.query("w2"))
        assert {_posting(1)} <= set(sketch.query("w1"))
        assert {_posting(2), _posting(3), _posting(4), _posting(5)} <= set(sketch.query("w4"))

    def test_no_false_negatives_across_many_words(self):
        sketch = IoUSketch.build(num_layers=3, total_bins=30, seed=2)
        truth = {}
        for index in range(200):
            word = f"word{index}"
            postings = {_posting(index), _posting(index + 1000)}
            truth[word] = postings
            sketch.insert(word, postings)
        for word, postings in truth.items():
            assert postings <= set(sketch.query(word))

    def test_unknown_word_query_returns_a_superset_possibly_empty(self):
        sketch = _paper_example_sketch()
        result = sketch.query("never-inserted")
        # No guarantee other than that it is a list of distinct postings in
        # order (false positives allowed).
        assert list(result) == sorted(set(result))


class TestFalsePositiveBehaviour:
    def test_more_layers_reduce_false_positives(self):
        # Insert many single-document words so bins are heavily shared.
        def build(num_layers: int) -> int:
            sketch = IoUSketch.build(num_layers=num_layers, total_bins=60, seed=5)
            truth = {}
            for index in range(300):
                word = f"word{index}"
                postings = {_posting(index)}
                truth[word] = postings
                sketch.insert(word, postings)
            return sum(
                sketch.false_positives(word, truth[word]) for word in truth
            )

        single_layer = build(1)
        multi_layer = build(4)
        assert multi_layer < single_layer

    def test_false_positive_count_is_zero_for_exact_match(self):
        sketch = _paper_example_sketch()
        word_truth = {_posting(2), _posting(3)}
        count = sketch.false_positives("w2", word_truth)
        returned = set(sketch.query("w2"))
        assert count == len(returned - word_truth)


class TestCommonWords:
    def test_registered_common_word_is_answered_exactly(self):
        common = CommonWordTable()
        common.register("the")
        sketch = IoUSketch.build(num_layers=2, total_bins=4, seed=0, common_words=common)
        sketch.insert("the", [_posting(1), _posting(2)])
        sketch.insert("rare", [_posting(3)])
        assert set(sketch.query("the")) == {_posting(1), _posting(2)}

    def test_common_word_does_not_pollute_hashed_bins(self):
        common = CommonWordTable()
        common.register("the")
        sketch = IoUSketch.build(num_layers=1, total_bins=1, seed=0, common_words=common)
        sketch.insert("the", [_posting(index) for index in range(50)])
        sketch.insert("rare", [_posting(999)])
        # The single hashed bin should only contain the rare word's posting.
        assert set(sketch.query("rare")) == {_posting(999)}

    def test_query_of_unregistered_common_word_goes_through_layers(self):
        sketch = IoUSketch.build(num_layers=2, total_bins=8, seed=0)
        sketch.insert("word", [_posting(1)])
        assert _posting(1) in set(sketch.query("word"))


class TestDiagnostics:
    def test_bin_sizes_shape(self):
        sketch = IoUSketch.build(num_layers=3, total_bins=12)
        sizes = sketch.bin_sizes()
        assert len(sizes) == 3
        assert all(len(layer) == 4 for layer in sizes)

    def test_insert_postings_map(self):
        sketch = IoUSketch.build(num_layers=2, total_bins=8)
        sketch.insert_postings_map({"a": [_posting(1)], "b": [_posting(2)]})
        assert _posting(1) in set(sketch.query("a"))
        assert _posting(2) in set(sketch.query("b"))

    def test_layer_superposts_length_matches_layers(self):
        sketch = _paper_example_sketch()
        assert len(sketch.layer_superposts("w2")) == 3
