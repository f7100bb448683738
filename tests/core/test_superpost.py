"""Unit tests for super postings lists."""

import pytest

from repro.core.superpost import CROSSOVER, OFFSET_LIMIT, Superpost
from repro.parsing.documents import Posting


def _posting(index: int) -> Posting:
    return Posting(blob="corpus", offset=index * 10, length=10)


def _long(indexes) -> Superpost:
    """A list over ``indexes`` padded past the crossover with postings of
    another blob, so that it is held as columns."""
    padding = {Posting("padding", at, 1) for at in range(CROSSOVER + 1)}
    superpost = Superpost({_posting(index) for index in indexes} | padding)
    assert "columns" in repr(superpost)
    return superpost


def _unpadded(superpost: Superpost) -> set[Posting]:
    return {posting for posting in superpost if posting.blob == "corpus"}


class TestBasicOperations:
    def test_empty_superpost(self):
        superpost = Superpost()
        assert len(superpost) == 0
        assert list(superpost) == []

    def test_constructor_drops_duplicates(self):
        superpost = Superpost([_posting(1), _posting(2), _posting(2), _posting(3)])
        assert len(superpost) == 3

    def test_contains(self):
        for superpost in (Superpost({_posting(1)}), _long({1})):
            assert _posting(1) in superpost
            assert _posting(2) not in superpost
            assert Posting("elsewhere", 10, 10) not in superpost
            assert "corpus" not in superpost

    def test_sorted_postings_deterministic(self):
        superpost = Superpost({_posting(3), _posting(1), _posting(2)})
        assert list(superpost) == [_posting(1), _posting(2), _posting(3)]

    def test_representation_follows_length(self):
        at_crossover = Superpost(_posting(index) for index in range(CROSSOVER))
        beyond = Superpost(_posting(index) for index in range(CROSSOVER + 1))
        assert "tuple" in repr(at_crossover) and "columns" in repr(beyond)
        assert list(beyond) == [_posting(index) for index in range(CROSSOVER + 1)]

    def test_indexing_and_slicing_match_a_list(self):
        reference = [_posting(index) for index in range(CROSSOVER + 40)]
        for superpost in (Superpost(reference[:20]), Superpost(reference)):
            expected = reference[: len(superpost)]
            assert superpost[0] == expected[0] and superpost[-1] == expected[-1]
            assert superpost[3:9] == expected[3:9]
            assert superpost[::7] == expected[::7]
            assert superpost[::-1] == expected[::-1]
            assert superpost.take(5, 8) == expected[5:8]
            with pytest.raises(IndexError):
                superpost[len(expected)]

    def test_document_bytes_sums_lengths(self):
        assert Superpost({_posting(1), _posting(2)}).document_bytes() == 20
        assert _long({1, 2}).document_bytes() == 20 + CROSSOVER + 1

    def test_postings_differing_in_length_alone_stay_distinct(self):
        twins = {Posting("corpus", 10, 5), Posting("corpus", 10, 7), Posting("corpus", 10, 9)}
        padding = {Posting("corpus", 1000 + at, 1) for at in range(CROSSOVER)}
        superpost = Superpost(twins | padding)
        assert "columns" in repr(superpost)
        assert superpost[:3] == sorted(twins)
        assert Posting("corpus", 10, 7) in superpost
        assert Posting("corpus", 10, 6) not in superpost
        other = Superpost({Posting("corpus", 10, 9), Posting("corpus", 10, 6)} | padding)
        assert set(Superpost.intersect_all([superpost, other])) == {
            Posting("corpus", 10, 9)
        } | padding
        assert set(superpost.difference(other)) == {
            Posting("corpus", 10, 5),
            Posting("corpus", 10, 7),
        }

    def test_offsets_beyond_the_packed_key_stay_a_tuple(self):
        far = Posting("corpus", OFFSET_LIMIT + 5, 1)
        alias = Posting("padding", 5, 1)  # the key a truncated ``far`` would share
        superpost = Superpost({far} | {Posting("padding", at, 1) for at in range(CROSSOVER + 1)})
        assert "tuple" in repr(superpost) and far in superpost
        columns = _long(set())
        assert alias in columns and far not in columns
        assert list(Superpost.intersect_all([columns, Superpost({far, alias})])) == [alias]
        assert far in Superpost.union_all([columns, Superpost({far})])
        assert list(Superpost({far, alias}).difference(columns)) == [far]

    def test_unordered_columns_are_rejected(self):
        import numpy as np

        rank = np.zeros(3, np.int64)
        length = np.ones(3, np.int64)
        with pytest.raises(ValueError):
            Superpost.from_columns(("corpus",), rank, np.array([5, 3, 9]), length)
        with pytest.raises(ValueError):  # a repeated posting
            Superpost.from_columns(("corpus",), rank, np.array([3, 3, 9]), length)


class TestSetAlgebra:
    def test_union(self):
        a = Superpost({_posting(1), _posting(2)})
        b = Superpost({_posting(2), _posting(3)})
        assert list(Superpost.union_all([a, b])) == [_posting(1), _posting(2), _posting(3)]
        assert _unpadded(Superpost.union_all([a, _long({2, 3})])) == {
            _posting(1),
            _posting(2),
            _posting(3),
        }

    def test_intersect(self):
        a = Superpost({_posting(1), _posting(2)})
        b = Superpost({_posting(2), _posting(3)})
        assert list(Superpost.intersect_all([a, b])) == [_posting(2)]
        assert list(Superpost.intersect_all([a, _long({2, 3})])) == [_posting(2)]
        assert _unpadded(Superpost.intersect_all([_long({1, 2}), _long({2, 3})])) == {_posting(2)}

    def test_difference(self):
        a = Superpost({_posting(1), _posting(2)})
        assert list(a.difference(Superpost({_posting(2), _posting(3)}))) == [_posting(1)]
        assert list(a.difference(_long({2, 3}))) == [_posting(1)]
        assert _unpadded(_long({1, 2}).difference(Superpost({_posting(2)}))) == {_posting(1)}
        assert a.difference(Superpost()) is a

    def test_split_separates_the_condemned(self):
        exclude = frozenset({_posting(2), _posting(9), Posting("elsewhere", 0, 1)})
        for superpost in (Superpost({_posting(1), _posting(2)}), _long({1, 2})):
            kept, condemned = superpost.split(exclude)
            assert _unpadded(kept) == {_posting(1)}
            assert list(condemned) == [_posting(2)]
        # More tombstones than postings: the list probes into the set instead.
        many = frozenset(_posting(index) for index in range(2, 4 * CROSSOVER))
        kept, condemned = _long({1, 2}).split(many)
        assert _unpadded(kept) == {_posting(1)} and list(condemned) == [_posting(2)]

    def test_union_and_intersect_do_not_mutate_inputs(self):
        a = Superpost({_posting(1)})
        b = Superpost({_posting(2)})
        Superpost.union_all([a, b])
        Superpost.intersect_all([a, b])
        assert list(a) == [_posting(1)]
        assert list(b) == [_posting(2)]

    def test_intersect_all_of_multiple_sets(self):
        layers = [
            Superpost({_posting(1), _posting(2), _posting(3)}),
            Superpost({_posting(2), _posting(3), _posting(4)}),
            Superpost({_posting(3), _posting(5)}),
        ]
        assert list(Superpost.intersect_all(layers)) == [_posting(3)]

    def test_intersect_all_short_circuits_on_empty(self):
        layers = [Superpost({_posting(1)}), Superpost(), Superpost({_posting(1)})]
        assert len(Superpost.intersect_all(layers)) == 0

    def test_intersect_all_of_nothing_is_empty(self):
        assert len(Superpost.intersect_all([])) == 0

    def test_union_all(self):
        layers = [Superpost({_posting(1)}), Superpost({_posting(2)}), Superpost()]
        assert list(Superpost.union_all(layers)) == [_posting(1), _posting(2)]

    def test_union_all_of_nothing_is_empty(self):
        assert len(Superpost.union_all([])) == 0

    def test_lists_over_different_blob_names_align(self):
        left = Superpost(
            {Posting("b", at, 1) for at in range(CROSSOVER + 1)} | {Posting("d", 7, 1)}
        )
        right = Superpost(
            {Posting("a", at, 1) for at in range(CROSSOVER + 1)}
            | {Posting("b", 3, 1), Posting("c", 7, 1), Posting("d", 7, 1)}
        )
        assert list(Superpost.intersect_all([left, right])) == [
            Posting("b", 3, 1),
            Posting("d", 7, 1),
        ]
        merged = Superpost.union_all([left, right])
        assert list(merged) == sorted(set(left) | set(right))
        assert list(left.difference(right)) == sorted(set(left) - set(right))
