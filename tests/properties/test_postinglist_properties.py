"""Property tests: ``Superpost`` algebra ≡ the frozenset semantics it replaced.

Operands are drawn on both sides of the representation crossover (tuples of
``Posting`` at or below ``CROSSOVER``, columns above it) and mixed, over one
to three blob names, with postings that differ in length alone, and arrive
the ways the query path makes them: sorted from a set, or decoded (v1 / v2)
against string tables that interned their names in different orders — so two
operands rarely rank their blobs alike.  Every result must equal the plain
set operation, in ``sorted(set)`` order.
"""

from hypothesis import given, settings, strategies as st

from repro.core.superpost import CROSSOVER, Superpost
from repro.index.serialization import StringTable, decode_superpost, encode_superpost
from repro.parsing.documents import Posting

NAMES = ["a", "b", "corpus/with/long/name.txt"]


@st.composite
def operands(draw, long: bool | None = None) -> tuple[frozenset[Posting], Superpost]:
    """A set of postings and the ``Superpost`` of it, built one of three ways."""
    long = draw(st.booleans()) if long is None else long
    names = draw(st.lists(st.sampled_from(NAMES), min_size=1, max_size=3, unique=True))
    cells = st.builds(
        Posting,
        blob=st.sampled_from(names),
        offset=st.integers(0, 250),
        length=st.sampled_from([1, 2, 7]),
    )
    if long:
        postings = draw(st.frozensets(cells, min_size=CROSSOVER + 1, max_size=3 * CROSSOVER))
    else:
        postings = draw(st.frozensets(cells, max_size=40))
    version = draw(st.sampled_from([None, 1, 2]))
    if version is None:
        return postings, Superpost(postings)
    # A table that already interned some names, in an order of its own.
    table = StringTable(draw(st.lists(st.sampled_from(NAMES + ["zz"]), unique=True)))
    decoded = decode_superpost(encode_superpost(postings, table, version), table, version)
    return postings, decoded


def _is(result: Superpost, expected) -> bool:
    return list(result) == sorted(expected) and len(result) == len(expected)


class TestAlgebraMatchesSets:
    @given(pairs=st.lists(operands(), min_size=1, max_size=4))
    @settings(max_examples=120, deadline=None)
    def test_intersect_all(self, pairs):
        expected = frozenset.intersection(*(postings for postings, _ in pairs))
        assert _is(Superpost.intersect_all(superpost for _, superpost in pairs), expected)

    @given(pairs=st.lists(operands(), min_size=0, max_size=4))
    @settings(max_examples=120, deadline=None)
    def test_union_all(self, pairs):
        expected = frozenset().union(*(postings for postings, _ in pairs))
        assert _is(Superpost.union_all(superpost for _, superpost in pairs), expected)

    @given(left=operands(), right=operands())
    @settings(max_examples=150, deadline=None)
    def test_difference(self, left, right):
        assert _is(left[1].difference(right[1]), left[0] - right[0])

    @given(left=operands(long=True), right=operands(long=True))
    @settings(max_examples=40, deadline=None)
    def test_long_lists_over_different_name_tables(self, left, right):
        assert _is(Superpost.intersect_all([left[1], right[1]]), left[0] & right[0])
        assert _is(Superpost.union_all([left[1], right[1]]), left[0] | right[0])
        assert _is(left[1].difference(right[1]), left[0] - right[0])

    @given(
        held=operands(),
        tombstones=operands(),
        strangers=st.frozensets(
            st.builds(Posting, blob=st.just("elsewhere"), offset=st.integers(0, 9), length=st.just(1))
        ),
    )
    @settings(max_examples=150, deadline=None)
    def test_split_is_tombstone_exclusion(self, held, tombstones, strangers):
        exclude = tombstones[0] | strangers  # any set, in no order, either size
        kept, condemned = held[1].split(exclude)
        assert _is(kept, held[0] - exclude)
        assert _is(condemned, held[0] & exclude)

    @given(held=operands(), probes=operands(long=False))
    @settings(max_examples=60, deadline=None)
    def test_membership(self, held, probes):
        for posting in probes[0]:
            assert (posting in held[1]) == (posting in held[0])

    @given(held=operands(), start=st.integers(0, 400), size=st.integers(0, 60))
    @settings(max_examples=80, deadline=None)
    def test_take_is_a_slice_of_the_sorted_set(self, held, start, size):
        reference = sorted(held[0])
        assert held[1].take(start, start + size) == reference[start : start + size]
        assert held[1].document_bytes() == sum(posting.length for posting in reference)
