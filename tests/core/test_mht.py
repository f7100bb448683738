"""Unit tests for the Multilayer Hash Table."""

import numpy as np
import pytest

from repro.core.hashing import LayeredHasher
from repro.core.mht import BinPointer, MultilayerHashTable
from repro.storage.base import RangeRead


def _mht(
    num_layers: int = 2,
    bins_per_layer: int = 4,
    skip: frozenset[int] = frozenset(),
    common: dict[str, tuple[int, int]] | None = None,
    dtype: type = np.uint32,
) -> MultilayerHashTable:
    """Every bin whose flat id is not in ``skip`` points at its own 10 bytes."""
    hasher = LayeredHasher.build(num_layers, bins_per_layer, seed=1)
    ids = [flat for flat in range(num_layers * bins_per_layer) if flat not in skip]
    common = common or {}
    return MultilayerHashTable(
        hasher=hasher,
        blob="superposts",
        blob_bytes=num_layers * bins_per_layer * 10 + 1000,
        bin_ids=np.array(ids, dtype=np.uint32),
        offsets=np.array([flat * 10 for flat in ids], dtype=dtype),
        lengths=np.array([10] * len(ids), dtype=dtype),
        common_words=sorted(common),
        common_offsets=np.array([common[word][0] for word in sorted(common)], dtype=dtype),
        common_lengths=np.array([common[word][1] for word in sorted(common)], dtype=dtype),
    )


class TestBinPointer:
    def test_to_range_read(self):
        pointer = BinPointer(blob="s", offset=5, length=20)
        assert pointer.to_range_read() == RangeRead(blob="s", offset=5, length=20)

    def test_is_empty(self):
        assert BinPointer("s", 0, 0).is_empty
        assert not BinPointer("s", 0, 1).is_empty

    def test_validation(self):
        with pytest.raises(ValueError):
            BinPointer("s", -1, 0)
        with pytest.raises(ValueError):
            BinPointer("s", 0, -1)


class TestMultilayerHashTable:
    def test_structure_properties(self):
        mht = _mht(3, 5)
        assert mht.num_layers == 3
        assert mht.bins_per_layer == 5
        assert mht.num_common_words == 0

    def test_pointer_table_shape_validated(self):
        hasher = LayeredHasher.build(2, 4, seed=0)
        u32 = lambda *values: np.array(values, dtype=np.uint32)  # noqa: E731

        def table(ids, offsets, lengths, blob_bytes=100, **common):
            return MultilayerHashTable(hasher, "s", blob_bytes, ids, offsets, lengths, **common)

        table(u32(0, 7), u32(0, 10), u32(10, 90))  # the well-formed baseline
        with pytest.raises(ValueError):
            table(u32(0, 8), u32(0, 10), u32(10, 90))  # id outside L × B
        with pytest.raises(ValueError):
            table(u32(3, 3), u32(0, 10), u32(10, 90))  # ids not strictly increasing
        with pytest.raises(ValueError):
            table(u32(0, 7), u32(0), u32(10, 90))  # column lengths disagree
        with pytest.raises(ValueError):
            table(u32(0, 7), u32(0, 10), u32(10, 91))  # offset + length past the blob
        with pytest.raises(ValueError):
            table(u32(0, 7), u32(0, 10), np.array([10, 90], dtype=np.uint64))  # mixed widths
        with pytest.raises(ValueError):
            table(np.array([0, 7]), u32(0, 10), u32(10, 90))  # ids must be u32
        with pytest.raises(ValueError):
            table(u32(0), u32(0), u32(1), common_words=["a", "a"],
                  common_offsets=u32(0, 0), common_lengths=u32(1, 1))  # duplicate word
        with pytest.raises(ValueError):
            table(u32(0), u32(0), u32(1), blob_bytes=-1)

    def test_u64_offset_cannot_wrap_the_bounds_check(self):
        hasher = LayeredHasher.build(1, 4, seed=0)
        huge = np.array([2**64 - 1], dtype=np.uint64)
        with pytest.raises(ValueError):
            MultilayerHashTable(
                hasher, "s", 100, np.array([0], dtype=np.uint32), huge, np.array([2], np.uint64)
            )

    def test_pointers_for_regular_word_returns_one_per_layer(self):
        mht = _mht(3, 4)
        pointers = mht.pointers_for("keyword")
        assert len(pointers) == 3
        bins = mht.hasher.bins_of("keyword")
        for layer, (pointer, bin_index) in enumerate(zip(pointers, bins)):
            assert pointer == mht.pointer_of(layer, bin_index)
            assert pointer == BinPointer("superposts", (layer * 4 + bin_index) * 10, 10)

    def test_pointers_for_common_word_returns_single_pointer(self):
        mht = _mht(common={"the": (999, 5)})
        assert mht.pointers_for("the") == [BinPointer("superposts", 999, 5)]
        assert mht.is_common("the")
        assert not mht.is_common("rare")

    def test_absent_id_is_the_canonical_empty_bin(self):
        mht = _mht(2, 4, skip=frozenset(range(8)))
        assert mht.pointers_for("keyword") == [BinPointer("superposts", 0, 0)] * 2
        assert mht.range_reads_for("keyword") == []

    def test_range_reads_skip_empty_bins(self):
        word = "keyword"
        first_bin = LayeredHasher.build(2, 4, seed=1).bins_of(word)[0]
        mht = _mht(2, 4, skip=frozenset({first_bin}))
        reads = mht.range_reads_for(word)
        assert len(reads) == 1

    def test_u64_columns_answer_like_u32(self):
        narrow, wide = _mht(2, 4), _mht(2, 4, dtype=np.uint64)
        assert wide.pointers_for("keyword") == narrow.pointers_for("keyword")
        assert wide.memory_bytes() > narrow.memory_bytes()

    def test_memory_bytes_scales_with_bins_and_common_words(self):
        # The columns' real size: a u32 id, offset and length per stored bin,
        # offset and length per common word — nothing for empty bins.
        assert _mht(2, 4).memory_bytes() == 8 * 12
        assert _mht(2, 4, skip=frozenset({0, 5})).memory_bytes() == 6 * 12
        assert _mht(2, 4, common={"the": (0, 1)}).memory_bytes() == 8 * 12 + 8

    def test_ranges_cover_bins_then_common_words(self):
        mht = _mht(1, 2, common={"the": (500, 7)})
        assert list(mht.ranges()) == [(0, 10), (10, 10), (500, 7)]
