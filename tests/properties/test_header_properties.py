"""Property-based round trips of the v3 header container.

Whatever sketch went in — nothing inserted at all, every word a common word,
a single layer, a table whose offsets need 64 bits — the table that comes out
of ``decode_header(encode_header(...))`` answers ``pointers_for`` exactly as
the table that went in, for inserted and absent words alike, and each pointer
still decodes to the superpost of its bin.  A sharded build's header round-trips
its manifest and its split of every run among the shards — whose shares,
unioned, are exactly the one-shard build's superposts — and every
truncation and every single-byte flip of it is a ``CorruptIndexError`` (or,
for a flip of its leading byte to ``{`` or of its container version,
``UnsupportedIndexFormatError``) — never another exception.
"""

from __future__ import annotations

import numpy as np
import pytest
from harness.shards import share_ranges
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.common_words import CommonWordTable
from repro.core.config import SketchConfig
from repro.core.hashing import LayeredHasher
from repro.core.mht import MultilayerHashTable
from repro.core.sketch import IoUSketch
from repro.index.builder import AirphantBuilder
from repro.index.compaction import (
    HEADER_MAGIC,
    CompactedSketch,
    compact_sketch,
    decode_build_header,
    decode_header,
    encode_header,
)
from repro.index.serialization import StringTable, decode_superpost
from repro.index.store_layout import CorruptIndexError, UnsupportedIndexFormatError
from repro.parsing.documents import Posting
from repro.storage.memory import InMemoryObjectStore

from harness.legacy_header import coaccess_of, encode_plain_v3_header

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
    max_size=6,
)

ABSENT_WORDS = ["ABSENT", "Never-Inserted", "∅"]  # outside the word alphabet


class TestSketchHeaderRoundTrip:
    @given(
        corpus=st.dictionaries(words_strategy, postings_strategy, max_size=30),
        common_share=st.sampled_from([0.0, 0.3, 1.0]),
        num_layers=st.integers(min_value=1, max_value=5),
        bins_per_layer=st.integers(min_value=1, max_value=40),
        seed=st.integers(0, 1000),
        weighted=st.booleans(),
    )
    @settings(max_examples=120, deadline=None)
    def test_pointers_survive_encode_decode(
        self, corpus, common_share, num_layers, bins_per_layer, seed, weighted
    ):
        words = sorted(corpus)
        common = CommonWordTable()
        for word in words[: int(len(words) * common_share)]:
            common.register(word)
        sketch = IoUSketch.build(
            num_layers, num_layers * bins_per_layer, seed=seed, common_words=common
        )
        for word, postings in corpus.items():
            sketch.insert(word, postings)
        weights = {word: len(postings) for word, postings in corpus.items()}
        before = compact_sketch(
            sketch,
            "idx/superposts.bin",
            coaccess=coaccess_of(sketch, weights) if weighted else None,
        )
        data = encode_header(before)
        after = decode_header(data)

        assert after.string_table.to_list() == before.string_table.to_list()
        assert after.mht.memory_bytes() == before.mht.memory_bytes()
        for word in words + ABSENT_WORDS:
            assert after.mht.pointers_for(word) == before.mht.pointers_for(word)
            assert after.mht.is_common(word) == (word in common)

        # The pre-encode table is itself right: every pointer decodes to the
        # superpost of the bin (or the exact list of the common word).
        for word in words:
            if word in common:
                superposts = [sketch.common_words.postings_by_word[word]]
            else:
                superposts = sketch.layer_superposts(word)
            for pointer, superpost in zip(after.mht.pointers_for(word), superposts):
                payload = before.superpost_blob_data[
                    pointer.offset : pointer.offset + pointer.length
                ]
                assert pointer.length > 0
                decoded = decode_superpost(payload, after.string_table)
                assert set(decoded) == superpost

    def test_all_empty_sketch_has_no_pointer_rows(self):
        empty = compact_sketch(IoUSketch.build(3, 30_000, seed=1), "s.bin")
        data = encode_header(empty)
        assert len(data) < 512  # nothing stored: preamble only, not 30 000 pairs
        decoded = decode_header(data)
        assert len(decoded.mht.bin_ids) == 0
        assert all(pointer.is_empty for pointer in decoded.mht.pointers_for("anything"))


class TestWideTableRoundTrip:
    @given(
        bins=st.sets(st.integers(min_value=0, max_value=199), max_size=40),
        base=st.sampled_from([0, 2**32 - 50, 2**32, 2**40]),
        lengths=st.lists(st.integers(min_value=1, max_value=5000), min_size=41, max_size=41),
        common_length=st.integers(min_value=0, max_value=100),
    )
    @settings(max_examples=100, deadline=None)
    def test_offsets_beyond_u32_widen_to_u64_and_round_trip(
        self, bins, base, lengths, common_length
    ):
        # No 4 GiB blob is needed to exercise the wide columns: the table is
        # built directly, its superposts starting ``base`` bytes into the blob.
        ids = sorted(bins)
        offsets = [base + sum(lengths[:row]) for row in range(len(ids))]
        common_offset = base + sum(lengths[: len(ids)])
        blob_bytes = common_offset + common_length
        dtype = np.uint32 if blob_bytes < 2**32 else np.uint64
        table = MultilayerHashTable(
            hasher=LayeredHasher.build(4, 50, seed=9),
            blob="wide/superposts.bin",
            blob_bytes=blob_bytes,
            bin_ids=np.array(ids, dtype=np.uint32),
            offsets=np.array(offsets, dtype=dtype),
            lengths=np.array(lengths[: len(ids)], dtype=dtype),
            common_words=["the"],
            common_offsets=np.array([common_offset], dtype=dtype),
            common_lengths=np.array([common_length], dtype=dtype),
        )
        compacted = CompactedSketch(b"", table, StringTable(["blob-a"]))
        data = encode_header(compacted)
        # A plain header is unpadded, so one written before sharded headers
        # padded their columns (u64 pointers, an odd number of bins) is
        # exactly this blob and keeps opening.
        assert data == encode_plain_v3_header(compacted)
        decoded = decode_header(data).mht
        assert decoded.offsets.itemsize == (4 if blob_bytes < 2**32 else 8)
        assert decoded.blob_bytes == blob_bytes
        for layer in range(4):
            for bin_index in range(50):
                flat = layer * 50 + bin_index
                pointer = decoded.pointer_of(layer, bin_index)
                assert pointer == table.pointer_of(layer, bin_index)
                if flat in bins:
                    row = ids.index(flat)
                    assert (pointer.offset, pointer.length) == (offsets[row], lengths[row])
                else:
                    assert (pointer.offset, pointer.length) == (0, 0)
        assert decoded.pointers_for("the") == table.pointers_for("the")
        assert decoded.pointers_for("the")[0].offset == common_offset

    def test_a_wide_header_with_an_odd_number_of_bins_opens_as_written(self):
        # u64 pointers and three u32 bin ids: the blob ends 4 bytes past an
        # 8-byte boundary, with no padding after the last id.
        wide = np.array([2**33, 2**33 + 7, 2**33 + 20], dtype=np.uint64)
        table = MultilayerHashTable(
            hasher=LayeredHasher.build(2, 10, seed=4),
            blob="wide/superposts.bin",
            blob_bytes=2**33 + 40,
            bin_ids=np.array([1, 12, 19], dtype=np.uint32),
            offsets=wide,
            lengths=np.array([7, 13, 5], dtype=np.uint64),
            common_words=["a", "the"],
            common_offsets=np.array([2**33 + 25, 2**33 + 30], dtype=np.uint64),
            common_lengths=np.array([5, 10], dtype=np.uint64),
        )
        data = encode_plain_v3_header(CompactedSketch(b"", table, StringTable(["blob-a"])))
        assert len(data) % 8 == 4
        decoded = decode_header(data).mht
        assert decoded.offsets.itemsize == 8
        for word in ["a", "the", "error", "disk"]:
            assert decoded.pointers_for(word) == table.pointers_for(word)
        assert decoded.pointer_of(1, 9) == table.pointer_of(1, 9)
        assert decode_build_header(data, "wide").manifest is None


SHARD_CONFIG = SketchConfig(num_bins=64, seed=3, common_word_fraction=0.1)


def _build(lines: list[str], num_shards: int, config: SketchConfig = SHARD_CONFIG):
    """The store holding ``idx``, built over ``lines`` with ``num_shards`` shards."""
    store = InMemoryObjectStore()
    store.put("corpus.txt", "\n".join(lines).encode())
    AirphantBuilder(store, config=config, num_shards=num_shards).build_from_blobs(
        ["corpus.txt"], index_name="idx"
    )
    return store


def _one_shard_budget(num_shards: int) -> SketchConfig:
    """The one-shard config of the same sketch as ``SHARD_CONFIG`` over
    ``num_shards`` shards: each shard's hashed bins, and the common words once."""
    common = SHARD_CONFIG.common_word_bins
    num_bins = SHARD_CONFIG.sketch_bins * num_shards + common
    return SketchConfig(num_bins=num_bins, seed=3, common_word_fraction=(common + 0.5) / num_bins)


def _sharded_header() -> bytes:
    """A small three-shard build's header."""
    lines = [f"error node{n % 5} disk {n} info heartbeat warn{n % 3}" for n in range(30)]
    return _build(lines, 3).get("idx/header.json")


SHARDED_HEADER = _sharded_header()


def _decoded(store: InMemoryObjectStore, header: CompactedSketch, offset: int, length: int):
    payload = store.get("idx/superposts.bin")[offset : offset + length]
    return set(decode_superpost(payload, header.string_table))


class TestShardedHeader:
    def test_round_trips_the_manifest_and_the_split_of_every_run(self):
        manifest = decode_build_header(SHARDED_HEADER, "idx").manifest
        header = decode_header(SHARDED_HEADER)
        assert SHARDED_HEADER.startswith(HEADER_MAGIC)
        assert header.shards.manifest == manifest
        assert manifest.shard_names == [f"idx/shard-000{shard}" for shard in range(3)]
        assert encode_header(header) == SHARDED_HEADER
        # Each run is its shards' shares back to back: the split adds up.
        for row, (_, length) in enumerate(header.mht.ranges()):
            assert header.shards.by_run[row].sum() == length

    @given(
        lines=st.lists(
            st.lists(words_strategy, min_size=1, max_size=5).map(" ".join),
            min_size=1,
            max_size=25,
        ),
        num_shards=st.integers(min_value=2, max_value=6),
    )
    @settings(max_examples=40, deadline=None)
    def test_the_shares_of_every_run_union_to_the_one_shard_superpost(self, lines, num_shards):
        # A sharded build is the one-shard sketch of its budget, cut by shard.
        whole, split = _build(lines, 1, _one_shard_budget(num_shards)), _build(lines, num_shards)
        plain = decode_header(whole.get("idx/header.json"))
        runs = decode_header(split.get("idx/header.json"))
        assert encode_header(runs) == split.get("idx/header.json")
        assert list(runs.mht.bin_ids) == list(plain.mht.bin_ids)
        assert runs.mht.common_words == plain.mht.common_words
        # The statistics are the build's: one blob, the one-shard build's.
        assert split.get("idx/stats.json") == whole.get("idx/stats.json")
        assert split.list_blobs("idx/shard-") == []
        blob = split.get("idx/superposts.bin")
        for row, ((offset, length), run) in enumerate(zip(plain.mht.ranges(), runs.mht.ranges())):
            union: set[Posting] = set()
            for share in share_ranges(runs, row, run[0]):
                if share[1]:
                    union |= _decoded(split, runs, *share)
            assert union == _decoded(whole, plain, offset, length)
            # The run decoder cuts the whole run by the split and unions.
            decoded = runs.decode_run(row, blob[run[0] : run[0] + run[1]])
            assert set(decoded) == union

    @given(cut=st.integers(min_value=0, max_value=len(SHARDED_HEADER) - 1))
    @settings(max_examples=300, deadline=None)
    def test_every_truncation_is_corrupt(self, cut):
        with pytest.raises(CorruptIndexError, match="idx/header.json"):
            decode_build_header(SHARDED_HEADER[:cut], "idx")

    @given(
        position=st.integers(min_value=0, max_value=len(SHARDED_HEADER) - 1),
        flip=st.integers(min_value=1, max_value=255),
    )
    @settings(max_examples=500, deadline=None)
    def test_every_single_byte_flip_is_corrupt(self, position, flip):
        data = bytearray(SHARDED_HEADER)
        data[position] ^= flip
        # Unless the flip declares another container — a leading ``{`` (a
        # JSON header) or another container version — which is the typed
        # "rebuild" error instead.  The codec version sits under the checksum:
        # flipping it is corruption like any other byte.
        declares = data[0] == ord("{") or position in range(8, 12)
        error = UnsupportedIndexFormatError if declares else CorruptIndexError
        with pytest.raises(error, match="idx/header.json"):
            decode_build_header(bytes(data), "idx")
