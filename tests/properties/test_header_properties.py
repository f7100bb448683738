"""Property-based round trips of the v3 header container.

Whatever sketch went in — nothing inserted at all, every word a common word,
a single layer, a table whose offsets need 64 bits — the table that comes out
of ``decode_header(encode_header(...))`` answers ``pointers_for`` exactly as
the table that went in, for inserted and absent words alike, and each pointer
still decodes to the superpost of its bin.  The legacy JSON form of the same
header decodes to the same answers.  A sharded build's container round-trips
its manifest and shard headers, and every truncation and every single-byte
flip of it is a ``CorruptIndexError`` — never another exception.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.common_words import CommonWordTable
from repro.core.config import SketchConfig
from repro.core.hashing import LayeredHasher
from repro.core.mht import MultilayerHashTable
from repro.core.sketch import IoUSketch
from repro.index.builder import AirphantBuilder
from repro.index.compaction import (
    SHARDED_HEADER_MAGIC,
    CompactedSketch,
    compact_sketch,
    decode_build_header,
    decode_header,
    encode_header,
    encode_sharded_header,
)
from repro.index.serialization import StringTable, decode_superpost
from repro.index.store_layout import CorruptIndexError
from repro.parsing.documents import Posting
from repro.storage.memory import InMemoryObjectStore

from harness.legacy_header import encode_legacy_header

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
            word_weights=weights if weighted else None,
        )
        data = encode_header(before)
        after = decode_header(data)

        assert after.format_version == before.format_version == 2
        assert after.string_table.to_list() == before.string_table.to_list()
        assert after.mht.memory_bytes() == before.mht.memory_bytes()
        legacy = decode_header(encode_legacy_header(before))
        for word in words + ABSENT_WORDS:
            expected = before.mht.pointers_for(word)
            assert after.mht.pointers_for(word) == expected
            assert legacy.mht.pointers_for(word) == expected
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
                decoded = decode_superpost(payload, after.string_table, after.format_version)
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
        data = encode_header(CompactedSketch(b"", table, StringTable(["blob-a"])))
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


def _sharded_header() -> bytes:
    """A small three-shard build's header container."""
    store = InMemoryObjectStore()
    corpus = b"\n".join(
        f"error node{n % 5} disk {n} info heartbeat warn{n % 3}".encode() for n in range(30)
    )
    store.put("corpus.txt", corpus)
    AirphantBuilder(store, config=SketchConfig(num_bins=64, seed=3), num_shards=3).build_from_blobs(
        ["corpus.txt"], index_name="idx"
    )
    return store.get("idx/header.json")


SHARDED_HEADER = _sharded_header()


class TestShardedHeaderContainer:
    def test_round_trips_the_manifest_and_every_shard_header(self):
        manifest, members = decode_build_header(SHARDED_HEADER, "idx")
        assert SHARDED_HEADER.startswith(SHARDED_HEADER_MAGIC)
        assert [name for name, _ in members] == manifest.shard_names
        assert encode_sharded_header(manifest, [encode_header(h) for _, h in members]) == (
            SHARDED_HEADER
        )

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
        with pytest.raises(CorruptIndexError, match="idx/header.json"):
            decode_build_header(bytes(data), "idx")
