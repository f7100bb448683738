"""A sharded build's runs, as its header splits them and a lookup decodes them.

Each bin's and common word's shard superposts sit back to back in one run of
``superposts.bin``; the header holds the run and each shard's length in it.
Pinned here:

* the split has a row per run, the hashed bins' then the common words', and
  a column per shard (:attr:`ShardedRuns.by_run`);
* the run decoder cuts a whole run by the split, decodes each non-empty
  share and unions them, and a byte that breaks one share is a
  :class:`CorruptIndexError` naming the blob;
* a header whose split does not add up to its runs does not open;
* a header's metadata is its shards' merged.
"""

from __future__ import annotations

import numpy as np
import pytest
from harness.shards import share_ranges

from repro.core.config import SketchConfig
from repro.core.hashing import LayeredHasher
from repro.core.mht import MultilayerHashTable
from repro.index.builder import AirphantBuilder
from repro.index.compaction import (
    CompactedSketch,
    ShardedRuns,
    decode_build_header,
    decode_header,
    encode_header,
)
from repro.index.metadata import ShardEntry, ShardManifest
from repro.index.serialization import StringTable, decode_superpost
from repro.index.store_layout import CorruptIndexError
from repro.search.searcher import AirphantSearcher
from repro.storage.memory import InMemoryObjectStore
from repro.workloads.logs import generate_log_corpus

CONFIG = SketchConfig(num_bins=256, target_false_positives=1.0, seed=7)
NUM_SHARDS = 4


def _runs(lengths, common_lengths) -> CompactedSketch:
    """One layer of two 10-byte bin runs and "the", a 7-byte run at 500,
    split among one shard per row of ``lengths``."""
    hasher = LayeredHasher.build(1, 2, seed=1)
    u32 = lambda *values: np.array(values, dtype=np.uint32)  # noqa: E731
    mht = MultilayerHashTable(
        hasher, "superposts", 1000, u32(0, 1), u32(0, 10), u32(10, 10), ["the"], u32(500), u32(7)
    )
    names = [f"idx/shard-{shard:04d}" for shard in range(len(lengths))]
    manifest = ShardManifest("idx", shards=tuple(ShardEntry(name) for name in names))
    runs = ShardedRuns(manifest, (None,) * len(names), lengths, common_lengths)
    return CompactedSketch(b"", mht, StringTable(), shards=runs)


def _built() -> InMemoryObjectStore:
    store = InMemoryObjectStore()
    corpus = generate_log_corpus(store, "hdfs", 300, seed=5)
    AirphantBuilder(store, config=CONFIG, num_shards=NUM_SHARDS).build_from_blobs(
        corpus.blob_names, index_name="idx"
    )
    return store


def _shared_run(header: CompactedSketch) -> tuple[str, int, int, int]:
    """A common word every shard holds, and ``(row, offset, length)`` of its run."""
    for word in header.mht.common_words:
        (pointer,) = header.mht.pointers_for(word)
        if np.all(header.shards.by_run[pointer.row] > 0):
            return word, pointer.row, pointer.offset, pointer.length
    raise AssertionError("no common word is in every shard")


class TestTheSplit:
    def test_each_shard_starts_where_the_shards_before_it_end(self):
        # Every bin is a 10-byte run; "the" a 7-byte one.  Three shards: the
        # first holds 4 bytes of each bin run, the second none, the third 6.
        header = _runs(
            np.array([[4, 4], [0, 0], [6, 6]], np.uint8), np.array([[7], [0], [0]], np.uint16)
        )
        assert header.shards.by_run.tolist() == [[4, 0, 6], [4, 0, 6], [7, 0, 0]]
        runs = list(header.mht.ranges())
        assert [share_ranges(header, row, offset) for row, (offset, _) in enumerate(runs)] == [
            [(0, 4), (4, 0), (4, 6)],
            [(10, 4), (14, 0), (14, 6)],
            [(500, 7), (507, 0), (507, 0)],
        ]

    def test_shares_that_do_not_add_up_to_their_run_do_not_decode(self):
        store = _built()
        data = store.get("idx/header.json")
        header = decode_build_header(data, "idx")
        assert header.mht.offsets.itemsize == 4
        _, row, _, _ = _shared_run(header)
        # Shard 0's share of a common word's run grows by 2**32: the run's u32
        # length wraps back to the same value, so only the split gives it away.
        common = header.shards.common_lengths.astype(np.uint64)
        common[0, row - len(header.mht.bin_ids)] += 1 << 32
        forged = encode_header(
            CompactedSketch(
                b"", header.mht, header.string_table, header.metadata,
                ShardedRuns(header.manifest, header.shards.metadata, header.shards.lengths,
                            common),
            )
        )
        with pytest.raises(CorruptIndexError, match="idx/header.json") as caught:
            decode_build_header(forged, "idx")
        assert "do not add up" in str(caught.value)

    def test_a_split_without_a_column_per_run_does_not_decode(self):
        header = decode_header(_built().get("idx/header.json"))
        lengths = header.shards.lengths[:, :-1]
        forged = encode_header(
            CompactedSketch(
                b"", header.mht, header.string_table, header.metadata,
                ShardedRuns(header.manifest, header.shards.metadata, lengths,
                            header.shards.common_lengths),
            )
        )
        with pytest.raises(CorruptIndexError, match="idx/header.json"):
            decode_build_header(forged, "idx")


class TestTheRunDecoder:
    def test_a_run_is_the_union_of_its_shares(self):
        store = _built()
        header = decode_header(store.get("idx/header.json"))
        blob = store.get("idx/superposts.bin")
        _, row, offset, length = _shared_run(header)
        shares = [
            set(decode_superpost(blob[start : start + size], header.string_table))
            for start, size in share_ranges(header, row, offset)
        ]
        # Shards partition the documents: their shares are disjoint.
        assert sum(map(len, shares)) == len(set().union(*shares))
        whole = header.decode_run(row, blob[offset : offset + length])
        assert set(whole) == set().union(*shares)

    def test_a_payload_that_is_not_its_shares_length_is_corrupt(self):
        store = _built()
        header = decode_header(store.get("idx/header.json"))
        _, row, offset, length = _shared_run(header)
        blob = store.get("idx/superposts.bin")
        with pytest.raises(CorruptIndexError, match="idx/superposts.bin"):
            header.decode_run(row, blob[offset : offset + length - 1])

    @pytest.mark.parametrize("shard", range(NUM_SHARDS))
    def test_a_broken_byte_in_one_share_is_corrupt_naming_the_blob(self, shard):
        store = _built()
        header = decode_header(store.get("idx/header.json"))
        word, row, offset, length = _shared_run(header)
        start, size = share_ranges(header, row, offset)[shard]
        # The share's last varint now runs on past the share's end.
        blob = bytearray(store.get("idx/superposts.bin"))
        blob[start + size - 1] |= 0x80
        with pytest.raises(CorruptIndexError, match="idx/superposts.bin"):
            header.decode_run(row, bytes(blob[offset : offset + length]))
        # ... and so is a lookup of the word whose run it is.
        store.put("idx/superposts.bin", bytes(blob))
        with pytest.raises(CorruptIndexError, match="idx/superposts.bin"):
            AirphantSearcher.open(store, "idx").lookup_postings(word)


class TestTheMetadata:
    def test_a_header_merges_the_metadata_of_its_shards(self):
        store = _built()
        header = decode_header(store.get("idx/header.json"))
        per_shard = [metadata.num_documents for metadata in header.shards.metadata]
        assert len(per_shard) == NUM_SHARDS and all(per_shard)
        assert header.metadata_of().num_documents == sum(per_shard)
        assert header.metadata_of().corpus_name == "corpus"
        # A plain build's header is its own metadata.
        AirphantBuilder(store, config=CONFIG).build_from_blobs(
            [name for name in store.list_blobs() if not name.startswith("idx/")],
            index_name="plain",
        )
        plain = decode_header(store.get("plain/header.json"))
        assert plain.metadata_of() is plain.metadata
        assert plain.metadata.num_documents == sum(per_shard)
