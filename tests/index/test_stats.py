"""Unit tests for the persisted ranking-statistics blob."""

from __future__ import annotations

import json
import struct

import numpy as np
import pytest
from harness.legacy_stats import downgrade_stats, encode_legacy_stats, stats_dicts
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.index.builder import AirphantBuilder
from repro.index.stats import (
    COLUMNS,
    STATS_MAGIC,
    IndexStats,
    RankingUnsupportedError,
    build_stats,
    decode_stats,
    encode_stats,
    idf,
    stats_blob_name,
)
from repro.parsing.documents import Document, Posting
from repro.parsing.tokenizer import WhitespaceAnalyzer
from repro.search.searcher import AirphantSearcher


def _doc(offset: int, text: str, blob: str = "corpus/a.txt") -> Document:
    return Document(ref=Posting(blob=blob, offset=offset, length=len(text)), text=text)


DOCS = [
    _doc(0, "alpha beta alpha"),
    _doc(20, "beta gamma", blob="corpus/b.txt"),
    _doc(40, "gamma délta beta beta"),
]


def _columns(stats: IndexStats) -> dict:
    return {name: getattr(stats, name).tolist() for name in COLUMNS}


def _same(a: IndexStats, b: IndexStats) -> bool:
    return (a.num_documents, a.total_words, a.blobs, _columns(a)) == (
        b.num_documents, b.total_words, b.blobs, _columns(b)
    )


class TestBuildStats:
    def test_exact_lengths_and_frequencies(self):
        docs = [_doc(0, "a b a c"), _doc(10, "b b")]
        stats = build_stats(docs, WhitespaceAnalyzer())
        doc_lengths, term_frequencies = stats_dicts(stats)
        assert stats.num_documents == 2
        assert stats.total_words == 6
        assert doc_lengths == {docs[0].ref: 4, docs[1].ref: 2}
        assert term_frequencies == {
            "a": {docs[0].ref: 2},
            "b": {docs[0].ref: 1, docs[1].ref: 2},
            "c": {docs[0].ref: 1},
        }
        assert len(stats.entries("missing")[0]) == 0

    def test_duplicate_refs_count_once(self):
        doc = _doc(0, "x y")
        stats = build_stats([doc, doc], WhitespaceAnalyzer())
        assert stats.num_documents == 1
        assert stats.total_words == 2

    def test_documents_are_in_posting_order_and_entries_ascend(self):
        stats = build_stats(list(reversed(DOCS)), WhitespaceAnalyzer())
        assert list(stats.docs) == sorted(d.ref for d in DOCS)
        docs, tfs = stats.entries("beta")
        assert docs.tolist() == [0, 1, 2] and tfs.tolist() == [1, 2, 1]
        rows = np.array([2, 1, 0])
        assert stats.frequencies("beta", rows).tolist() == [1, 2, 1]
        assert stats.frequencies("alpha", rows).tolist() == [0, 0, 2]


class TestEncodeDecode:
    def test_round_trip(self):
        stats = build_stats(DOCS, WhitespaceAnalyzer())
        data = encode_stats(stats)
        assert data.startswith(STATS_MAGIC)
        decoded = decode_stats(data)
        assert _same(decoded, stats)
        assert stats_dicts(decoded) == stats_dicts(stats)

    def test_encoding_is_deterministic(self):
        docs = [_doc(0, "a b c"), _doc(10, "c b a")]
        assert encode_stats(build_stats(docs, WhitespaceAnalyzer())) == encode_stats(
            build_stats(list(reversed(docs)), WhitespaceAnalyzer())
        )

    def test_columns_take_the_narrowest_unsigned_dtype(self):
        stats = build_stats([_doc(70_000, "a " * 300)], WhitespaceAnalyzer())
        widths = {name: getattr(stats, name).dtype for name in COLUMNS}
        assert widths["doc_offset"] == np.uint32
        assert widths["doc_length"] == widths["doc_words"] == widths["entry_tf"] == np.uint16
        assert widths["doc_blob"] == widths["entry_doc"] == np.uint8

    def test_not_a_stats_blob_is_a_value_error(self):
        with pytest.raises(ValueError):
            decode_stats(b'{"something": "else"}')
        with pytest.raises(ValueError):
            decode_stats(b"AIRPHDR\n" + encode_stats(build_stats(DOCS, WhitespaceAnalyzer()))[8:])

    def test_unknown_version_is_the_typed_error(self):
        data = bytearray(encode_stats(build_stats(DOCS, WhitespaceAnalyzer())))
        struct.pack_into("<I", data, 8, 99)
        with pytest.raises(RankingUnsupportedError) as excinfo:
            decode_stats(bytes(data), index_name="new-index")
        assert excinfo.value.index_name == "new-index"
        assert "rebuild" in str(excinfo.value)
        legacy = json.loads(encode_legacy_stats(build_stats(DOCS, WhitespaceAnalyzer())))
        legacy["version"] = 99
        with pytest.raises(RankingUnsupportedError):
            decode_stats(json.dumps(legacy).encode(), index_name="old-index")

    def test_every_truncation_is_a_value_error(self):
        data = encode_stats(build_stats(DOCS, WhitespaceAnalyzer()))
        for cut in range(len(data)):
            with pytest.raises(ValueError):
                decode_stats(data[:cut])

    @pytest.mark.parametrize(
        "column, value",
        [("doc_blob", 7), ("entry_doc", 200), ("term_ends", 250), ("term_starts", 250)],
    )
    def test_an_index_outside_its_column_is_a_value_error(self, column, value):
        data = bytearray(encode_stats(build_stats(DOCS, WhitespaceAnalyzer())))
        preamble_bytes = struct.unpack_from("<I", data, 12)[0]
        position = 16 + preamble_bytes
        for name, width, rows in json.loads(data[16 : 16 + preamble_bytes])["columns"]:
            if name == column:
                data[position + (rows - 1) * width] = value  # the column's last row
                break
            position += width * rows
        with pytest.raises(ValueError):
            decode_stats(bytes(data))

    def test_a_garbled_preamble_is_a_value_error(self):
        data = encode_stats(build_stats(DOCS, WhitespaceAnalyzer()))
        preamble_bytes = struct.unpack_from("<I", data, 12)[0]
        fields = json.loads(data[16 : 16 + preamble_bytes])
        for garbled in (
            {**fields, "num_documents": 4},
            {**fields, "total_words": 1},
            {**fields, "blobs": fields["blobs"][::-1]},
            {**fields, "columns": fields["columns"][1:]},
            {**fields, "columns": [[n, 3, r] for n, _, r in fields["columns"]]},
        ):
            preamble = json.dumps(garbled).encode()
            preamble += b" " * (-len(preamble) % 8)
            blob = data[:12] + struct.pack("<I", len(preamble)) + preamble
            with pytest.raises(ValueError):
                decode_stats(blob + data[16 + preamble_bytes :])
        with pytest.raises(ValueError):
            decode_stats(data[:16] + b"{" * preamble_bytes + data[16 + preamble_bytes :])

    @given(st.integers(min_value=0), st.integers(min_value=0, max_value=255))
    @settings(max_examples=300, deadline=None)
    def test_any_flipped_byte_decodes_or_is_a_typed_error(self, at, value):
        data = bytearray(encode_stats(build_stats(DOCS, WhitespaceAnalyzer())))
        data[at % len(data)] = value
        try:
            decoded = decode_stats(bytes(data))
        except (ValueError, RankingUnsupportedError):
            return
        for word in ("alpha", "beta", "zzz"):
            decoded.frequencies(word, np.arange(decoded.num_documents))


class TestLegacyBlobs:
    def test_a_v1_blob_decodes_into_the_same_columns(self):
        stats = build_stats(DOCS, WhitespaceAnalyzer())
        legacy = encode_legacy_stats(stats)
        assert legacy.startswith(b"{")
        assert _same(decode_stats(legacy), stats)
        empty = build_stats([], WhitespaceAnalyzer())
        assert _same(decode_stats(encode_legacy_stats(empty)), empty)

    @pytest.mark.parametrize("shards", [1, 3])
    def test_ranked_answers_over_a_v1_build_equal_the_v2_build(
        self, sim_store, small_documents, small_config, shards
    ):
        for name in ("current", "legacy"):
            AirphantBuilder(sim_store, config=small_config, num_shards=shards).build_from_documents(
                small_documents, index_name=name
            )
        assert len(downgrade_stats(sim_store, "legacy/")) == shards
        current, legacy = (AirphantSearcher.open(sim_store, name) for name in ("current", "legacy"))
        for query in ("error", "error timeout", "info node1", "warn"):
            expected, observed = current.search_topk(query, k=5), legacy.search_topk(query, k=5)
            assert observed.postings == expected.postings, query
            assert observed.scores == expected.scores, query


class TestIdf:
    def test_always_positive(self):
        for num_documents in (1, 2, 100):
            for doc_frequency in range(num_documents + 1):
                assert idf(num_documents, doc_frequency) > 0

    def test_monotone_decreasing_in_df(self):
        values = [idf(100, df) for df in range(1, 101)]
        assert values == sorted(values, reverse=True)


class TestBuilderIntegration:
    def test_build_writes_stats_blob(self, sim_store, small_documents, small_config):
        builder = AirphantBuilder(sim_store, config=small_config)
        built = builder.build_from_documents(small_documents, index_name="with-stats")
        assert built.stats_blob == stats_blob_name("with-stats")
        data = sim_store.get(built.stats_blob)
        assert data.startswith(STATS_MAGIC)
        assert decode_stats(data).num_documents == len(small_documents)

    def test_sharded_build_writes_per_shard_stats(self, sim_store, small_documents, small_config):
        builder = AirphantBuilder(sim_store, config=small_config, num_shards=2)
        built = builder.build_from_documents(small_documents, index_name="sh")
        total = 0
        for shard in built.shards:
            stats = decode_stats(sim_store.get(stats_blob_name(shard.index_name)))
            total += stats.num_documents
        assert total == len(small_documents)

    def test_sharded_rebuild_drops_stale_toplevel_stats(
        self, sim_store, small_documents, small_config
    ):
        AirphantBuilder(sim_store, config=small_config).build_from_documents(
            small_documents, index_name="re"
        )
        assert sim_store.exists(stats_blob_name("re"))
        AirphantBuilder(sim_store, config=small_config, num_shards=2).build_from_documents(
            small_documents, index_name="re"
        )
        assert not sim_store.exists(stats_blob_name("re"))
