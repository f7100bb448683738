"""Unit tests for the persisted ranking-statistics blob."""

from __future__ import annotations

import json
import struct
import zlib
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.index.builder import AirphantBuilder
from repro.index.stats import (
    COLUMNS,
    STATS_MAGIC,
    TERM_COLUMNS,
    TERMS_PER_BLOCK,
    IndexStats,
    build_stats,
    decode_stats,
    encode_stats,
    idf,
    stats_blob_name,
)
from repro.index.store_layout import CorruptIndexError, UnsupportedIndexFormatError
from repro.parsing.documents import Document, Posting
from repro.parsing.tokenizer import WhitespaceAnalyzer

from harness.legacy_header import JSON_STATS_BLOB, V2_STATS_BLOB


def _doc(offset: int, text: str, blob: str = "corpus/a.txt") -> Document:
    return Document(ref=Posting(blob=blob, offset=offset, length=len(text)), text=text)


DOCS = [
    _doc(0, "alpha beta alpha"),
    _doc(20, "beta gamma", blob="corpus/b.txt"),
    _doc(40, "gamma délta beta beta"),
]


def stats_dicts(stats: IndexStats) -> tuple[dict[Posting, int], dict[str, dict[Posting, int]]]:
    """``(doc_lengths, term_frequencies)`` of ``stats`` as plain dicts: the
    reference the columns are compared against."""
    docs = list(stats.docs)
    doc_lengths = dict(zip(docs, stats.doc_words.tolist()))
    term_frequencies = {}
    for index in range(stats.num_terms):
        entries = slice(int(stats.term_starts[index]), int(stats.term_starts[index + 1]))
        term_frequencies[stats.term(index).decode("utf-8", "surrogatepass")] = {
            docs[doc]: tf
            for doc, tf in zip(stats.entry_doc[entries].tolist(), stats.entry_tf[entries].tolist())
        }
    return doc_lengths, term_frequencies


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


def _reseal(data: bytes | bytearray) -> bytes:
    """``data`` with its CRC-32 trailer recomputed: a blob that passes its
    checksum, so whatever is wrong with it is left to the decoder's checks."""
    body = bytes(data[:-4])
    return body + struct.pack("<I", zlib.crc32(body))


def _preamble(data: bytes) -> tuple[dict, int]:
    """The preamble's fields and where the sections start."""
    preamble_bytes = struct.unpack_from("<I", data, 12)[0]
    return json.loads(data[16 : 16 + preamble_bytes]), 16 + preamble_bytes


def _section(data: bytes, wanted: str) -> tuple[int, int, int]:
    """``(offset, width, rows)`` of section ``wanted``."""
    fields, position = _preamble(data)
    for name, width, rows in fields["sections"]:
        if name == wanted:
            return position, width, rows
        position += width * rows
    raise KeyError(wanted)


def _with_preamble(data: bytes, fields: dict) -> bytes:
    preamble = json.dumps(fields).encode()
    preamble += b" " * (-len(preamble) % 8)
    _, position = _preamble(data)
    return _reseal(data[:12] + struct.pack("<I", len(preamble)) + preamble + data[position:])


class TestEncodeDecode:
    def test_round_trip(self):
        stats = build_stats(DOCS, WhitespaceAnalyzer())
        data = encode_stats(stats)
        assert data.startswith(STATS_MAGIC)
        decoded = decode_stats(data)
        assert _same(decoded, stats)
        assert stats_dicts(decoded) == stats_dicts(stats)
        assert encode_stats(decoded) == data

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
        decoded = decode_stats(encode_stats(stats))
        assert {name: getattr(decoded, name).dtype for name in COLUMNS} == widths

    def test_a_decoded_blob_reads_only_the_terms_asked_for(self):
        stats = build_stats(DOCS, WhitespaceAnalyzer())
        decoded = decode_stats(encode_stats(stats))
        assert not set(TERM_COLUMNS) & set(vars(decoded))
        assert decoded.num_terms == stats.num_terms == 4
        assert [len(decoded.entries(w)[0]) for w in ("beta", "délta", "zzz")] == [3, 1, 0]
        docs, tfs = decoded.entries("beta")
        assert docs.tolist() == [0, 1, 2] and tfs.tolist() == [1, 2, 1]
        assert decoded.frequencies("alpha", np.array([2, 1, 0])).tolist() == [0, 0, 2]
        assert not set(TERM_COLUMNS) & set(vars(decoded))
        # Build and compaction ask for whole columns: they materialise then.
        assert decoded.profile() == stats.profile()
        assert set(TERM_COLUMNS) <= set(vars(decoded))

    def test_terms_are_front_coded_in_blocks(self):
        words = [f"shared-prefix-{n:03d}" for n in range(3 * TERMS_PER_BLOCK + 5)]
        stats = build_stats([_doc(0, " ".join(words))], WhitespaceAnalyzer())
        data = encode_stats(stats)
        _, _, suffix_bytes = _section(data, "term_suffixes")
        # A block's first term is whole; the others store what follows the
        # prefix they share with the term before (here at most 2 bytes).
        heads = len(words[0]) * -(-len(words) // TERMS_PER_BLOCK)
        assert suffix_bytes <= heads + 2 * len(words) < len(stats.term_bytes)
        decoded = decode_stats(data)
        for word in words:
            assert decoded.entries(word)[0].tolist() == [0]
        for absent in ("shared-prefix-", "shared-prefix-0159", "a", "zzz"):
            assert len(decoded.entries(absent)[0]) == 0
        # Prefixes longer than the 64 bytes a term is stored as sharing.
        long = ["x" * 100 + tail for tail in ("a", "b", "bb", "c")]
        stats = build_stats([_doc(0, " ".join(long))], WhitespaceAnalyzer())
        decoded = decode_stats(encode_stats(stats))
        assert [len(decoded.entries(word)[0]) for word in long] == [1, 1, 1, 1]
        assert decoded.words() == long

    def test_not_a_stats_blob_is_corrupt_naming_it(self):
        data = encode_stats(build_stats(DOCS, WhitespaceAnalyzer()))
        for garbage in (b"", b"[1, 2, 3] is not a stats blob", b"AIRPHDR\n" + data[8:]):
            with pytest.raises(CorruptIndexError, match="idx/stats.json") as excinfo:
                decode_stats(garbage, index_name="idx")
            assert excinfo.value.blob == "idx/stats.json"

    def test_a_retired_or_unknown_format_is_the_typed_error(self):
        data = bytearray(encode_stats(build_stats(DOCS, WhitespaceAnalyzer())))
        struct.pack_into("<I", data, 8, 99)
        with pytest.raises(UnsupportedIndexFormatError, match="v99") as excinfo:
            decode_stats(_reseal(data), index_name="new-index")
        assert excinfo.value.blob == "new-index/stats.json"
        assert "rebuild" in str(excinfo.value)
        # Neither the v1 JSON blobs nor the v2 containers of earlier builds are read.
        for retired, found in ((JSON_STATS_BLOB, "JSON stats blob"), (V2_STATS_BLOB, "v2")):
            with pytest.raises(UnsupportedIndexFormatError, match=found) as excinfo:
                decode_stats(retired, index_name="old-index")
            assert excinfo.value.blob == "old-index/stats.json"

    def test_a_missing_blob_is_the_typed_error(self):
        with pytest.raises(UnsupportedIndexFormatError, match="missing") as excinfo:
            decode_stats(None, index_name="idx")
        assert excinfo.value.blob == "idx/stats.json"
        assert "rebuild" in str(excinfo.value)

    def test_every_truncation_is_corrupt(self):
        data = encode_stats(build_stats(DOCS, WhitespaceAnalyzer()))
        for cut in range(len(data)):
            with pytest.raises(CorruptIndexError):
                decode_stats(data[:cut])

    def test_every_single_byte_flip_is_corrupt(self):
        # The trailer covers every byte, and the magic is two bytes away from
        # any retired format's: no flip reads as another format.
        data = encode_stats(build_stats(DOCS, WhitespaceAnalyzer()))
        for at in range(len(data)):
            for flip in (0x01, 0x80, 0xFF):
                flipped = bytearray(data)
                flipped[at] ^= flip
                with pytest.raises(CorruptIndexError, match="idx/stats.json"):
                    decode_stats(bytes(flipped), index_name="idx")

    @pytest.mark.parametrize(
        "section, row, value",
        [("doc_blob", -1, 7), ("doc_gaps", 0, 1), ("entry_runs", -1, 0x7F), ("term_fields", 0, 1)],
    )
    def test_a_section_pointing_outside_is_corrupt(self, section, row, value):
        """Past the checksum (resealed here), the sections are still checked:
        when decoded, or when the term they hold is read or materialised."""
        data = bytearray(encode_stats(build_stats(DOCS, WhitespaceAnalyzer())))
        position, width, rows = _section(bytes(data), section)
        data[position + (row % rows) * width] = value
        data = _reseal(data)
        with pytest.raises(CorruptIndexError, match="idx/stats.json"):
            decode_stats(data, "idx").entries("gamma")
        with pytest.raises(CorruptIndexError, match="idx/stats.json"):
            decode_stats(data, "idx").entry_doc

    def test_a_garbled_preamble_is_corrupt(self):
        data = encode_stats(build_stats(DOCS, WhitespaceAnalyzer()))
        fields, _ = _preamble(data)
        for garbled in (
            {**fields, "num_documents": 4},
            {**fields, "total_words": 1},
            {**fields, "num_terms": 40},
            {**fields, "blobs": fields["blobs"][::-1]},
            {**fields, "sections": fields["sections"][1:]},
            {**fields, "sections": [[n, 3, r] for n, _, r in fields["sections"]]},
        ):
            with pytest.raises(CorruptIndexError):
                decode_stats(_with_preamble(data, garbled))
        # A preamble that is not JSON at all, behind a valid checksum.
        _, position = _preamble(data)
        with pytest.raises(CorruptIndexError, match="idx/stats.json"):
            decode_stats(_reseal(data[:16] + b"{" * (position - 16) + data[position:]), "idx")

    def test_a_run_whose_rows_wrap_around_is_corrupt(self):
        """Row deltas of up to 63 bits whose running sum wraps past 2**63:
        every step is at least 1 and no row is N or more, yet the rows are
        neither ascending nor all in range."""
        stats = build_stats([_doc(10 * at, "w") for at in range(4)], WhitespaceAnalyzer())
        assert stats.entry_doc.tolist() == [0, 1, 2, 3]
        # Stored as the deltas 1, 2**63 - 1, 2**63 - 1, 2: the rows 1, -2**63, -1, 1.
        wrapped = np.array([1, 2**63, 2**64 - 1, 1], np.uint64)
        forged = SimpleNamespace(
            **{name: getattr(stats, name) for name in COLUMNS if name != "entry_doc"},
            entry_doc=wrapped,
            num_documents=stats.num_documents,
            total_words=stats.total_words,
            num_terms=stats.num_terms,
            blobs=stats.blobs,
        )
        data = encode_stats(forged)
        with pytest.raises(CorruptIndexError, match="idx/stats.json"):
            decode_stats(data, "idx").entries("w")
        with pytest.raises(CorruptIndexError, match="idx/stats.json"):
            decode_stats(data, "idx").entry_doc

    @given(st.integers(min_value=0), st.integers(min_value=0, max_value=255))
    @settings(max_examples=300, deadline=None)
    def test_any_byte_set_to_any_value_decodes_identically_or_is_corrupt(self, at, value):
        data = bytearray(encode_stats(build_stats(DOCS, WhitespaceAnalyzer())))
        unchanged = data[at % len(data)] == value
        data[at % len(data)] = value
        if unchanged:
            assert _same(decode_stats(bytes(data)), build_stats(DOCS, WhitespaceAnalyzer()))
        else:
            with pytest.raises(CorruptIndexError):
                decode_stats(bytes(data))


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

    def test_sharded_build_writes_one_stats_blob(self, sim_store, small_documents, small_config):
        builder = AirphantBuilder(sim_store, config=small_config, num_shards=2)
        built = builder.build_from_documents(small_documents, index_name="sh")
        stats = decode_stats(sim_store.get(stats_blob_name("sh")))
        assert stats.num_documents == len(small_documents)
        for shard in built.shards:
            assert not sim_store.exists(stats_blob_name(shard.index_name))
