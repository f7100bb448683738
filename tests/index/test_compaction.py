"""Unit tests for superpost compaction and the header block."""

import json
import struct
from dataclasses import replace

import numpy as np
import pytest

from repro.core.common_words import CommonWordTable
from repro.core.config import BYTES_PER_BIN_POINTER
from repro.core.sketch import IoUSketch
from repro.index.compaction import (
    HEADER_CONTAINER_VERSION,
    HEADER_MAGIC,
    compact_sketch,
    decode_header,
    encode_header,
)
from repro.index.metadata import IndexMetadata
from repro.index.serialization import decode_superpost
from repro.observability.registry import get_registry
from repro.parsing.documents import Posting

from harness.legacy_header import encode_legacy_header


def _posting(index: int) -> Posting:
    return Posting("corpus/data.txt", index * 20, 15)


def _sketch() -> IoUSketch:
    common = CommonWordTable()
    common.register("the")
    sketch = IoUSketch.build(num_layers=2, total_bins=8, seed=3, common_words=common)
    sketch.insert("error", [_posting(1), _posting(2)])
    sketch.insert("timeout", [_posting(2), _posting(3)])
    sketch.insert("the", [_posting(index) for index in range(5)])
    return sketch


def _metadata() -> IndexMetadata:
    return IndexMetadata(
        corpus_name="unit",
        num_documents=5,
        num_terms=3,
        num_words=9,
        num_layers=2,
        num_bins=8,
        bins_per_layer=4,
        num_common_words=1,
        seed=3,
        target_false_positives=1.0,
        expected_false_positives=0.25,
    )


def _all_pointers(mht):
    """Every hashed bin's pointer, keyed ``(layer, bin)`` (test-side dense view)."""
    return {
        (layer, bin_index): mht.pointer_of(layer, bin_index)
        for layer in range(mht.num_layers)
        for bin_index in range(mht.bins_per_layer)
    }


def _common_pointers(mht):
    return {word: mht.pointers_for(word)[0] for word in mht.common_words}


class TestCompaction:
    def test_pointer_shape_matches_sketch(self):
        sketch = _sketch()
        compacted = compact_sketch(sketch, "index/superposts.bin")
        assert compacted.mht.num_layers == 2
        assert compacted.mht.bins_per_layer == 4
        # One row per non-empty bin, in flat-id order — nothing for the rest.
        expected_ids = [
            layer * 4 + bin_index
            for layer in range(2)
            for bin_index in range(4)
            if sketch.layers[layer].get(bin_index)
        ]
        assert list(compacted.mht.bin_ids) == expected_ids
        assert 0 < len(expected_ids) < 8

    def test_each_pointer_decodes_its_superpost(self):
        sketch = _sketch()
        compacted = compact_sketch(sketch, "index/superposts.bin")
        blob = compacted.superpost_blob_data
        for (layer_index, bin_index), pointer in _all_pointers(compacted.mht).items():
            expected = sketch.layers[layer_index].get(bin_index, set())
            if pointer.is_empty:
                assert expected == set()
                continue
            payload = blob[pointer.offset : pointer.offset + pointer.length]
            decoded = decode_superpost(
                payload, compacted.string_table, compacted.format_version
            )
            assert set(decoded) == expected

    def test_common_word_pointer_decodes_exact_postings(self):
        sketch = _sketch()
        compacted = compact_sketch(sketch, "index/superposts.bin")
        pointer = _common_pointers(compacted.mht)["the"]
        payload = compacted.superpost_blob_data[pointer.offset : pointer.offset + pointer.length]
        decoded = decode_superpost(
            payload, compacted.string_table, compacted.format_version
        )
        assert set(decoded) == set(sketch.common_words.query("the"))

    def test_registered_but_unused_common_word_keeps_an_empty_pointer(self):
        sketch = _sketch()
        sketch.common_words.register("unused")
        mht = compact_sketch(sketch, "s.bin").mht
        assert mht.is_common("unused")
        assert [pointer.is_empty for pointer in mht.pointers_for("unused")] == [True]

    def test_empty_bins_have_zero_length_pointers(self):
        sketch = IoUSketch.build(num_layers=1, total_bins=16, seed=0)
        sketch.insert("only", [_posting(0)])
        compacted = compact_sketch(sketch, "s.bin")
        pointers = _all_pointers(compacted.mht).values()
        assert len([pointer for pointer in pointers if pointer.is_empty]) == 15
        assert len(compacted.mht.bin_ids) == 1

    def test_superposts_are_contiguous(self):
        compacted = compact_sketch(_sketch(), "s.bin")
        ranges = sorted(compacted.mht.ranges())
        position = 0
        for offset, length in ranges:
            assert offset == position
            position += length
        assert position == len(compacted.superpost_blob_data) == compacted.mht.blob_bytes


class TestHeaderCodec:
    def test_round_trip_preserves_pointers_and_seeds(self):
        compacted = compact_sketch(_sketch(), "index/superposts.bin", metadata=_metadata())
        decoded = decode_header(encode_header(compacted))
        assert decoded.superpost_blob_name == "index/superposts.bin"
        assert decoded.mht.hasher.seed == compacted.mht.hasher.seed
        assert decoded.mht.num_layers == compacted.mht.num_layers
        assert _all_pointers(decoded.mht) == _all_pointers(compacted.mht)
        assert _common_pointers(decoded.mht) == _common_pointers(compacted.mht)
        assert decoded.mht.blob_bytes == len(compacted.superpost_blob_data)

    def test_round_trip_preserves_string_table(self):
        compacted = compact_sketch(_sketch(), "s.bin")
        decoded = decode_header(encode_header(compacted))
        assert decoded.string_table.to_list() == compacted.string_table.to_list()

    def test_round_trip_preserves_metadata(self):
        compacted = compact_sketch(_sketch(), "s.bin", metadata=_metadata())
        decoded = decode_header(encode_header(compacted))
        assert decoded.metadata == _metadata()

    def test_rebuilt_hasher_maps_words_identically(self):
        compacted = compact_sketch(_sketch(), "s.bin")
        decoded = decode_header(encode_header(compacted))
        for word in ["error", "timeout", "anything-else"]:
            assert decoded.mht.hasher.bins_of(word) == compacted.mht.hasher.bins_of(word)

    def test_wrong_magic_rejected(self):
        with pytest.raises(ValueError):
            decode_header(b'{"magic": "not-airphant"}')
        data = encode_header(compact_sketch(_sketch(), "s.bin"))
        with pytest.raises(ValueError):
            decode_header(b"NOTMAGIC" + data[8:])

    def test_wrong_version_rejected(self):
        compacted = compact_sketch(_sketch(), "s.bin")
        data = encode_header(compacted)
        needle = f'"codec_version":{compacted.format_version}'.encode()
        assert needle in data
        with pytest.raises(ValueError):  # unknown superpost codec
            decode_header(data.replace(needle, b'"codec_version":9'))
        with pytest.raises(ValueError):  # unknown container
            decode_header(data[:8] + struct.pack("<I", 99) + data[12:])
        legacy = encode_legacy_header(compacted)
        legacy_needle = f'"format_version":{compacted.format_version}'.encode()
        with pytest.raises(ValueError):
            decode_header(legacy.replace(legacy_needle, b'"format_version":99'))

    def test_header_carries_codec_version(self):
        assert compact_sketch(_sketch(), "s.bin").format_version == 2
        for version in (1, 2):
            # The header carries whatever codec its superposts were written in.
            compacted = replace(compact_sketch(_sketch(), "s.bin"), format_version=version)
            data = encode_header(compacted)
            # Container version and superpost codec version are different numbers.
            assert struct.unpack_from("<I", data, 8) == (HEADER_CONTAINER_VERSION,)
            assert decode_header(data).format_version == version

    def test_header_without_metadata(self):
        compacted = compact_sketch(_sketch(), "s.bin", metadata=None)
        decoded = decode_header(encode_header(compacted))
        assert decoded.metadata is None

    def test_layout_is_magic_preamble_then_columns(self):
        compacted = compact_sketch(_sketch(), "s.bin", metadata=_metadata())
        data = encode_header(compacted)
        magic, version, preamble_bytes = struct.unpack_from("<8sII", data)
        assert (magic, version) == (HEADER_MAGIC, HEADER_CONTAINER_VERSION)
        preamble = json.loads(data[16 : 16 + preamble_bytes])
        assert preamble["superpost_bytes"] == len(compacted.superpost_blob_data)
        assert preamble["common_words"] == ["the"]
        assert "pointers" not in preamble
        rows = preamble["num_pointers"]
        assert preamble["pointer_width"] == 4
        # The columns are the whole remainder: 12 bytes per stored bin,
        # 8 per common word, and the table's memory is exactly those bytes.
        columns = len(data) - 16 - preamble_bytes
        assert columns == rows * BYTES_PER_BIN_POINTER + 8 == compacted.mht.memory_bytes()
        assert (16 + preamble_bytes) % 8 == 0

    def test_decoded_columns_share_the_header_buffer(self):
        data = encode_header(compact_sketch(_sketch(), "s.bin"))
        mht = decode_header(data).mht
        whole = np.frombuffer(data, dtype=np.uint8)
        for column in mht.columns:
            assert len(column) == 0 or np.shares_memory(np.asarray(column), whole)

    def test_every_truncation_is_a_value_error(self):
        data = encode_header(compact_sketch(_sketch(), "s.bin", metadata=_metadata()))
        for cut in range(len(data)):
            with pytest.raises(ValueError):
                decode_header(data[:cut])
        with pytest.raises(ValueError):
            decode_header(data + b"\x00")

    def test_corrupt_columns_and_preamble_are_value_errors(self):
        compacted = compact_sketch(_sketch(), "s.bin", metadata=_metadata())
        data = encode_header(compacted)
        preamble_bytes = struct.unpack_from("<I", data, 12)[0]
        preamble = json.loads(data[16 : 16 + preamble_bytes])
        columns = data[16 + preamble_bytes :]
        rows = preamble["num_pointers"]

        def rebuilt(fields: dict, body: bytes = columns) -> bytes:
            text = json.dumps(fields).encode("utf-8")
            text += b" " * (-len(text) % 8)
            return data[:12] + struct.pack("<I", len(text)) + text + body

        assert decode_header(rebuilt(preamble)).mht.bin_ids == compacted.mht.bin_ids
        ids_at = len(columns) - 4 * rows
        the_offset, the_length = columns[ids_at - 8 : ids_at - 4], columns[ids_at - 4 : ids_at]
        twice = columns[: ids_at - 8] + the_offset * 2 + the_length * 2 + columns[ids_at:]
        assert decode_header(rebuilt({**preamble, "common_words": ["a", "b"]}, twice))
        broken = [
            rebuilt({**preamble, "superpost_bytes": preamble["superpost_bytes"] - 1}),
            rebuilt({**preamble, "superpost_bytes": -5}),
            rebuilt({**preamble, "bins_per_layer": 1}),  # ids now outside L × B
            rebuilt({**preamble, "num_layers": 0}),
            rebuilt({**preamble, "num_layers": "two"}),
            rebuilt({**preamble, "num_pointers": rows + 1}),
            rebuilt({**preamble, "num_pointers": -1}),
            rebuilt({**preamble, "pointer_width": 2}),
            rebuilt({**preamble, "common_words": ["the", "the"]}, twice),
            rebuilt({key: value for key, value in preamble.items() if key != "seed"}),
            rebuilt({**preamble, "string_table": None}),
            rebuilt({**preamble, "metadata": {"corpus_name": "half a record"}}),
            # ids no longer strictly increasing: swap the first two rows' ids
            rebuilt(preamble, columns[:ids_at] + columns[ids_at + 4 : ids_at + 8]
                    + columns[ids_at : ids_at + 4] + columns[ids_at + 8 :]),
            data[:16] + b"\xff" * preamble_bytes + columns,  # preamble is not UTF-8 JSON
            data[:12] + struct.pack("<I", 2**31) + data[16:],  # preamble longer than the blob
            b"[1, 2]",
            b"",
        ]
        for blob in broken:
            with pytest.raises(ValueError):
                decode_header(blob)


class TestLegacyHeaderReader:
    def test_json_header_decodes_to_the_same_table(self):
        for version in (1, 2):
            compacted = replace(
                compact_sketch(_sketch(), "index/superposts.bin", metadata=_metadata()),
                format_version=version,
            )
            legacy = decode_header(encode_legacy_header(compacted))
            assert legacy.format_version == version
            assert legacy.superpost_blob_name == "index/superposts.bin"
            assert legacy.metadata == _metadata()
            assert legacy.string_table.to_list() == compacted.string_table.to_list()
            assert legacy.mht.bin_ids == compacted.mht.bin_ids
            assert _all_pointers(legacy.mht) == _all_pointers(compacted.mht)
            for word in ["error", "timeout", "the", "absent"]:
                assert legacy.mht.pointers_for(word) == compacted.mht.pointers_for(word)

    def test_malformed_json_headers_are_value_errors(self):
        compacted = compact_sketch(_sketch(), "s.bin")
        payload = json.loads(encode_legacy_header(compacted))
        broken = [
            {**payload, "pointers": payload["pointers"][:1]},  # a layer missing
            {**payload, "pointers": [[[0, -1]] * 4] * 2},  # negative length
            {**payload, "pointers": "none"},
            {key: value for key, value in payload.items() if key != "superpost_blob"},
            {**payload, "common_words": {"the": [1]}},
        ]
        for fields in broken:
            with pytest.raises(ValueError):
                decode_header(json.dumps(fields).encode("utf-8"))
        with pytest.raises(ValueError):
            decode_header(encode_legacy_header(compacted)[:-20])


class TestCodecMetrics:
    def test_compaction_records_raw_and_encoded_bytes(self):
        registry = get_registry()
        raw = registry.counter(
            "airphant_codec_bytes_raw_total", label_names=("format",)
        )
        encoded = registry.counter(
            "airphant_codec_bytes_encoded_total", label_names=("format",)
        )
        raw_before = raw.value(format="v2")
        encoded_before = encoded.value(format="v2")
        compacted = compact_sketch(_sketch(), "s.bin")
        raw_delta = raw.value(format="v2") - raw_before
        encoded_delta = encoded.value(format="v2") - encoded_before
        assert encoded_delta == len(compacted.superpost_blob_data) > 0
        # The string table plus delta coding must actually compress.
        assert raw_delta > encoded_delta
