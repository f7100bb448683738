"""Unit tests for superpost compaction and the header block."""

import json
import struct

import numpy as np
import pytest

from repro.core.common_words import CommonWordTable
from repro.core.config import BYTES_PER_BIN_POINTER, SketchConfig
from repro.core.sketch import IoUSketch
from repro.index.builder import AirphantBuilder
from repro.index.compaction import (
    HEADER_BLOB_SUFFIX,
    HEADER_CONTAINER_VERSION,
    HEADER_MAGIC,
    SUPERPOST_BLOB_SUFFIX,
    compact_sketch,
    decode_build_header,
    decode_header,
    encode_header,
)
from repro.index.metadata import IndexMetadata
from repro.index.serialization import CODEC_VERSION, decode_superpost
from repro.index.store_layout import UnsupportedIndexFormatError
from repro.index.updates import AppendOnlyIndexManager
from repro.observability.registry import get_registry
from repro.parsing.corpus import LineDelimitedCorpusParser
from repro.parsing.documents import Posting
from repro.service.api import SearchRequest
from repro.service.facade import AirphantService
from repro.storage.memory import InMemoryObjectStore
from repro.workloads.logs import generate_log_corpus

from harness.corpora import SMALL_CORPUS_TEXT
from harness.legacy_header import legacy_superpost_blob, reference_sketch


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
            assert set(decode_superpost(payload, compacted.string_table)) == expected

    def test_common_word_pointer_decodes_exact_postings(self):
        sketch = _sketch()
        compacted = compact_sketch(sketch, "index/superposts.bin")
        pointer = _common_pointers(compacted.mht)["the"]
        payload = compacted.superpost_blob_data[pointer.offset : pointer.offset + pointer.length]
        decoded = decode_superpost(payload, compacted.string_table)
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
        data = encode_header(compact_sketch(_sketch(), "s.bin"))
        with pytest.raises(ValueError):
            decode_header(b"NOTMAGIC" + data[8:])

    @pytest.mark.parametrize(
        "forge, found",
        [
            (lambda data: b'{"magic":"airphant-header","format_version":2}', "a JSON header"),
            (lambda data: b"AIRPSHD\n" + data[8:], "a sharded header container v1"),
            (lambda data: data[:8] + struct.pack("<I", 99) + data[12:], "header container v99"),
            (lambda data: data.replace(b'"codec_version":2', b'"codec_version":1'), "codec v1"),
            (lambda data: data.replace(b'"codec_version":2', b'"codec_version":9'), "codec v9"),
        ],
        ids=["json", "sharded-container", "container-v99", "codec-v1", "codec-v9"],
    )
    def test_a_format_this_engine_does_not_read_is_a_typed_error(self, forge, found):
        forged = forge(encode_header(compact_sketch(_sketch(), "s.bin", metadata=_metadata())))
        with pytest.raises(UnsupportedIndexFormatError, match="rebuild") as caught:
            decode_header(forged)
        assert found in caught.value.found
        # Not corruption: the opener's decoder passes it on, naming the blob.
        with pytest.raises(UnsupportedIndexFormatError) as caught:
            decode_build_header(forged, "old")
        assert caught.value.blob == "old/header.json"
        assert caught.value.expected == "header container v3 over superpost codec v2"

    def test_a_json_header_is_a_format_error_however_malformed(self):
        # Nothing after the ``{`` is parsed: a torn or hand-edited JSON header
        # is still an old index to rebuild (409), never corruption (502).
        for forged in (b"{", b'{"pointers": "none"}', b'{"magic":"airphant-header","form'):
            with pytest.raises(UnsupportedIndexFormatError, match="a JSON header"):
                decode_build_header(forged, "old")

    def test_every_header_declares_container_v3_over_codec_v2(self):
        data = encode_header(compact_sketch(_sketch(), "s.bin"))
        # Container version and superpost codec version are different numbers.
        assert struct.unpack_from("<I", data, 8) == (HEADER_CONTAINER_VERSION,) == (3,)
        assert b'"codec_version":2' in data and CODEC_VERSION == 2

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


class TestSuperpostBlobDidNotMove:
    @pytest.mark.parametrize("layers", [None, 3])
    def test_default_build_matches_the_place_every_bin_walk(self, layers):
        store = InMemoryObjectStore()
        corpus = generate_log_corpus(store, "spark", 1500, seed=16)
        documents = list(LineDelimitedCorpusParser().parse(store, corpus.blob_names))
        # The default 100 000-bin budget the old walk seeded from; the
        # optimizer settles on one layer for a corpus this small, so a pinned
        # three-layer build is what exercises the co-access chains.
        config = SketchConfig(num_layers=layers)
        builder = AirphantBuilder(store, config=config)
        built = builder.build_from_documents(documents, index_name="idx")

        # Rebuild the sketch the builder compacted, then lay it out the old way.
        sketch, word_weights = reference_sketch(
            documents, builder._tokenizer, config, built.metadata.num_layers
        )
        expected_blob, expected_strings = legacy_superpost_blob(sketch, word_weights)
        assert store.get(f"idx/{SUPERPOST_BLOB_SUFFIX}") == expected_blob
        header = decode_header(store.get(f"idx/{HEADER_BLOB_SUFFIX}"))
        assert header.string_table.to_list() == expected_strings
        assert header.mht.blob_bytes == len(expected_blob) > 10_000
        assert 1000 < len(header.mht.bin_ids) < sketch.total_bins // 10


class TestHeaderSizeBudget:
    def test_512_document_delta_header_is_proportional_to_its_superposts(self):
        # Log lines carrying unique ids, as ingested traffic does: ~2 000
        # distinct terms per 512 documents, so the delta has hashed bins and
        # not only the 1 000 exact common-word lists.
        store = InMemoryObjectStore()
        lines = [
            f"error request req-{index} from user-{index * 7} took {index * 13 + 5} ms "
            f"on node{index % 13} block blk_{index * 31}"
            for index in range(1024)
        ]
        store.put("corpus.txt", "\n".join(lines).encode("utf-8"))
        documents = list(LineDelimitedCorpusParser().parse(store, ["corpus.txt"]))
        manager = AppendOnlyIndexManager(store, "live")  # default SketchConfig
        manager.build_base(documents[:512])
        delta = manager.append(documents[512:])
        header = store.get(f"{delta.index_name}/{HEADER_BLOB_SUFFIX}")
        superposts = store.size(f"{delta.index_name}/{SUPERPOST_BLOB_SUFFIX}")
        assert len(decode_header(header).mht.bin_ids) > 500
        # The JSON header was ~840 KB beside ~22 KB of superposts (38x).
        assert len(header) <= 2 * superposts + 8 * 1024


SERVICE_CONFIG = SketchConfig(num_bins=256, num_layers=2, seed=11)

REQUESTS = [
    {"query": "error", "top_k": None},
    {"query": "error timeout"},
    {"query": "absent-term"},
    {"query": "(error AND disk) OR heartbeat", "mode": "boolean"},
    {"query": "error disk", "mode": "topk_bm25", "top_k": 3},
    {"query": "appended", "mode": "topk_bm25", "top_k": 5, "weights": {"appended": 2.0}},
]


def _build(service: AirphantService, name: str, shards: int) -> None:
    """``name`` over the small corpus, then two flushed appends (a base + 2 deltas)."""
    service.store.put("corpus.txt", SMALL_CORPUS_TEXT.encode("utf-8"))
    service.build_index(name, ["corpus.txt"], sketch_config=SERVICE_CONFIG, num_shards=shards)
    for batch in (["error appended first on node7"], ["error disk appended second"]):
        service.append_documents(name, batch)
        assert service.flush_index(name)["delta"]


def _answers(service: AirphantService, names: list[str]) -> list[dict]:
    """Every request against every index, latency aside."""
    answers = []
    for name in names:
        for fields in REQUESTS:
            payload = service.search(SearchRequest.from_dict({"index": name, **fields})).to_dict()
            del payload["latency"]
            answers.append(payload)
    return answers


def _headers(store, prefix: str = "") -> list[bytes]:
    return [
        store.get(name)
        for name in store.list_blobs(prefix=prefix)
        if name.endswith(HEADER_BLOB_SUFFIX)
    ]


class TestEveryIndexShapeWritesV3Headers:
    @pytest.mark.parametrize("backend", ["mem", "s3"])
    def test_a_cold_node_answers_as_the_writer_does(self, request, backend):
        uri = f"mem://v3-headers-{id(request)}"
        if backend == "s3":
            uri = request.getfixturevalue("s3_emulator").uri()
        names = ["plain", "sharded"]
        with AirphantService.from_uri(uri) as service:
            service.store.put("corpus.txt", SMALL_CORPUS_TEXT.encode("utf-8"))
            for name, shards in zip(names, (1, 4)):
                service.build_index(
                    name, ["corpus.txt"], sketch_config=SERVICE_CONFIG, num_shards=shards
                )
            _build(service, "live", 1)
            names.append("live")
            # plain + the 4-shard build's one header + (base + 2 deltas)
            headers = _headers(service.store)
            assert len(headers) == 1 + 1 + 3
            assert all(header.startswith(HEADER_MAGIC) for header in headers)
            written = _answers(service, names)
        with AirphantService.from_uri(uri) as cold:
            assert _answers(cold, names) == written
        # ... and the answers are not vacuous.
        assert written[0]["num_results"] == 5 and written[0]["mode"] == "keyword"

    @pytest.mark.parametrize("shards", [1, 4])
    def test_compaction_leaves_one_live_v3_header(self, request, shards):
        uri = f"mem://v3-compaction-{id(request)}"
        with AirphantService.from_uri(uri) as service:
            _build(service, "live", shards)
            before = _answers(service, ["live"])
        with AirphantService.from_uri(uri) as service:
            assert service.compact_index("live")["compacted"] is True
            manifest = AppendOnlyIndexManager(service.store, base_index="live").manifest()
            assert manifest.all_indexes == [manifest.active_base]
            header = service.store.get(f"{manifest.active_base}/{HEADER_BLOB_SUFFIX}")
            assert header.startswith(HEADER_MAGIC)
            shard_manifest = decode_build_header(header, manifest.active_base).manifest
            assert (shard_manifest is None) == (shards == 1)
            assert shards == 1 or shard_manifest.num_shards == shards
        with AirphantService.from_uri(uri) as cold:
            assert _answers(cold, ["live"]) == before
            # The next compaction purges the retired members; what is left is v3.
            cold.append_documents("live", ["error appended third"])
            assert cold.compact_index("live")["compacted"] is True
            remaining = _headers(cold.store, prefix="live/")
            assert remaining and all(header.startswith(HEADER_MAGIC) for header in remaining)
