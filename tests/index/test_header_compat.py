"""Legacy JSON headers stay readable; everything written is container v3.

Before header v3 an index carried a JSON ``header.json`` listing every bin of
the budget.  These tests build indexes as today's writers do, rewrite their
headers into that JSON form (``harness.legacy_header`` — same superposts, same
pointers, exactly what an older build left behind) and pin that

* such indexes — plain and base + deltas, with either superpost codec
  (v1 ones are v2 builds rewritten by ``harness.legacy_header.downgrade_codec``),
  beside a 4-shard build that stays as written (the sharded layouts of
  those eras are retired) — answer keyword, Boolean and ``topk_bm25``
  queries byte-identically to their v3-headed selves, over ``mem://`` and
  the S3 emulator;
* compacting a JSON-headed live index leaves only v3 headers behind;
* ``superposts.bin`` itself did not move: placing only the non-empty bins
  keeps their relative order, so the blob is byte-identical to the one the
  old place-every-bin walk produced — and so is its v1 downgrade to the old
  walk's v1 layer-major blob.
"""

from __future__ import annotations

import json

import pytest

from repro.core.config import SketchConfig
from repro.index.builder import AirphantBuilder
from repro.index.compaction import (
    HEADER_BLOB_SUFFIX,
    HEADER_MAGIC,
    SUPERPOST_BLOB_SUFFIX,
    decode_header,
)
from repro.index.serialization import FORMAT_V1, FORMAT_V2
from repro.index.updates import AppendOnlyIndexManager
from repro.parsing.corpus import LineDelimitedCorpusParser
from repro.service.api import SearchRequest
from repro.service.facade import AirphantService
from repro.storage.memory import InMemoryObjectStore
from repro.workloads.logs import generate_log_corpus

from harness.corpora import SMALL_CORPUS_TEXT
from harness.stores import CountingStore
from harness.legacy_header import (
    downgrade_codec,
    downgrade_headers,
    legacy_superpost_blob,
    reference_sketch,
)

CONFIG = SketchConfig(num_bins=256, num_layers=2, seed=11)

REQUESTS = [
    {"query": "error", "top_k": None},
    {"query": "error timeout"},
    {"query": "node1"},
    {"query": "absent-term"},
    {"query": "(error AND disk) OR heartbeat", "mode": "boolean"},
    {"query": "error AND NOT timeout", "mode": "boolean", "top_k": None},
    {"query": "error disk", "mode": "topk_bm25", "top_k": 3},
    {"query": "appended", "mode": "topk_bm25", "top_k": 5, "weights": {"appended": 2.0}},
]

APPENDS = [
    ["error appended first on node7", "info appended second on node1"],
    ["warn appended third after error", "error disk appended fourth"],
]


def _build_all(service: AirphantService, codec: int) -> list[str]:
    """A plain, a 4-shard and a base + 2 deltas index, all on one corpus.

    With ``codec`` v1 the plain builds are downgraded before the deltas are
    appended, so the live index is a v1 base under v2 deltas.
    """
    service.store.put("corpus.txt", SMALL_CORPUS_TEXT.encode("utf-8"))
    names = [f"plain-{codec}", f"sharded-{codec}", f"live-{codec}"]
    for name, shards in zip(names, (1, 4, 1)):
        service.build_index(name, ["corpus.txt"], sketch_config=CONFIG, num_shards=shards)
    if codec == FORMAT_V1:
        assert len(downgrade_codec(service.store)) == 1 + 1
    for batch in APPENDS:
        service.append_documents(names[2], batch)
        assert service.flush_index(names[2])["delta"]
    return names


def _answers(uri: str, names: list[str]) -> bytes:
    """Every request against every index from a cold node, latency aside."""
    with AirphantService.from_uri(uri) as service:
        answers = []
        for name in names:
            for fields in REQUESTS:
                response = service.search(SearchRequest.from_dict({"index": name, **fields}))
                payload = response.to_dict()
                del payload["latency"]
                answers.append(payload)
            assert service.index_info(name).num_documents > 0
        return json.dumps(answers, sort_keys=True).encode("utf-8")


@pytest.fixture(params=["mem", "s3"])
def store_uri(request) -> str:
    if request.param == "mem":
        return f"mem://header-compat-{id(request)}"
    return request.getfixturevalue("s3_emulator").uri()


class TestJsonHeadedIndexesAnswerIdentically:
    @pytest.mark.parametrize("codec", [FORMAT_V1, FORMAT_V2])
    def test_plain_sharded_and_live_indexes(self, store_uri, codec):
        with AirphantService.from_uri(store_uri) as service:
            names = _build_all(service, codec)
            store = service.store
            headers = [
                name for name in store.list_blobs() if name.endswith(HEADER_BLOB_SUFFIX)
            ]
            # plain + the 4-shard build's one header + (base + 2 deltas),
            # every one written as v3
            assert len(headers) == 1 + 1 + 3
            assert all(store.get(name).startswith(HEADER_MAGIC) for name in headers)
            with_v3_headers = _answers(store_uri, names)

            # Every plain build's header goes JSON; the sharded one stays.
            downgraded = downgrade_headers(store)
            assert len(downgraded) == 1 + 3
            assert all(store.get(name).startswith(b"{") for name in downgraded)
            assert _answers(store_uri, names) == with_v3_headers
            # ... and the answers are not vacuous.
            first = json.loads(with_v3_headers)[0]
            assert first["num_results"] == 5 and first["mode"] == "keyword"


class TestCompactionUpgradesHeaders:
    @pytest.mark.parametrize("codec", [FORMAT_V1, FORMAT_V2])
    def test_compact_of_json_headed_live_index_leaves_only_v3(self, codec):
        uri = f"mem://header-upgrade-{codec}"
        with AirphantService.from_uri(uri) as service:
            live = _build_all(service, codec)[2]
            store = service.store
            downgraded = downgrade_headers(store, prefix=f"{live}/")
            assert len(downgraded) == 3
        before = _answers(uri, [live])

        with AirphantService.from_uri(uri) as service:
            assert service.compact_index(live)["compacted"] is True
            manifest = AppendOnlyIndexManager(service.store, base_index=live).manifest()
            live_headers = [
                f"{member}/{HEADER_BLOB_SUFFIX}" for member in manifest.all_indexes
            ]
            assert live_headers == [f"{manifest.active_base}/{HEADER_BLOB_SUFFIX}"]
            for name in live_headers:
                assert service.store.get(name).startswith(HEADER_MAGIC)
        assert _answers(uri, [live]) == before

        with AirphantService.from_uri(uri) as service:
            # The JSON-headed members are retired, not live; the next
            # compaction purges them, and then no JSON header is left at all.
            service.append_documents(live, ["error appended fifth"])
            assert service.compact_index(live)["compacted"] is True
            remaining = [
                name
                for name in service.store.list_blobs(prefix=f"{live}/")
                if name.endswith(HEADER_BLOB_SUFFIX)
            ]
            assert remaining
            assert all(service.store.get(name).startswith(HEADER_MAGIC) for name in remaining)

    def test_indexed_documents_reads_each_json_headed_member_once(self):
        backend = InMemoryObjectStore()
        backend.put("corpus.txt", SMALL_CORPUS_TEXT.encode("utf-8"))
        documents = list(LineDelimitedCorpusParser().parse(backend, ["corpus.txt"]))
        manager = AppendOnlyIndexManager(backend, "live", config=CONFIG)
        manager.build_base(documents[:6])
        manager.append(documents[6:])
        downgrade_headers(backend)
        counting = CountingStore(backend)
        enumerated = AppendOnlyIndexManager(counting, "live", config=CONFIG).indexed_documents()
        assert sorted(document.text for document in enumerated) == sorted(
            SMALL_CORPUS_TEXT.split("\n")
        )
        # Per member: its header and its superpost blob, whole — never a range
        # read per bin.  The only range reads left fetch the documents, plus
        # each of the two members' headers (the opener's batch reads a whole
        # blob as an open-ended range from 0).
        assert counting.range_calls == len(documents) + 2


class TestSuperpostBlobDidNotMove:
    @pytest.mark.parametrize("downgraded", [False, True])
    @pytest.mark.parametrize("layers", [None, 3])
    def test_default_build_matches_the_place_every_bin_walk(self, downgraded, layers):
        store = InMemoryObjectStore()
        corpus = generate_log_corpus(store, "spark", 1500, seed=16)
        documents = list(LineDelimitedCorpusParser().parse(store, corpus.blob_names))
        # The default 100 000-bin budget the old walk seeded from; the
        # optimizer settles on one layer for a corpus this small, so a pinned
        # three-layer build is what exercises the co-access chains.
        config = SketchConfig(num_layers=layers)
        builder = AirphantBuilder(store, config=config)
        built = builder.build_from_documents(documents, index_name="idx")
        if downgraded:
            downgrade_codec(store)

        # Rebuild the sketch the builder compacted, then lay it out the old way.
        sketch, word_weights = reference_sketch(
            documents, builder._tokenizer, config, built.metadata.num_layers
        )
        # A downgraded build is what v1 builds wrote: layer-major, unweighted.
        expected_blob, expected_strings = legacy_superpost_blob(
            sketch, FORMAT_V1 if downgraded else FORMAT_V2, None if downgraded else word_weights
        )
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
