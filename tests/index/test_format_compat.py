"""Cross-version compatibility of the superpost codec.

The v2 (delta-coded) codec changes bytes on disk, never answers: these tests
pin that a v1 index stays readable by the current searcher forever (over
``mem://`` and the emulated ``s3://`` backend), that sharded/routed answers
are byte-identical across formats, and that compaction of a live index
upgrades its format in place.
"""

import json

from repro.core.config import SketchConfig
from repro.index.builder import AirphantBuilder
from repro.index.compaction import HEADER_BLOB_SUFFIX, decode_header
from repro.index.metadata import ShardManifest
from repro.index.serialization import DEFAULT_FORMAT_VERSION, FORMAT_V1, FORMAT_V2
from repro.index.updates import AppendOnlyIndexManager
from repro.parsing.corpus import LineDelimitedCorpusParser
from repro.search.searcher import AirphantSearcher
from repro.service.api import SearchRequest
from repro.service.facade import AirphantService
from repro.storage.memory import InMemoryObjectStore

from harness.corpora import SMALL_CORPUS_TEXT

CONFIG = SketchConfig(num_bins=256, num_layers=2, seed=11)


def _store_with_corpus() -> InMemoryObjectStore:
    store = InMemoryObjectStore()
    store.put("corpus.txt", SMALL_CORPUS_TEXT.encode("utf-8"))
    return store


def _documents(store):
    return list(LineDelimitedCorpusParser().parse(store, ["corpus.txt"]))


def _lookup(searcher, word: str):
    postings, _ = searcher.lookup_postings(word)
    return sorted(
        (posting.blob, posting.offset, posting.length) for posting in postings
    )


class TestV1ReadableForever:
    def test_header_roundtrips_requested_format(self):
        for version in (FORMAT_V1, FORMAT_V2):
            store = _store_with_corpus()
            builder = AirphantBuilder(store, config=CONFIG, format_version=version)
            builder.build_from_documents(_documents(store), index_name="idx")
            header = decode_header(store.get(f"idx/{HEADER_BLOB_SUFFIX}"))
            assert header.format_version == version
            assert header.metadata.format_version == version

    def test_default_build_writes_v2(self):
        store = _store_with_corpus()
        AirphantBuilder(store, config=CONFIG).build_from_documents(
            _documents(store), index_name="idx"
        )
        header = decode_header(store.get(f"idx/{HEADER_BLOB_SUFFIX}"))
        assert header.format_version == DEFAULT_FORMAT_VERSION == FORMAT_V2

    def test_v1_index_read_by_current_searcher_over_mem(self):
        store = _store_with_corpus()
        documents = _documents(store)
        for version, name in ((FORMAT_V1, "idx-v1"), (FORMAT_V2, "idx-v2")):
            AirphantBuilder(
                store, config=CONFIG, format_version=version
            ).build_from_documents(documents, index_name=name)
        old = AirphantSearcher(store, "idx-v1")
        new = AirphantSearcher(store, "idx-v2")
        old.initialize()
        new.initialize()
        for word in ["error", "timeout", "node1", "the-absent-term"]:
            assert _lookup(old, word) == _lookup(new, word)

    def test_v2_blob_is_smaller_than_v1(self):
        # Delta coding needs offsets big enough to need multi-byte varints:
        # a few hundred log lines push absolute offsets into the thousands
        # while neighbouring-posting deltas stay around line length.
        store = InMemoryObjectStore()
        lines = [
            f"error timeout node{index % 7} request {index} latency high"
            for index in range(400)
        ]
        store.put("corpus.txt", "\n".join(lines).encode("utf-8"))
        documents = _documents(store)
        sizes = {}
        for version, name in ((FORMAT_V1, "idx-v1"), (FORMAT_V2, "idx-v2")):
            AirphantBuilder(
                store, config=CONFIG, format_version=version
            ).build_from_documents(documents, index_name=name)
            sizes[version] = store.size(f"{name}/superposts.bin")
        assert sizes[FORMAT_V2] < sizes[FORMAT_V1]


class TestShardedByteIdentity:
    def test_sharded_answers_byte_identical_across_formats(self):
        store = _store_with_corpus()
        documents = _documents(store)
        payloads = {}
        for version, name in ((FORMAT_V1, "sh-v1"), (FORMAT_V2, "sh-v2")):
            AirphantBuilder(
                store,
                config=CONFIG,
                num_shards=3,
                format_version=version,
            ).build_from_documents(documents, index_name=name)
            manifest = ShardManifest.from_json(
                store.get(ShardManifest.blob_name(name))
            )
            assert manifest.index_format_version == version
            searcher = AirphantSearcher(store, name)
            searcher.initialize()
            payloads[version] = json.dumps(
                {
                    word: _lookup(searcher, word)
                    for word in ["error", "timeout", "node2", "nothing"]
                },
                sort_keys=True,
            ).encode("utf-8")
        assert payloads[FORMAT_V1] == payloads[FORMAT_V2]

    def test_routed_service_answers_byte_identical_across_formats(self):
        responses = {}
        for fmt in ("v1", "v2"):
            service = AirphantService.from_uri("mem://")
            service.store.put("corpus.txt", SMALL_CORPUS_TEXT.encode("utf-8"))
            service.build_index(
                f"logs-{fmt}",
                ["corpus.txt"],
                sketch_config=CONFIG,
                num_shards=2,
                format_version={"v1": 1, "v2": 2}[fmt],
            )
            response = service.search(
                SearchRequest(query="error timeout", index=f"logs-{fmt}")
            )
            responses[fmt] = json.dumps(
                [hit.to_dict() for hit in response.documents], sort_keys=True
            ).encode("utf-8")
            service.close()
        assert responses["v1"] == responses["v2"]


class TestS3Compat:
    def test_v1_index_read_over_emulated_s3(self, s3_emulator):
        service = AirphantService.from_uri(s3_emulator.uri())
        service.store.put("corpus.txt", SMALL_CORPUS_TEXT.encode("utf-8"))
        service.build_index(
            "logs-v1", ["corpus.txt"], sketch_config=CONFIG, format_version=1
        )
        service.build_index(
            "logs-v2", ["corpus.txt"], sketch_config=CONFIG, format_version=2
        )
        old = service.search(SearchRequest(query="error timeout", index="logs-v1"))
        new = service.search(SearchRequest(query="error timeout", index="logs-v2"))
        assert [hit.to_dict() for hit in old.documents] == [
            hit.to_dict() for hit in new.documents
        ]
        assert old.num_results == 2
        service.close()


class TestIngestUpgrade:
    def test_compaction_upgrades_v1_base_to_current_default(self):
        store = _store_with_corpus()
        documents = _documents(store)
        # A pre-v2 deployment: base and delta both written as v1.
        legacy = AppendOnlyIndexManager(
            store, "live", config=CONFIG, format_version=FORMAT_V1
        )
        legacy.build_base(documents[:6])
        legacy.append(documents[6:])
        base_header = decode_header(store.get(f"live/{HEADER_BLOB_SUFFIX}"))
        assert base_header.format_version == FORMAT_V1

        # The current deployment compacts with the default codec: the folded
        # generational base comes out as v2 with identical answers.
        manager = AppendOnlyIndexManager(store, "live", config=CONFIG)
        before = manager.open_searcher()
        expected = {word: _lookup(before, word) for word in ["error", "node2"]}
        manager.compact()
        manifest = manager.manifest()
        new_header = decode_header(
            store.get(f"{manifest.active_base}/{HEADER_BLOB_SUFFIX}")
        )
        assert new_header.format_version == DEFAULT_FORMAT_VERSION
        after = manager.open_searcher()
        assert {word: _lookup(after, word) for word in expected} == expected
