"""Cross-version compatibility of the superpost codec.

The v2 (delta-coded) codec changes bytes on disk, never answers.  Every
build writes v2; the v1 indexes here are default builds rewritten by
``harness.legacy_header.downgrade_codec`` into exactly what a pre-v2 builder
left behind.  These tests pin that a v1 index stays readable by the current
searcher forever (over ``mem://`` and the emulated ``s3://`` backend) and
that compaction of a live index upgrades its format in place.  (v1 builds
predate the sharded header: a sharded v1 build is in a retired layout, and
opening one is a typed error — ``tests/index/test_store_layout.py``.)
"""

import json

from repro.core.config import SketchConfig
from repro.index.builder import AirphantBuilder
from repro.index.compaction import HEADER_BLOB_SUFFIX, decode_header
from repro.index.serialization import DEFAULT_FORMAT_VERSION, FORMAT_V1, FORMAT_V2
from repro.index.updates import AppendOnlyIndexManager
from repro.parsing.corpus import LineDelimitedCorpusParser
from repro.search.searcher import AirphantSearcher
from repro.service.api import SearchRequest
from repro.service.facade import AirphantService
from repro.storage.memory import InMemoryObjectStore

from harness.corpora import SMALL_CORPUS_TEXT
from harness.legacy_header import downgrade_codec

CONFIG = SketchConfig(num_bins=256, num_layers=2, seed=11)


def _store_with_corpus() -> InMemoryObjectStore:
    store = InMemoryObjectStore()
    store.put("corpus.txt", SMALL_CORPUS_TEXT.encode("utf-8"))
    return store


def _documents(store):
    return list(LineDelimitedCorpusParser().parse(store, ["corpus.txt"]))


def _build_both(store, documents, builder=None) -> None:
    """``idx-v2`` as every build writes it, and ``idx-v1`` downgraded."""
    builder = builder or AirphantBuilder(store, config=CONFIG)
    for name in ("idx-v1", "idx-v2"):
        builder.build_from_documents(documents, index_name=name)
    downgrade_codec(store, "idx-v1/")


def _lookup(searcher, word: str):
    postings, _ = searcher.lookup_postings(word)
    return sorted(
        (posting.blob, posting.offset, posting.length) for posting in postings
    )


class TestV1ReadableForever:
    def test_every_build_writes_v2_and_the_downgrade_declares_v1(self):
        store = _store_with_corpus()
        _build_both(store, _documents(store))
        for name, version in (("idx-v2", FORMAT_V2), ("idx-v1", FORMAT_V1)):
            header = decode_header(store.get(f"{name}/{HEADER_BLOB_SUFFIX}"))
            assert header.format_version == version
            assert header.metadata.format_version == version
        assert DEFAULT_FORMAT_VERSION == FORMAT_V2

    def test_v1_index_read_by_current_searcher_over_mem(self):
        store = _store_with_corpus()
        _build_both(store, _documents(store))
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
        _build_both(store, _documents(store))
        assert store.size("idx-v2/superposts.bin") < store.size("idx-v1/superposts.bin")

    def test_v2_queries_fetch_fewer_bytes_in_no_more_requests(self):
        """The delta codec shrinks what a query downloads, and the co-access
        layout costs no physical request over v1's plain layout."""
        store = InMemoryObjectStore()
        lines = [
            f"error timeout node{index % 7} request {index} latency high"
            for index in range(400)
        ]
        store.put("corpus.txt", "\n".join(lines).encode("utf-8"))
        _build_both(store, _documents(store))
        words = ["error", "timeout", "node3", "request", "latency", "17", "absent"]
        answers, stats = {}, {}
        for version in (FORMAT_V1, FORMAT_V2):
            searcher = AirphantSearcher.open(store, f"idx-v{version}")
            answers[version] = [searcher.search(word).postings for word in words]
            stats[version] = searcher.pipeline.stats
        assert answers[FORMAT_V1] == answers[FORMAT_V2]
        assert stats[FORMAT_V2].bytes_fetched < stats[FORMAT_V1].bytes_fetched
        assert stats[FORMAT_V2].requests_out <= stats[FORMAT_V1].requests_out


class TestS3Compat:
    def test_v1_index_read_over_emulated_s3(self, s3_emulator):
        with AirphantService.from_uri(s3_emulator.uri()) as service:
            service.store.put("corpus.txt", SMALL_CORPUS_TEXT.encode("utf-8"))
            for name in ("logs-v1", "logs-v2"):
                service.build_index(name, ["corpus.txt"], sketch_config=CONFIG)
            downgrade_codec(service.store, "logs-v1/")
        service = AirphantService.from_uri(s3_emulator.uri())
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
        legacy = AppendOnlyIndexManager(store, "live", config=CONFIG)
        legacy.build_base(documents[:6])
        legacy.append(documents[6:])
        assert len(downgrade_codec(store, "live/")) == 2
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
