"""The on-store layout contract: one opener, one ownership rule, one name test.

``repro.index.store_layout`` is the only code that knows what an index looks
like in the bucket.  Pinned here: :func:`open_headers` finds exactly the
members (and decodes exactly the headers) a direct read of the blobs finds,
for every layout an index can be in; :func:`build_blobs`, the manifests, the
snapshot records and the WAL together own every blob under an index name
exactly once through a whole lifecycle; a retired in-place base is purged
completely (its ``stats.json`` used to leak); and the catalog and the build
endpoint agree on which names are addressable.
"""

from __future__ import annotations

import inspect
import json
from collections import Counter
from pathlib import Path

import pytest

from harness.legacy_header import retire_format
from harness.stores import RecordingStore

from repro.core.config import SketchConfig
from repro.index.builder import AirphantBuilder
from repro.index.compaction import decode_build_header
from repro.index import store_layout
from repro.index.metadata import merge_shard_metadata
from repro.index.store_layout import (
    CorruptIndexError,
    UnsupportedIndexFormatError,
    build_blobs,
    build_bytes,
    ingest_prefix,
    is_index_name,
    open_headers,
    snapshot_blobs,
    update_manifest_blob_name,
)
from repro.index.updates import AppendOnlyIndexManager
from repro.parsing.corpus import LineDelimitedCorpusParser
from repro.parsing.documents import Posting
from repro.search.searcher import AirphantSearcher
from repro.service.api import SearchRequest, ServiceError
from repro.service.config import ServiceConfig
from repro.service.facade import AirphantService
from repro.storage.base import BlobNotFoundError
from repro.storage.memory import InMemoryObjectStore
from repro.workloads.logs import generate_log_corpus

CONFIG = SketchConfig(num_bins=256, target_false_positives=1.0, seed=7)


def _documents(store: InMemoryObjectStore, count: int = 200):
    corpus = generate_log_corpus(store, "hdfs", count, seed=23)
    return list(LineDelimitedCorpusParser().parse(store, corpus.blob_names))


# -- the opener ---------------------------------------------------------------------


def _read_directly(store, name):
    """The header of build ``name``, by spelling the blob out."""
    return decode_build_header(store.get(f"{name}/header.json"), name)


def _assert_opens_like_a_direct_read(store, name):
    expected = _read_directly(store, name)
    manifest = expected.manifest
    (opened,) = open_headers(store, [name]).builds
    assert opened.name == name and opened.manifest == manifest
    header = opened.header
    assert header.metadata == expected.metadata
    assert header.superpost_blob_name == expected.superpost_blob_name
    assert list(header.mht.ranges()) == list(expected.mht.ranges())
    assert header.mht.common_words == expected.mht.common_words
    # The query path's member is a view over the very same result.
    (member,) = AirphantSearcher.open(store, name).opened
    assert member.header.mht.blob == header.mht.blob
    assert member.shard_manifest == manifest
    if manifest is None:
        assert member.metadata == expected.metadata
    else:
        assert member.num_shards == manifest.num_shards
        assert member.metadata == merge_shard_metadata(list(expected.shards.metadata))
    return opened


class TestOpener:
    def test_plain_index(self):
        store = InMemoryObjectStore()
        AirphantBuilder(store, config=CONFIG).build_from_documents(
            _documents(store), index_name="plain"
        )
        opened = _assert_opens_like_a_direct_read(store, "plain")
        assert opened.manifest is None and opened.max_concurrency == 32

    def test_four_shard_index(self):
        store = InMemoryObjectStore()
        AirphantBuilder(store, config=CONFIG, num_shards=4).build_from_documents(
            _documents(store), index_name="sharded"
        )
        opened = _assert_opens_like_a_direct_read(store, "sharded")
        assert opened.manifest.shard_names == [f"sharded/shard-000{shard}" for shard in range(4)]
        assert open_headers(store, ["sharded"], 8).builds[0].max_concurrency == 32
        assert open_headers(store, ["sharded"], 64).builds[0].max_concurrency == 128

    def test_base_plus_two_deltas_then_generational(self):
        store = InMemoryObjectStore()
        documents = _documents(store)
        manager = AppendOnlyIndexManager(store, "idx", config=CONFIG)
        manager.build_base(documents[:100])
        manager.append(documents[100:150])
        manager.append(documents[150:])
        assert manager.manifest().all_indexes == ["idx", "idx/delta-0000", "idx/delta-0001"]
        for name in manager.manifest().all_indexes:
            _assert_opens_like_a_direct_read(store, name)
        manager.compact()
        assert manager.manifest().all_indexes == ["idx/gen-00000001"]
        opened = _assert_opens_like_a_direct_read(store, "idx/gen-00000001")
        assert opened.header.metadata.num_documents == len(documents)

    def test_sharded_base_stays_sharded_through_compaction(self):
        store = InMemoryObjectStore()
        documents = _documents(store)
        AirphantBuilder(store, config=CONFIG, num_shards=3).build_from_documents(
            documents[:150], index_name="idx"
        )
        manager = AppendOnlyIndexManager(store, "idx", config=CONFIG)
        manager.append(documents[150:])
        manager.compact()
        opened = _assert_opens_like_a_direct_read(store, manager.manifest().active_base)
        assert opened.manifest.num_shards == 3
        assert opened.header.metadata_of().num_documents == len(documents)

    @pytest.mark.parametrize(
        "layout, blob",
        [
            ("container", "old/header.json"),
            ("shards.json", "old/shards.json"),
            ("json-header", "old/header.json"),
            ("codec-v1", "old/header.json"),
            ("shard-stats", "old/stats.json"),
        ],
    )
    def test_a_retired_format_is_a_typed_rebuild_error(self, layout, blob):
        store = InMemoryObjectStore()
        store.put("corpus/base.txt", CORPUS)
        with AirphantService(store, ServiceConfig(ingest_interval_s=0)) as service:
            service.build_index("old", ["corpus/base.txt"], num_shards=3)
        fresh = store.get("old/stats.json")
        retire_format(store, "old", layout)
        if layout == "shard-stats":
            # Statistics kept per shard are not read: the index opens and
            # answers membership queries, but ranked ones and a compaction
            # are refused, naming the missing build statistics.
            open_headers(store, ["old"])
            before = {name: store.get(name) for name in store.list_blobs()}
            with pytest.raises(UnsupportedIndexFormatError, match="rebuild") as caught:
                AppendOnlyIndexManager(store, "old", config=CONFIG).compact()
            assert caught.value.blob == blob
            assert {name: store.get(name) for name in store.list_blobs()} == before
            expected, ranked = (409, "index_format"), "topk_bm25"
        else:
            with pytest.raises(UnsupportedIndexFormatError, match="rebuild") as caught:
                open_headers(store, ["old"])
            assert caught.value.blob == blob
            expected, ranked = (409, "index_format"), "keyword"
        with AirphantService(store, ServiceConfig(ingest_interval_s=0)) as service:
            with pytest.raises(ServiceError) as refused:
                service.search(SearchRequest(index="old", query="error", mode=ranked))
            assert (refused.value.info.status, refused.value.info.error) == expected
            assert "rebuild" in refused.value.info.message
            if layout == "shard-stats":
                assert service.search(SearchRequest(index="old", query="error")).documents
            # A rebuild over the retired layout is the way out: it builds the
            # next generation, retires what the old layout left behind, and
            # answers again.  The next swap purges the retired blobs.
            service.build_index("old", ["corpus/base.txt"], num_shards=3)
            assert service.search(SearchRequest(index="old", query="error", mode=ranked)).documents
            assert AppendOnlyIndexManager(store, "old").manifest().retired == ("old",)
            service.build_index("old", ["corpus/base.txt"], num_shards=3)
            assert service.search(SearchRequest(index="old", query="error", mode=ranked)).documents
        assert not store.exists("old/shards.json")
        assert not store.list_blobs("old/shard-")
        assert not store.exists("old/stats.json")
        assert store.get("old/gen-00000002/stats.json") == fresh

    def test_a_shard_manifest_naming_another_index_is_corrupt(self):
        store = InMemoryObjectStore()
        AirphantBuilder(store, config=CONFIG, num_shards=2).build_from_documents(
            _documents(store), index_name="q"
        )
        store.put("x/header.json", store.get("q/header.json"))
        with pytest.raises(CorruptIndexError, match="x/header.json"):
            open_headers(store, ["x"])
        with AirphantService(store, ServiceConfig(ingest_interval_s=0)) as service:
            with pytest.raises(ServiceError) as caught:
                service.search(SearchRequest(index="x", query="INFO"))
        assert (caught.value.info.status, caught.value.info.error) == (502, "index_corrupt")

    def test_a_missing_build_is_a_missing_blob(self):
        with pytest.raises(BlobNotFoundError):
            open_headers(InMemoryObjectStore(), ["nothing-here"])

    def test_index_info_round_trips_are_the_openers_plus_the_update_manifest(self):
        backend = InMemoryObjectStore()
        AirphantBuilder(backend, config=CONFIG, num_shards=4).build_from_documents(
            _documents(backend), index_name="sharded"
        )
        budget = RecordingStore(backend)
        AirphantSearcher.open(budget, "sharded")
        AppendOnlyIndexManager(budget, "sharded").manifest()
        assert budget.round_trips == 2  # header.json, manifest

        observed = RecordingStore(backend)
        with AirphantService(observed, ServiceConfig(ingest_interval_s=0)) as service:
            info = service.index_info("sharded")
        assert info.num_shards == 4 and not info.is_open
        # storage_bytes lists and sizes the prefix; everything else resolves
        # name -> manifest -> members -> headers.
        resolving = [
            call
            for call in observed.calls
            if call[0] not in ("list_blobs", "size", "batch_read")
        ]
        assert len(resolving) <= budget.round_trips, resolving


# -- ownership ----------------------------------------------------------------------


def _assert_every_blob_owned_once(store, name):
    """Builds + manifests + snapshots + WAL partition ``list_blobs(name/)``."""
    manager = AppendOnlyIndexManager(store, name)
    manifest = manager.manifest()
    builds = [*manifest.all_indexes, *manifest.retired]
    for snapshot in manager.list_snapshots():
        builds.extend(snapshot.manifest.all_indexes)
    owners: Counter[str] = Counter()
    for build in dict.fromkeys(builds):
        owners.update(build_blobs(store, build))
    if store.exists(update_manifest_blob_name(name)):
        owners[update_manifest_blob_name(name)] += 1
    owners.update(snapshot_blobs(store, name))
    owners.update(store.list_blobs(ingest_prefix(name)))
    assert {blob: count for blob, count in owners.items() if count != 1} == {}
    assert sorted(owners) == store.list_blobs(f"{name}/")


CORPUS = b"error disk full\ninfo service ok\nwarn slow response\nerror net down\n"
BASE_REF = Posting(blob="corpus/base.txt", offset=0, length=15)


def _service(num_shards: int = 1) -> AirphantService:
    store = InMemoryObjectStore()
    store.put("corpus/base.txt", CORPUS)
    service = AirphantService(store, ServiceConfig(ingest_interval_s=0))
    service.build_index("idx", ["corpus/base.txt"], num_shards=num_shards)
    return service


def _answers(service: AirphantService, index: str = "idx", raw: bool = False) -> dict | bytes:
    """Keyword, Boolean and ranked answers: sorted (score, text) pairs, or
    with ``raw`` the responses' JSON, latency aside."""

    def ask(query, mode):
        response = service.search(SearchRequest(index=index, query=query, mode=mode)).to_dict()
        if raw:
            del response["latency"]
            return response
        return sorted(
            (round(doc.get("score") or 0.0, 9), doc["text"]) for doc in response["documents"]
        )

    answers = {
        "keyword": ask("error", "keyword"),
        "boolean": ask("error OR (warn AND slow)", "boolean"),
        "topk_bm25": ask("error disk", "topk_bm25"),
    }
    return json.dumps(answers, sort_keys=True).encode("utf-8") if raw else answers


IN_PLACE_BASE_BLOBS = ("idx/header.json", "idx/superposts.bin", "idx/stats.json", "idx/shards.json")


def _in_place_leftovers(store) -> list[str]:
    return [
        blob
        for blob in store.list_blobs("idx/")
        if blob in IN_PLACE_BASE_BLOBS or blob.startswith("idx/shard-")
    ]


@pytest.mark.parametrize("num_shards", [1, 3])
class TestLifecycleOwnership:
    def test_every_blob_has_one_owner_at_every_step(self, num_shards):
        with _service(num_shards) as service:
            store = service.store
            steps = [
                lambda: service.append_documents("idx", ["error first append"]),
                lambda: service.flush_index("idx"),
                lambda: service.delete_documents("idx", [BASE_REF]),
                lambda: service.create_snapshot("idx", "cp"),
                lambda: service.append_documents("idx", ["warn second append"]),
                lambda: service.compact_index("idx"),
                lambda: service.append_documents("idx", ["info third append"]),
                lambda: service.compact_index("idx"),
                lambda: service.restore_snapshot("idx", "cp"),
                lambda: service.append_documents("idx", ["error after restore"]),
                lambda: service.compact_index("idx"),
                lambda: service.delete_snapshot("idx", "cp"),
                lambda: service.append_documents("idx", ["info after unpin"]),
                lambda: service.compact_index("idx"),
                lambda: service.build_index("idx", ["corpus/base.txt"], num_shards=num_shards),
            ]
            _assert_every_blob_owned_once(store, "idx")
            for step in steps:
                step()
                _assert_every_blob_owned_once(store, "idx")

    def test_a_retired_in_place_base_is_purged_whole(self, num_shards):
        """The leak: ``stats.json`` outlived its header and superposts for good."""
        with _service(num_shards) as service:
            store = service.store
            assert set(_in_place_leftovers(store)) >= (
                {"idx/header.json"} if num_shards > 1 else set(IN_PLACE_BASE_BLOBS[:3])
            )
            appended = []
            for round_number in (1, 2, 3):
                appended.append(f"error appended round{round_number}")
                service.append_documents("idx", appended[-1:])
                assert service.compact_index("idx")["compacted"] is True
                if round_number == 1:
                    assert _in_place_leftovers(store)  # one generation of grace
                else:
                    assert _in_place_leftovers(store) == []
            after = _answers(service)

        fresh_store = InMemoryObjectStore()
        fresh_store.put("corpus/base.txt", CORPUS + "".join(f"{t}\n" for t in appended).encode())
        with AirphantService(fresh_store, ServiceConfig(ingest_interval_s=0)) as fresh:
            fresh.build_index("idx", ["corpus/base.txt"], num_shards=num_shards)
            assert after == _answers(fresh)
        assert len(after["keyword"]) == 5 and after["topk_bm25"]

    def test_a_snapshot_pins_the_whole_in_place_base(self, num_shards):
        with _service(num_shards) as service:
            store = service.store
            pinned = sorted(_in_place_leftovers(store))
            before = _answers(service)
            service.create_snapshot("idx", "cp")
            for round_number in (1, 2, 3):
                service.append_documents("idx", [f"error appended round{round_number}"])
                service.compact_index("idx")
            assert sorted(_in_place_leftovers(store)) == pinned
            service.restore_snapshot("idx", "cp")
            assert _answers(service) == before
            service.delete_snapshot("idx", "cp")

    def test_in_place_and_generational_bases_weigh_the_same_blobs(self, num_shards):
        """The compaction-ratio denominator must not depend on where the base sits."""
        with _service(num_shards) as service:
            store = service.store
            assert build_bytes(store, "idx") == sum(
                store.size(blob) for blob in _in_place_leftovers(store)
            )
            # Fold a delta-free, tombstone-free no-op: same corpus, new home.
            manager = AppendOnlyIndexManager(
                store, "idx", tokenizer=service.config.make_tokenizer()
            )
            manager.compact(corpus_name="idx")
            moved = manager.manifest().active_base
            assert moved != "idx"
            assert build_bytes(store, moved) == store.total_bytes(f"{moved}/")

            def weighed(build: str) -> dict[str, int]:
                return {blob[len(build) :]: store.size(blob) for blob in build_blobs(store, build)}

            in_place, generational = weighed("idx"), weighed(moved)
            assert in_place.keys() == generational.keys()
            assert any(blob.endswith("/stats.json") for blob in in_place)
            # Headers and the shard manifest spell their own prefix inside;
            # the blobs that hold no names weigh the same to the byte.
            nameless = [b for b in in_place if b.endswith(("/stats.json", "/superposts.bin"))]
            assert [in_place[b] for b in nameless] == [generational[b] for b in nameless]


# -- addressability -----------------------------------------------------------------


NAMES = ["a", "a/b", "a/delta-0001", "a/shard-0002", "a/gen-00000003", "a/snapshots/x", "", "/"]


@pytest.mark.parametrize("name", NAMES)
def test_build_rejects_exactly_the_names_the_catalog_refuses_to_serve(name):
    store = InMemoryObjectStore()
    store.put("corpus/base.txt", CORPUS)
    # Put a complete build under the name behind the service's back, so only
    # the name itself can be why the catalog refuses it.
    documents = LineDelimitedCorpusParser().parse(store, ["corpus/base.txt"])
    AirphantBuilder(store, config=CONFIG).build_from_documents(documents, name, "planted")
    with AirphantService(store, ServiceConfig(ingest_interval_s=0)) as service:
        served = service.catalog.contains(name)
        try:
            service.catalog.info(name)
            described = True
        except KeyError:
            described = False
        try:
            service.build_index(name, ["corpus/base.txt"])
            built = True
        except ServiceError as error:
            assert error.info.error == "bad_index_name"
            built = False
        assert served == described == built == is_index_name(name)
        assert (name in service.catalog.names()) == built
    assert is_index_name(name) == (name in ("a", "a/b"))


# -- the documented table -----------------------------------------------------------


def _documented_blobs() -> list[str]:
    """First-column names of the "On-store layout" table in ARCHITECTURE.md."""
    text = (Path(__file__).resolve().parents[2] / "docs" / "ARCHITECTURE.md").read_text(
        encoding="utf-8"
    )
    section = text.split("### On-store layout\n", 1)[1].split("\n**Ownership**", 1)[0]
    rows = [line for line in section.splitlines() if line.startswith("| `")]
    return [row.split("`")[1] for row in rows]


def test_the_documented_table_names_exactly_what_the_module_spells():
    def spelled(template: str) -> str:
        return (
            template.replace("{build}", "idx")
            .replace("{index}", "idx")
            .replace("{name}", "cp")
            .replace("NNNNNNNN", "00000007")
            .replace("NNNN", "0007")
        )

    namers = {
        "header_blob_name": store_layout.header_blob_name("idx"),
        "superpost_blob_name": store_layout.superpost_blob_name("idx"),
        "stats_blob_name": store_layout.stats_blob_name("idx"),
        "shard_manifest_blob_name": store_layout.shard_manifest_blob_name("idx"),
        "shard_index_name": store_layout.shard_index_name("idx", 7) + "/…",
        "delta_index_name": store_layout.delta_index_name("idx", 7) + "/…",
        "generation_index_name": store_layout.generation_index_name("idx", 7) + "/…",
        "update_manifest_blob_name": store_layout.update_manifest_blob_name("idx"),
        "snapshot_blob_name": store_layout.snapshot_blob_name("idx", "cp"),
        "ingest_manifest_blob": store_layout.ingest_manifest_blob("idx"),
        "segment_blob": store_layout.segment_blob("idx", 7),
        "update_blob": store_layout.update_blob("idx", 7),
        "tombstone_blob": store_layout.tombstone_blob("idx", 7),
    }
    # Every function of the module that spells a name is in the list above ...
    assert set(namers) | {"is_index_name"} == {
        name
        for name, value in vars(store_layout).items()
        if inspect.isfunction(value) and name.endswith(("_blob_name", "_blob", "_index_name"))
    }
    # ... and the table documents exactly those names, each once.
    assert sorted(spelled(blob) for blob in _documented_blobs()) == sorted(namers.values())
