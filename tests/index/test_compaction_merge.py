"""Compaction merges the members' statistics: a fresh rebuild, blob for blob.

``AppendOnlyIndexManager.compact`` reads each member's ``stats.json`` in one
wave, merges the columns minus the pending tombstones and builds the new
generation from them.  These tests pin that

* the generation it writes is byte-identical to ``build_from_documents``
  over the surviving documents — plain and 4-shard bases, the latter also
  as the retired round-robin partitioner built them (the new generation is
  hash-routed, as every build is), tombstones on base and delta rows;
* a member whose statistics are missing or in a retired container (v1
  JSON, v2, or any version but 3) is a typed "rebuild" error raised before
  any PUT: compaction never re-derives statistics from superposts;
* a compaction of members that all have statistics reads nothing but the
  update manifest, the shard manifest and one wave of ``stats.json``: no
  corpus blob, no WAL segment;
* a document with no indexable token survives compaction in the ranking
  statistics, so BM25 scores after a compaction equal a rebuild's;
* a member without statistics whose superposts miss some of its documents
  (those with no indexable token) is the same "rebuild" error, not a new
  base with fewer documents.
"""

from __future__ import annotations

import pytest

from harness.legacy_header import STATS_LAYOUTS, build_round_robin, stats_of_version
from harness.stores import RecordingStore

from repro.core.config import SketchConfig
from repro.index.builder import AirphantBuilder
from repro.index.store_layout import UnsupportedIndexFormatError, stats_blob_name
from repro.index.updates import AppendOnlyIndexManager
from repro.observability import MetricsRegistry
from repro.parsing.corpus import LineDelimitedCorpusParser
from repro.parsing.documents import Document, Posting
from repro.parsing.tokenizer import SimpleAnalyzer
from repro.search.searcher import AirphantSearcher
from repro.service import AirphantService, SearchRequest, ServiceConfig, ServiceError
from repro.storage.memory import InMemoryObjectStore
from repro.workloads.logs import generate_log_corpus

#: A one-layer build chosen by Algorithm 1, and a pinned two-layer one (co-access chains).
CONFIGS = [
    SketchConfig(num_bins=3_000, seed=5),
    SketchConfig(num_bins=3_000, num_layers=2, seed=9),
]
#: Shard count of the base, and whether an older build routed it round-robin.
BASES = [(1, False), (4, False), (4, True)]


def _live_index(
    store, config: SketchConfig, shards: int, round_robin: bool = False
) -> tuple[AppendOnlyIndexManager, list[Document], list[Document]]:
    """A base of 300 log lines and three appended deltas of 40."""
    base = generate_log_corpus(store, "hdfs", 300, seed=21).documents
    if round_robin:
        build_round_robin(store, base, "live", config, shards)
    else:
        AirphantBuilder(store, config=config, num_shards=shards).build_from_documents(
            base, index_name="live"
        )
    manager = AppendOnlyIndexManager(store, "live", config=config)
    feed = generate_log_corpus(InMemoryObjectStore(), "hdfs", 120, seed=22).documents
    appended: list[Document] = []
    for delta in range(3):
        blob = f"live/ingest/seg-{delta:08d}.log"
        batch = feed[delta * 40 : delta * 40 + 40]
        lines = [f"{document.text} uid{delta}x{at}" for at, document in enumerate(batch)]
        store.put(blob, "\n".join(lines).encode("utf-8"))
        documents = list(LineDelimitedCorpusParser().parse(store, [blob]))
        manager.append(documents)
        appended += documents
    return manager, base, appended


def _build_blobs(store, prefix: str) -> dict[str, bytes]:
    return {name: store.get(name) for name in store.list_blobs(prefix=f"{prefix}/")}


@pytest.mark.parametrize("config", CONFIGS, ids=["optimized", "two-layer"])
@pytest.mark.parametrize("shards,round_robin", BASES, ids=["plain", "hash4", "round-robin4"])
def test_compaction_equals_a_fresh_build_over_survivors(config, shards, round_robin):
    store = InMemoryObjectStore()
    manager, base, appended = _live_index(store, config, shards, round_robin)
    tombstones = {d.ref for d in base[3:40:7]} | {d.ref for d in appended[5:100:11]}

    built = manager.compact(exclude=tombstones)

    survivors = sorted(
        (d for d in base + appended if d.ref not in tombstones), key=lambda d: d.ref
    )
    fresh = InMemoryObjectStore()
    AirphantBuilder(fresh, config=config, num_shards=shards).build_from_documents(
        survivors, index_name=built.index_name
    )
    compacted = _build_blobs(store, built.index_name)
    assert sorted(compacted) == sorted(_build_blobs(fresh, built.index_name))
    for name, payload in _build_blobs(fresh, built.index_name).items():
        assert compacted[name] == payload, name
    documents = built.num_documents if shards > 1 else built.metadata.num_documents
    assert documents == len(survivors)


@pytest.mark.parametrize("member", [0, 2], ids=["base", "delta"])
@pytest.mark.parametrize("state", ["missing", "json-stats", "stats-v2", "v99"])
@pytest.mark.parametrize("shards", [1, 4], ids=["plain", "hash4"])
def test_a_member_without_current_statistics_is_refused_before_any_put(shards, member, state):
    store = InMemoryObjectStore()
    manager, _, _ = _live_index(store, CONFIGS[0], shards)
    blob = stats_blob_name(manager.manifest().all_indexes[member])
    if state == "missing":
        store.delete(blob)
    elif state == "v99":
        store.put(blob, stats_of_version(store.get(blob), 99))
    else:
        store.put(blob, STATS_LAYOUTS[state])
    before = {name: store.get(name) for name in store.list_blobs()}

    with pytest.raises(UnsupportedIndexFormatError, match="rebuild") as caught:
        manager.compact()
    assert caught.value.blob == blob
    assert {name: store.get(name) for name in store.list_blobs()} == before


@pytest.mark.parametrize("shards", [1, 4], ids=["plain", "hash4"])
def test_compaction_reads_only_manifests_and_one_wave_of_statistics(shards):
    backend = InMemoryObjectStore()
    manager, base, _ = _live_index(backend, CONFIGS[0], shards)
    members = manager.manifest().all_indexes
    recording = RecordingStore(backend)
    AppendOnlyIndexManager(recording, "live", config=CONFIGS[0]).compact(
        exclude={base[0].ref}
    )

    reads = [call for call in recording.calls if call[0] in ("get", "get_range", "read_batch")]
    assert [call[:2] for call in reads] == [["read_batch", ""]] * 4
    manifest, headers, stats, committed = _waves(recording.calls)
    assert manifest == ["live/manifest.json", "live/ingest/ingest.json"]
    # The swap's commit reads the manifest again before its PUT.
    assert committed == ["live/manifest.json"]
    # Every member's header (a sharded base's one header holds its shards'
    # split and manifest), then every member's one stats blob.
    assert sorted(headers) == sorted(f"{member}/header.json" for member in members)
    assert stats == [stats_blob_name(member) for member in members]


def _waves(calls):
    """The blobs of each ``read_batch`` in ``calls``, in order."""
    waves: list[list[str]] = []
    for method, blob, *_ in calls:
        if method == "read_batch":
            waves.append([])
        elif method == "batch_read":
            waves[-1].append(blob)
    return waves


def _ranked(service: AirphantService, index: str, query: str) -> list[tuple[str, float]]:
    result = service.execute(SearchRequest(query=query, index=index, mode="topk_bm25", top_k=5))
    return [(d.text, round(score, 9)) for d, score in zip(result.documents, result.scores)]


def test_compaction_keeps_documents_without_an_indexable_token():
    store = InMemoryObjectStore()
    service = AirphantService(
        store, ServiceConfig(tokenizer="simple", ingest_interval_s=0), metrics=MetricsRegistry()
    )
    store.put("corpus/base.txt", b"beta gamma\ngamma delta\nalpha beta delta\n")
    service.build_index("live", ["corpus/base.txt"])
    texts = ["!!! ---", "alpha alpha"]
    outcome = service.append_documents("live", texts)
    service.flush_index("live")
    flushed = _ranked(service, "live", "alpha")
    assert [text for text, _ in flushed] == ["alpha alpha", "alpha beta delta"]

    service.compact_index("live")
    assert _ranked(service, "live", "alpha") == flushed

    # ... and both equal a rebuild over the five documents.
    survivors = [
        *LineDelimitedCorpusParser().parse(store, ["corpus/base.txt"]),
        *(Document(Posting(**ref), text) for ref, text in zip(outcome["refs"], texts)),
    ]
    AirphantBuilder(store, tokenizer=SimpleAnalyzer()).build_from_documents(
        survivors, index_name="reference"
    )
    reference = AirphantSearcher.open(store, "reference", tokenizer=SimpleAnalyzer())
    expected = reference.search_topk("alpha", k=5)
    assert [(d.text, round(s, 9)) for d, s in zip(expected.documents, expected.scores)] == flushed
    reference.close()
    service.close()


def test_a_member_whose_superposts_miss_documents_is_not_re_derived():
    store = InMemoryObjectStore()
    config = ServiceConfig(tokenizer="simple", ingest_interval_s=0)
    store.put("corpus/base.txt", b"alpha beta\n!!\ngamma alpha\n--\nbeta delta\n")
    with AirphantService(store, config) as service:
        service.build_index("idx", ["corpus/base.txt"], num_shards=2)
        assert service.index_info("idx").num_documents == 5
    # Re-deriving the statistics from the superposts would find 3 documents:
    # "!!" and "--" have no token, so no superpost names them.
    store.delete(stats_blob_name("idx"))
    before = {name: store.get(name) for name in store.list_blobs()}
    with pytest.raises(UnsupportedIndexFormatError, match="rebuild") as caught:
        AppendOnlyIndexManager(store, "idx", tokenizer=SimpleAnalyzer()).compact()
    assert "index blob 'idx/stats.json' holds nothing (the blob is missing)" in str(
        caught.value
    )
    assert {name: store.get(name) for name in store.list_blobs()} == before

    with AirphantService(store, config) as service:
        service.append_documents("idx", ["alpha gamma"])
        with pytest.raises(ServiceError) as refused:
            service.compact_index("idx")
        assert (refused.value.status, refused.value.info.error) == (409, "index_format")
