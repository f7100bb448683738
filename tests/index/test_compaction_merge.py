"""Compaction merges the members' statistics: a fresh rebuild, blob for blob.

``AppendOnlyIndexManager.compact`` reads each member's ``stats.json`` in one
wave, merges the columns minus the pending tombstones and builds the new
generation from them.  These tests pin that

* the generation it writes is byte-identical to ``build_from_documents``
  over the surviving documents — plain and 4-shard (``hash`` and
  ``round-robin``) bases, tombstones on base and delta rows, and a member
  whose statistics were deleted (it is re-read and re-analysed instead);
* a compaction of members that all have statistics reads nothing but the
  update manifest, the shard manifest and one wave of ``stats.json``: no
  corpus blob, no WAL segment;
* a document with no indexable token survives compaction in the ranking
  statistics, so BM25 scores after a compaction equal a rebuild's.
"""

from __future__ import annotations

import pytest

from harness.stores import RecordingStore

from repro.core.config import SketchConfig
from repro.index.builder import AirphantBuilder
from repro.index.store_layout import stats_blob_name
from repro.index.updates import AppendOnlyIndexManager
from repro.observability import MetricsRegistry
from repro.parsing.corpus import LineDelimitedCorpusParser
from repro.parsing.documents import Document, Posting
from repro.parsing.tokenizer import SimpleAnalyzer
from repro.search.searcher import AirphantSearcher
from repro.service import AirphantService, SearchRequest, ServiceConfig
from repro.storage.memory import InMemoryObjectStore
from repro.workloads.logs import generate_log_corpus

#: A one-layer build chosen by Algorithm 1, and a pinned two-layer one (co-access chains).
CONFIGS = [
    SketchConfig(num_bins=3_000, seed=5),
    SketchConfig(num_bins=3_000, num_layers=2, seed=9),
]
BASES = [(1, "hash"), (4, "hash"), (4, "round-robin")]


def _live_index(
    store, config: SketchConfig, shards: int, partitioner: str
) -> tuple[AppendOnlyIndexManager, list[Document], list[Document]]:
    """A base of 300 log lines and three appended deltas of 40."""
    base = generate_log_corpus(store, "hdfs", 300, seed=21).documents
    AirphantBuilder(
        store, config=config, num_shards=shards, partitioner=partitioner
    ).build_from_documents(base, index_name="live")
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
@pytest.mark.parametrize("shards,partitioner", BASES, ids=["plain", "hash4", "round-robin4"])
@pytest.mark.parametrize("stats_less_delta", [False, True], ids=["stats", "fallback"])
def test_compaction_equals_a_fresh_build_over_survivors(
    config, shards, partitioner, stats_less_delta
):
    store = InMemoryObjectStore()
    manager, base, appended = _live_index(store, config, shards, partitioner)
    if stats_less_delta:
        # A delta written before ranked retrieval: its documents are re-read.
        store.delete(stats_blob_name(manager.manifest().delta_indexes[1]))
    tombstones = {d.ref for d in base[3:40:7]} | {d.ref for d in appended[5:100:11]}

    built = manager.compact(exclude=tombstones)

    survivors = sorted(
        (d for d in base + appended if d.ref not in tombstones), key=lambda d: d.ref
    )
    fresh = InMemoryObjectStore()
    AirphantBuilder(
        fresh, config=config, num_shards=shards, partitioner=partitioner
    ).build_from_documents(survivors, index_name=built.index_name)
    compacted = _build_blobs(store, built.index_name)
    assert sorted(compacted) == sorted(_build_blobs(fresh, built.index_name))
    for name, payload in _build_blobs(fresh, built.index_name).items():
        assert compacted[name] == payload, name
    documents = built.num_documents if shards > 1 else built.metadata.num_documents
    assert documents == len(survivors)


@pytest.mark.parametrize("shards,partitioner", BASES[:2], ids=["plain", "hash4"])
def test_compaction_reads_only_manifests_and_one_wave_of_statistics(shards, partitioner):
    backend = InMemoryObjectStore()
    manager, base, _ = _live_index(backend, CONFIGS[0], shards, partitioner)
    members = manager.manifest().all_indexes
    recording = RecordingStore(backend)
    AppendOnlyIndexManager(recording, "live", config=CONFIGS[0]).compact(
        exclude={base[0].ref}
    )

    reads = [call for call in recording.calls if call[0] in ("get", "get_range", "read_batch")]
    assert [call[:2] for call in reads] == [
        ["get", "live/manifest.json"],
        ["get_range", "live/shards.json"],
        ["read_batch", ""],
    ]
    wave = [call[1] for call in recording.calls if call[0] == "batch_read"]
    expected_members = (
        [f"live/shard-{shard:04d}" for shard in range(shards)] if shards > 1 else members[:1]
    ) + members[1:]
    assert wave == [stats_blob_name(member) for member in expected_members]


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
