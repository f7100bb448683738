"""Waves per open, pinned: at most two dependent batches before the first query.

The open-path twin of ``tests/search/test_waves_per_query.py``.  A cold node
asks for every blob that says what an index *is* — header (a sharded
build's holds every shard's split of one sketch), update manifest, ingest
manifest — as one batch of "missing is an answer" reads; whatever those
name (member headers, WAL segments) is one more.  Pending deletes are the
manifest's own, so they cost no read past it.  A
build in a retired format (a sharded layout with a header container per
shard, or ``shards.json``; a JSON header; a header over superpost codec v1 —
``harness.legacy_header``) costs no wave more: it is a typed "rebuild"
error; one whose statistics are a JSON blob, or kept per shard, opens,
answers membership queries and refuses ranked ones with the same error.  No ``exists`` on any open that
succeeds, nothing re-read on a reopen that this process already knows, and
a name that is not there costs the one discovery batch and the one probe
for a retired ``shards.json`` a missing header earns.
"""

from __future__ import annotations

import pytest
from harness.legacy_header import STATS_LAYOUTS, retire_format
from harness.stores import RecordingStore

from repro.core.config import SketchConfig
from repro.index.builder import AirphantBuilder
from repro.index.updates import AppendOnlyIndexManager
from repro.ingest.wal import SEGMENT_BLOCK
from repro.parsing.corpus import LineDelimitedCorpusParser
from repro.parsing.documents import Posting
from repro.search.searcher import AirphantSearcher
from repro.service.api import SearchRequest, ServiceError
from repro.service.config import ServiceConfig
from repro.service.facade import AirphantService
from repro.storage.latency import AffineLatencyModel
from repro.storage.memory import InMemoryObjectStore
from repro.storage.simulated import SimulatedCloudStore
from repro.workloads.logs import generate_log_corpus

CONFIG = SketchConfig(num_bins=256, target_false_positives=1.0, seed=7)
SERVICE = ServiceConfig(ingest_interval_s=0)
#: The retired formats an index opens with: only its ranked queries are refused.
UNRANKED = (*STATS_LAYOUTS, "shard-stats")
#: Each retired format ``retire_format`` can leave a build in.
RETIRED = ("container", "shards.json", "json-header", "codec-v1", *UNRANKED)


@pytest.fixture(scope="module")
def bucket():
    """``(backend, appended)``: one index per layout, and the texts ``live`` holds unflushed."""
    backend = InMemoryObjectStore()
    corpus = generate_log_corpus(backend, "hdfs", 300, seed=31)
    documents = list(LineDelimitedCorpusParser().parse(backend, corpus.blob_names))
    AirphantBuilder(backend, config=CONFIG).build_from_documents(documents, index_name="plain")
    deltas = AppendOnlyIndexManager(backend, "deltas", config=CONFIG)
    deltas.build_base(documents[:100])
    deltas.append(documents[100:200])
    deltas.append(documents[200:])
    for prefix in ("", *(f"legacy-{layout}-" for layout in RETIRED)):
        AirphantBuilder(backend, config=CONFIG, num_shards=4).build_from_documents(
            documents, index_name=f"{prefix}sharded"
        )
        # A sharded base that a compaction moved under a generational
        # prefix, with two deltas stacked on it since.
        AirphantBuilder(backend, config=CONFIG, num_shards=3).build_from_documents(
            documents[:100], index_name=f"{prefix}generational"
        )
        generational = AppendOnlyIndexManager(backend, f"{prefix}generational", config=CONFIG)
        generational.append(documents[100:150])
        generational.compact()
        generational.append(documents[150:200])
        generational.append(documents[200:])
        assert generational.manifest().active_base != f"{prefix}generational"
    for layout in RETIRED:
        retire_format(backend, f"legacy-{layout}-sharded", layout)
        base = AppendOnlyIndexManager(backend, f"legacy-{layout}-generational").manifest()
        retire_format(backend, base.active_base, layout)
    # A live index another process left behind: base, one flushed delta, 20
    # unflushed one-document WAL segments, one pending delete.
    with AirphantService(backend, SERVICE) as writer:
        writer.build_index("live", corpus.blob_names, sketch_config=CONFIG)
        writer.append_documents("live", ["flushed needle one", "flushed needle two"])
        assert writer.flush_index("live")["delta"]
        appended = [f"unflushed needle number{n}" for n in range(20)]
        refs = [writer.append_documents("live", [text])["refs"][0] for text in appended]
        writer.delete_documents("live", [_posting(refs[0])])
    return backend, appended[1:]


def _posting(ref):
    return Posting(ref["blob"], ref["offset"], ref["length"])


def _open(backend, name):
    """A cold node's ``searcher(name)``: the searcher, the store log, the service."""
    store = RecordingStore(backend)
    service = AirphantService(store, SERVICE)
    return service.searcher(name), store, service


def _batches(calls):
    """The blobs of each ``read_batch`` in ``calls``, in order."""
    batches: list[list[str]] = []
    for method, blob, _, _ in calls:
        if method == "read_batch":
            batches.append([])
        elif method == "batch_read":
            batches[-1].append(blob)
    return batches


@pytest.mark.parametrize(
    "name, waves",
    [
        ("plain", 1),
        ("sharded", 1),
        ("deltas", 2),
        ("live", 2),
        ("generational", 2),
    ],
)
def test_dependent_batches_before_the_first_query_wave(bucket, name, waves):
    backend, appended = bucket
    searcher, store, service = _open(backend, name)
    with service:
        opened = list(store.calls)
        # Every call of the open is a batch: no exists, no one-off get.
        assert {method for method, _, _, _ in opened} == {"read_batch", "batch_read"}
        batches = _batches(opened)
        assert len(batches) == waves, batches
        assert sorted(batches[0]) == sorted(
            f"{name}/{blob}"
            for blob in ("header.json", "manifest.json", "ingest/ingest.json")
        )
        assert searcher.search("INFO", top_k=3).documents
        if name == "live":
            # Replay rode wave 2 beside the delta's header.json: the probed
            # segment range (the 20 segments, plus at most one block of
            # numbers no append wrote), and no delete record.
            assert len(batches[1]) <= 1 + 20 + SEGMENT_BLOCK
            assert not any("/tomb-" in blob for blob in batches[1])
            assert len(searcher.searchers) == 3  # base, delta, the replayed memtable
            found = searcher.search("unflushed").documents
            assert sorted(d.text for d in found) == sorted(appended)
            # The pending delete came with wave 1's manifest.
            live = service.ingest.live(name)
            assert len(live.tombstone_refs()) == 1
            # The segments replayed, not the width of the probed range.
            assert live.summary()["wal_segments_active"] == 20
        assert not any(method == "exists" for method, _, _, _ in store.calls)


@pytest.mark.parametrize("layout", RETIRED)
@pytest.mark.parametrize("name, waves", [("sharded", 1), ("generational", 2)])
def test_a_retired_format_is_a_typed_error_after_the_same_waves(
    bucket, layout, name, waves
):
    backend, _ = bucket
    name = f"legacy-{layout}-{name}"
    store = RecordingStore(backend)
    with AirphantService(store, SERVICE) as service:
        with pytest.raises(ServiceError) as caught:
            service.search(SearchRequest(query="INFO", index=name, mode="topk_bm25", top_k=3))
        if layout in UNRANKED:
            # The index opened in the same waves; the statistics rode the
            # lookup wave, and only ranking is refused.
            assert len(_batches(store.calls)) == waves + 1
            assert service.search(SearchRequest(query="INFO", index=name, top_k=3)).documents
    assert (caught.value.info.status, caught.value.info.error) == (409, "index_format")
    assert "rebuild" in caught.value.info.message
    if layout not in UNRANKED:
        assert len(_batches(store.calls)) == waves


def test_a_reopen_after_this_nodes_own_flush_reads_only_what_it_does_not_know(bucket):
    backend = InMemoryObjectStore()
    corpus = generate_log_corpus(backend, "hdfs", 120, seed=5)
    store = RecordingStore(backend)
    with AirphantService(store, SERVICE) as service:
        service.build_index("idx", corpus.blob_names, sketch_config=CONFIG)
        service.append_documents("idx", ["reopen needle one"])
        assert service.flush_index("idx")["delta"]
        start = len(store.calls)
        assert service.searcher("idx").search("needle").documents
        first = _batches(store.calls[start:])[0]
        # This node committed the manifest, and its live index is registered:
        # the reopen opens from that manifest, with no read of it — base and
        # delta headers are its one wave.
        assert sorted(first) == ["idx/delta-0000/header.json", "idx/header.json"]
        assert "idx/manifest.json" not in {blob for _, blob, _, _ in store.calls[start:]}
        # With the index open, a flush's reopen decodes only the new delta's
        # header.
        service.append_documents("idx", ["reopen needle two"])
        assert service.flush_index("idx")["delta"]
        start = len(store.calls)
        assert len(service.searcher("idx").search("needle").documents) == 2
        assert _batches(store.calls[start:])[0] == ["idx/delta-0001/header.json"]
        assert "idx/manifest.json" not in {blob for _, blob, _, _ in store.calls[start:]}
        # After a compaction the in-place header lingers, retired, for one
        # generation of reader grace: a reopen must not download it.
        service.append_documents("idx", ["reopen needle three"])
        assert service.compact_index("idx")["compacted"]
        assert backend.exists("idx/header.json")
        start = len(store.calls)
        assert len(service.searcher("idx").search("needle").documents) == 3
        reads = [blob for batch in _batches(store.calls[start:]) for blob in batch]
        assert reads[0] == "idx/gen-00000001/header.json"
        assert "idx/header.json" not in reads and "idx/manifest.json" not in reads
        assert not any(method == "exists" for method, _, _, _ in store.calls[start:])


def test_a_reopen_after_this_nodes_restore_reads_only_the_headers_it_lacks(bucket):
    backend = InMemoryObjectStore()
    corpus = generate_log_corpus(backend, "hdfs", 120, seed=5)
    store = RecordingStore(backend)
    with AirphantService(store, SERVICE) as service:
        service.build_index("idx", corpus.blob_names, sketch_config=CONFIG)
        assert service.searcher("idx").search("INFO").documents  # holds the base
        service.append_documents("idx", ["restore needle one"])
        service.create_snapshot("idx", "one")  # flushes delta-0000 first
        service.append_documents("idx", ["restore needle two"])
        assert service.flush_index("idx")["delta"] == "idx/delta-0001"
        service.restore_snapshot("idx", "one")
        start = len(store.calls)
        found = service.searcher("idx").search("needle").documents
        assert [document.text for document in found] == ["restore needle one"]
        # This node committed the restore: the reopen starts from that
        # manifest and decodes only the header the cached searcher lacks.
        reads = [blob for _, blob, _, _ in store.calls[start:]]
        assert "idx/manifest.json" not in reads and "idx/ingest/ingest.json" not in reads
        assert [blob for blob in reads if blob.endswith("header.json")] == [
            "idx/delta-0000/header.json"
        ]


def test_a_name_that_is_not_there_costs_the_discovery_batch_and_a_404(bucket):
    backend, _ = bucket
    store = RecordingStore(backend)
    with AirphantService(store, SERVICE) as service:
        with pytest.raises(ServiceError) as caught:
            service.searcher("nothing-here")
        assert caught.value.info.status == 404
        assert [len(batch) for batch in _batches(store.calls)] == [3]
        assert store.calls[-1][:2] == ["exists", "nothing-here/shards.json"]
        assert store.round_trips == 2
        # A member prefix is not an index: refused before any read.
        with pytest.raises(ServiceError):
            service.searcher("deltas/delta-0000")
        assert store.round_trips == 2


class _BatchLog(SimulatedCloudStore):
    """A simulated store that keeps the result of every batch it served."""

    def __init__(self, backend):
        model = AffineLatencyModel(jitter_sigma=0.2, straggler_probability=0.1, seed=3)
        super().__init__(backend=backend, latency_model=model)
        self.batches = []

    def read_batch(self, requests, max_concurrency=32):
        fetch = super().read_batch(requests, max_concurrency)
        self.batches.append(fetch)
        return fetch


@pytest.mark.parametrize(
    "name", ["plain", "sharded", "deltas", "generational"]
)
def test_init_latency_is_the_sum_of_the_waves_the_open_issued(bucket, name):
    backend, _ = bucket
    store = _BatchLog(backend)
    with AirphantService(store, SERVICE) as service:
        searcher = service.catalog.open(name)
        assert len(store.batches) >= 1
        assert searcher.init_latency_ms == pytest.approx(
            sum(batch.total_ms for batch in store.batches)
        )
        # The store's own running totals saw the same waves and requests,
        # missed probes included (each charged like a read of 0 bytes).
        metrics = store.metrics
        assert metrics.round_trips == len(store.batches)
        assert metrics.request_count == sum(batch.requests for batch in store.batches)
        assert metrics.total_bytes == sum(batch.nbytes for batch in store.batches)
        assert metrics.total_wait_ms + metrics.total_download_ms == pytest.approx(
            searcher.init_latency_ms
        )
        # Only a lone build, plain or sharded, has no update manifest to find.
        payloads = [payload for batch in store.batches for payload in batch.payloads]
        assert (None in payloads) == (name in ("plain", "sharded"))
    # The library spelling opens the builds it is handed, all in one batch.
    direct = _BatchLog(backend)
    manifest = AppendOnlyIndexManager(backend, name).manifest()
    opened = AirphantSearcher.open(direct, manifest.all_indexes)
    assert opened.init_latency_ms == pytest.approx(sum(b.total_ms for b in direct.batches))
    assert len(direct.batches) == 1
