"""Waves per open, pinned: at most two dependent batches before the first query.

The open-path twin of ``tests/search/test_waves_per_query.py``.  A cold node
asks for every blob that says what an index *is* — shard manifest, header,
update manifest, ingest manifest — as one batch of "missing is an answer"
reads; whatever those name (member headers, shard headers, WAL segments,
tombstone records) is one more.  Only a sharded *generational* base needs a
third (manifest → its ``shards.json`` → the shard headers).  No ``exists``
anywhere, nothing re-read on a reopen that this process already knows, and a
name that is not there costs the one discovery batch.
"""

from __future__ import annotations

import pytest
from harness.stores import RecordingStore

from repro.core.config import SketchConfig
from repro.index.builder import AirphantBuilder
from repro.index.updates import AppendOnlyIndexManager
from repro.parsing.corpus import LineDelimitedCorpusParser
from repro.parsing.documents import Posting
from repro.search.searcher import AirphantSearcher
from repro.service.api import ServiceError
from repro.service.config import ServiceConfig
from repro.service.facade import AirphantService
from repro.storage.latency import AffineLatencyModel
from repro.storage.memory import InMemoryObjectStore
from repro.storage.simulated import SimulatedCloudStore
from repro.workloads.logs import generate_log_corpus

CONFIG = SketchConfig(num_bins=256, target_false_positives=1.0, seed=7)
SERVICE = ServiceConfig(ingest_interval_s=0)


@pytest.fixture(scope="module")
def bucket():
    """``(backend, appended)``: one index per layout, and the texts ``live`` holds unflushed."""
    backend = InMemoryObjectStore()
    corpus = generate_log_corpus(backend, "hdfs", 300, seed=31)
    documents = list(LineDelimitedCorpusParser().parse(backend, corpus.blob_names))
    AirphantBuilder(backend, config=CONFIG).build_from_documents(documents, index_name="plain")
    AirphantBuilder(backend, config=CONFIG, num_shards=4).build_from_documents(
        documents, index_name="sharded"
    )
    deltas = AppendOnlyIndexManager(backend, "deltas", config=CONFIG)
    deltas.build_base(documents[:100])
    deltas.append(documents[100:200])
    deltas.append(documents[200:])
    # A sharded base that a compaction moved under a generational prefix,
    # with two deltas stacked on it since.
    AirphantBuilder(backend, config=CONFIG, num_shards=3).build_from_documents(
        documents[:100], index_name="generational"
    )
    generational = AppendOnlyIndexManager(backend, "generational", config=CONFIG)
    generational.append(documents[100:150])
    generational.compact()
    generational.append(documents[150:200])
    generational.append(documents[200:])
    assert generational.manifest().active_base != "generational"
    # A live index another process left behind: base, one flushed delta, 20
    # unflushed one-document WAL segments, one tombstone record.
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
    [("plain", 1), ("sharded", 2), ("deltas", 2), ("live", 2), ("generational", 3)],
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
            for blob in ("shards.json", "header.json", "manifest.json", "ingest/ingest.json")
        )
        assert searcher.search("INFO", top_k=3).documents
        if name == "live":
            # Replay rode wave 2: 20 segments + the tombstone record, beside
            # the delta's shards.json / header.json pair.
            assert len(batches[1]) == 2 + 20 + 1
            assert len(searcher.searchers) == 3  # base, delta, the replayed memtable
            found = searcher.search("unflushed").documents
            assert sorted(d.text for d in found) == sorted(appended)
            assert service.ingest.live(name).tombstone_refs()
        assert not any(method == "exists" for method, _, _, _ in store.calls)


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
        first, second = _batches(store.calls[start:])[:2]
        # This node wrote the manifest, and its live index is registered: the
        # manifest alone is wave 1, base and delta headers are wave 2.
        assert first == ["idx/manifest.json"]
        assert sorted(second) == sorted(
            f"{build}/{blob}"
            for build in ("idx", "idx/delta-0000")
            for blob in ("shards.json", "header.json")
        )
        # After a compaction the in-place header lingers, retired, for one
        # generation of reader grace: a reopen must not download it.
        service.append_documents("idx", ["reopen needle two"])
        assert service.compact_index("idx")["compacted"]
        assert backend.exists("idx/header.json")
        start = len(store.calls)
        assert len(service.searcher("idx").search("needle").documents) == 2
        reads = [blob for batch in _batches(store.calls[start:]) for blob in batch]
        assert "idx/header.json" not in reads and "idx/ingest/ingest.json" not in reads
        assert not any(method == "exists" for method, _, _, _ in store.calls[start:])


def test_a_name_that_is_not_there_costs_the_discovery_batch_and_a_404(bucket):
    backend, _ = bucket
    store = RecordingStore(backend)
    with AirphantService(store, SERVICE) as service:
        with pytest.raises(ServiceError) as caught:
            service.searcher("nothing-here")
        assert caught.value.info.status == 404
        assert [len(batch) for batch in _batches(store.calls)] == [4]
        assert store.round_trips == 1
        # A member prefix is not an index: refused before any read.
        with pytest.raises(ServiceError):
            service.searcher("deltas/delta-0000")
        assert store.round_trips == 1


class _BatchLog(SimulatedCloudStore):
    """A simulated store that keeps the record of every batch it served."""

    def __init__(self, backend):
        model = AffineLatencyModel(jitter_sigma=0.2, straggler_probability=0.1, seed=3)
        super().__init__(backend=backend, latency_model=model)
        self.batches = []

    def read_batch(self, requests, max_concurrency=32, required=None):
        fetch = super().read_batch(requests, max_concurrency, required)
        self.batches.append(fetch.batch)
        return fetch


@pytest.mark.parametrize("name", ["plain", "sharded", "deltas", "generational"])
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
        # missed probes included (charged a first-byte wait and 0 bytes).
        assert store.metrics.round_trips == len(store.batches)
        assert store.metrics.request_count == sum(len(b.requests) for b in store.batches)
        assert store.metrics.total_bytes == sum(batch.nbytes for batch in store.batches)
        missed = [r for batch in store.batches for r in batch.requests if r.nbytes == 0]
        assert missed and all(r.wait_ms > 0 and r.download_ms == 0 for r in missed)
    # The library spelling opens the builds it is handed, all in one batch.
    direct = _BatchLog(backend)
    manifest = AppendOnlyIndexManager(backend, name).manifest()
    opened = AirphantSearcher.open(direct, manifest.all_indexes)
    assert opened.init_latency_ms == pytest.approx(sum(b.total_ms for b in direct.batches))
    assert len(direct.batches) == (2 if name in ("sharded", "generational") else 1)
