"""Golden test: the store call sequence of a cold open plus two queries, and
of a write history.

``AirphantService.searcher(name)`` on a cold node, then one keyword and one
``topk_bm25`` query, over a plain, a 4-shard and a base + 2-delta index — and
an append, a flush, a delete and a compaction of a plain index: the ordered
``(method, blob, offset, length)`` log of a recording store must equal the
capture in ``golden_store_calls.json``.  The service runs with its block
cache on (the default); the two queries share no range, so the cold log is
the same as an uncached one.  Moving who resolves name → manifest
→ members → headers, or who issues a wave, must not move a single store call
on the open/query path, nor a write's commit; a change that *means* to
regenerates the golden on purpose (last: pending deletes moved into
``manifest.json``, so a delete writes no ``tomb-`` record and the
compaction's purge has none to delete; before that, the WAL's state moved
into ``manifest.json``, so each write commits with one read and one PUT of
it and no ``ingest/ingest.json`` PUT)::

    PYTHONPATH=src:tests python tests/index/test_golden_store_calls.py
"""

from __future__ import annotations

import json
from pathlib import Path

from harness.stores import RecordingStore

from repro.core.config import SketchConfig
from repro.index.builder import AirphantBuilder
from repro.index.updates import AppendOnlyIndexManager
from repro.parsing.corpus import LineDelimitedCorpusParser
from repro.parsing.documents import Posting
from repro.service.config import ServiceConfig
from repro.service.facade import AirphantService
from repro.storage.memory import InMemoryObjectStore
from repro.workloads.logs import generate_log_corpus

GOLDEN = Path(__file__).with_name("golden_store_calls.json")

CONFIG = SketchConfig(num_bins=256, target_false_positives=1.0, seed=7)


def build() -> InMemoryObjectStore:
    """A plain, a 4-shard and a base + 2-delta index over one seeded corpus."""
    backend = InMemoryObjectStore()
    corpus = generate_log_corpus(backend, "hdfs", 400, seed=23)
    documents = list(LineDelimitedCorpusParser().parse(backend, corpus.blob_names))
    for name in ("plain", "writes"):
        AirphantBuilder(backend, config=CONFIG).build_from_documents(documents, index_name=name)
    AirphantBuilder(backend, config=CONFIG, num_shards=4).build_from_documents(
        documents, index_name="sharded"
    )
    manager = AppendOnlyIndexManager(backend, "deltas", config=CONFIG)
    manager.build_base(documents[:200])
    manager.append(documents[200:300])
    manager.append(documents[300:])
    return backend


def capture() -> dict[str, list[list]]:
    """Per index: every store call of a cold open, a keyword and a ranked query."""
    backend = build()
    observed: dict[str, list[list]] = {}
    for name in ("plain", "sharded", "deltas"):
        store = RecordingStore(backend)
        with AirphantService(store, ServiceConfig(ingest_interval_s=0)) as service:
            searcher = service.searcher(name)
            assert searcher.search("ERROR").documents
            assert searcher.search_topk("INFO block", 10).documents
        observed[name] = store.calls
    store = RecordingStore(backend)
    with AirphantService(store, ServiceConfig(ingest_interval_s=0)) as service:
        appended = service.append_documents("writes", ["ERROR appended golden line"])
        service.flush_index("writes")
        service.delete_documents("writes", [Posting(**appended["refs"][0])])
        service.compact_index("writes")
    observed["writes"] = store.calls
    return observed


def test_open_and_query_call_sequence_matches_the_golden_capture():
    expected = json.loads(GOLDEN.read_text(encoding="utf-8"))
    observed = capture()
    assert observed.keys() == expected.keys()
    for name in expected:
        assert observed[name] == expected[name], f"store calls moved on {name!r}"


def test_the_sequence_covers_open_lookup_and_stats():
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    for name, calls in golden.items():
        if name == "writes":
            continue
        blobs = {blob for _, blob, _, _ in calls}
        assert any(blob.endswith("/header.json") for blob in blobs), name
        assert any(blob.endswith("/superposts.bin") for blob in blobs), name
        assert any(blob.endswith("/stats.json") for blob in blobs), name
    # A sharded build's one header holds its shards': no shard header is read.
    for name, headers in (("deltas", 3), ("sharded", 1)):
        read = [blob for method, blob, _, _ in golden[name] if method == "batch_read"]
        assert sum(1 for blob in read if blob.endswith("/header.json")) == headers


def test_a_query_costs_two_batches_however_many_members():
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    for name, opens in (("plain", 1), ("sharded", 1), ("deltas", 2)):
        assert not any(method == "exists" for method, _, _, _ in golden[name]), name
        batches = [length for method, _, _, length in golden[name] if method == "read_batch"]
        # The open: the discovery batch, then (deltas) the headers it names.  Per query: lookup + documents — the first ranked query's
        # lookup also reads every member's statistics.
        assert len(batches) == opens + 2 + 2, (name, batches)
        # header.json, manifest.json and the legacy ingest.json it folds in
        assert batches[0] == 3, name
        assert batches[opens + 1] == 62, name  # the keyword query's documents
        assert batches[-1] == 10, name  # the ranked query's winners


def test_each_write_commits_with_one_manifest_put():
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    puts = [blob for method, blob, _, _ in golden["writes"] if method == "put"]
    # The append's block reservation, the flush, the delete, the compaction.
    assert puts.count("writes/manifest.json") == 4
    assert not [blob for blob in puts if blob.endswith("ingest.json")]
    # Each commit reads the manifest again first: another process's commit is
    # adopted, not overwritten.
    calls = [call[:2] for call in golden["writes"]]
    for at, call in enumerate(calls):
        if call == ["put", "writes/manifest.json"]:
            assert calls[at - 1] == ["batch_read", "writes/manifest.json"], at


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(capture(), indent=0) + "\n", encoding="utf-8")
    print(f"wrote {GOLDEN}")
