"""Golden test: the store call sequence of a cold open plus two queries.

``AirphantService.searcher(name)`` on a cold node, then one keyword and one
``topk_bm25`` query, over a plain, a 4-shard and a base + 2-delta index: the
ordered ``(method, blob, offset, length)`` log of a recording store must equal
the capture in ``golden_store_calls.json``.  Moving who resolves name → manifest
→ members → headers, or who issues a wave, must not move a single store call
on the open/query path; a change that *means* to regenerates the golden on
purpose (last: the ranking statistics ride the first ranked query's lookup
batch instead of a batch per member before it; before that, the open became
one batch of "missing is an answer" reads for every blob that says what the
index is, plus one for the members it names)::

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
    AirphantBuilder(backend, config=CONFIG).build_from_documents(documents, index_name="plain")
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
        blobs = {blob for _, blob, _, _ in calls}
        assert any(blob.endswith("/header.json") for blob in blobs), name
        assert any(blob.endswith("/superposts.bin") for blob in blobs), name
        assert any(blob.endswith("/stats.json") for blob in blobs), name
    # A sharded build has no header of its own; the discovery batch asks anyway.
    for name, headers in (("deltas", 3), ("sharded", 1 + 4)):
        read = [blob for method, blob, _, _ in golden[name] if method == "batch_read"]
        assert sum(1 for blob in read if blob.endswith("/header.json")) == headers


def test_a_query_costs_two_batches_however_many_members():
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    for name, opens in (("plain", 1), ("sharded", 2), ("deltas", 2)):
        assert not any(method == "exists" for method, _, _, _ in golden[name]), name
        batches = [length for method, _, _, length in golden[name] if method == "read_batch"]
        # The open: the discovery batch, then (shards or deltas) the headers
        # it names.  Per query: lookup + documents — the first ranked query's
        # lookup also reads every member's statistics.
        assert len(batches) == opens + 2 + 2, (name, batches)
        assert batches[0] == 4, name  # shards.json, header.json, manifest.json, ingest.json
        assert batches[opens + 1] == 62, name  # the keyword query's documents
        assert batches[-1] == 10, name  # the ranked query's winners


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(capture(), indent=0) + "\n", encoding="utf-8")
    print(f"wrote {GOLDEN}")
