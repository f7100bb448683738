"""The shard count changes neither what a lookup reads nor what a query answers.

A sharded build is one sketch: its shards share the layer count, the hash
family and the common words of the whole build, and each bin and common word
is one run of ``superposts.bin`` holding its shards' superposts back to back.
Pinned here for 1, 4 and 16 shards over the same documents:

* keyword and Boolean answers and BM25 rankings — scores included — are
  identical to the one-shard build's;
* a whole-index lookup of a word issues one physical store read per bin,
  whatever the shard count: L for a hashed word, one for a common word;
* a 4-shard build an older engine routed round-robin (its header says so)
  answers the same: routing is never read back.
"""

from __future__ import annotations

import pytest
from harness.legacy_header import build_round_robin
from harness.stores import RecordingStore

from repro.core.config import SketchConfig
from repro.index.builder import AirphantBuilder
from repro.parsing.corpus import LineDelimitedCorpusParser
from repro.parsing.tokenizer import WhitespaceAnalyzer
from repro.search.searcher import AirphantSearcher
from repro.storage.memory import InMemoryObjectStore
from repro.workloads.logs import generate_log_corpus

SHARD_COUNTS = (1, 4, 16)
QUERIES = ["ERROR", "INFO block", "PacketResponder terminating", "WARN", "nosuchtoken"]
BOOLEAN = ["(INFO AND block) OR exception", "ERROR OR WARN", "INFO AND NOT block"]


@pytest.fixture(scope="module", params=[1, 3], ids=["L1", "L3"])
def bucket(request):
    """``(backend, layers)``: the same documents built once per shard count."""
    backend = InMemoryObjectStore()
    corpus = generate_log_corpus(backend, "hdfs", 600, seed=41)
    documents = list(LineDelimitedCorpusParser().parse(backend, corpus.blob_names))
    config = SketchConfig(num_bins=3000, num_layers=request.param, seed=5)
    for shards in SHARD_COUNTS:
        AirphantBuilder(backend, config=config, num_shards=shards).build_from_documents(
            documents, index_name=f"s{shards}"
        )
    return backend, request.param


def _lookup(backend, name, word):
    """``(postings, [(offset, length) of each physical superpost read], searcher)``."""
    store = RecordingStore(backend)
    searcher = AirphantSearcher.open(store, name)
    start = len(store.calls)
    postings, _ = searcher.lookup_postings(word)
    reads = [
        (offset, length)
        for method, blob, offset, length in store.calls[start:]
        if method == "batch_read" and blob.endswith("/superposts.bin")
    ]
    return sorted(postings), reads, searcher


def _words(backend):
    """Five common words, and the hashed words of a few documents plus one
    the corpus does not hold."""
    (member,) = AirphantSearcher.open(backend, "s1").opened
    texts = backend.get("corpora/hdfs.txt").decode().splitlines()[:40:8]
    words = sorted({word for text in texts for word in WhitespaceAnalyzer().tokenize(text)})
    hashed = [word for word in words if not member.mht.is_common(word)] + ["nosuchtoken"]
    return list(member.mht.common_words)[:5], hashed


@pytest.mark.parametrize("shards", SHARD_COUNTS[1:])
def test_answers_and_scores_equal_the_one_shard_build(bucket, shards):
    backend, _ = bucket
    one, many = (AirphantSearcher.open(backend, f"s{n}") for n in (1, shards))
    assert many.opened[0].num_shards == shards
    for query in QUERIES:
        assert many.search(query).documents == one.search(query).documents, query
        ranked, expected = many.search_topk(query, k=10), one.search_topk(query, k=10)
        assert [d.ref for d in ranked.documents] == [d.ref for d in expected.documents]
        assert ranked.scores == expected.scores, query
    for query in BOOLEAN:
        assert many.search_boolean(query).documents == one.search_boolean(query).documents


@pytest.mark.parametrize("shards", SHARD_COUNTS)
def test_a_lookup_reads_one_range_per_bin_whatever_the_shard_count(bucket, shards):
    backend, layers = bucket
    common, hashed = _words(backend)
    present = 0
    for word in common + hashed:
        postings, reads, _ = _lookup(backend, f"s{shards}", word)
        if not postings:
            continue
        present += 1
        # Each bin's run — every shard's share of it — is one read: a common
        # word is one, a hashed word L (fewer where the co-access layout put
        # its bins side by side).
        if word in common or layers == 1:
            assert len(reads) == 1, word
        else:
            assert 1 <= len(reads) <= layers, word
    assert present > len(common)


def test_an_older_round_robin_build_answers_as_the_one_shard_build(bucket):
    backend, layers = bucket
    documents = list(LineDelimitedCorpusParser().parse(backend, ["corpora/hdfs.txt"]))
    config = SketchConfig(num_bins=3000, num_layers=layers, seed=5)
    build_round_robin(backend, documents, f"rr4-L{layers}", config, 4)
    assert backend.get(f"rr4-L{layers}/header.json").count(b'"partitioner":"round-robin"') == 5
    legacy, one = (AirphantSearcher.open(backend, name) for name in (f"rr4-L{layers}", "s1"))
    (member,) = legacy.opened
    # Round-robin, not hash, routing: 600 documents in four shards of 150.
    assert [shard.num_documents for shard in member.shard_manifest.shards] == [150] * 4
    for query in QUERIES:
        assert legacy.search(query).documents == one.search(query).documents, query
        ranked, expected = legacy.search_topk(query, k=10), one.search_topk(query, k=10)
        assert [d.ref for d in ranked.documents] == [d.ref for d in expected.documents]
        assert ranked.scores == expected.scores, query
    for query in BOOLEAN:
        assert legacy.search_boolean(query).documents == one.search_boolean(query).documents
    # The oracle: a keyword answer is every document holding the word.
    analyzer = WhitespaceAnalyzer()
    for word in ("ERROR", "WARN", "block"):
        holding = {d.ref for d in documents if word in analyzer.distinct_terms(d.text)}
        assert holding, word
        assert {d.ref for d in legacy.search(word).documents} == holding, word
