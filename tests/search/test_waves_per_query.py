"""Waves per query, pinned: two dependent round trips however many members.

One live index — a base, two flushed deltas, a memtable still in memory and
one pending tombstone — served through a recording store, its block cache on
(the service default).  On a cold cache every membership query must cost
exactly two ``read_batch`` calls (one lookup wave over *all* members, one
document wave), a term lookup one, a ranked query two — the first one on a
fresh node too, its ranking statistics riding the lookup wave.  A warm query
costs at most that, and one whose ranges are all cached calls the store not
at all.  The condemned document's bytes must never be requested; and the
answers must equal a fresh rebuild over the survivors.
"""

from __future__ import annotations

import re

import pytest
from harness.stores import RecordingStore

from repro.core.config import SketchConfig
from repro.index.builder import AirphantBuilder
from repro.parsing.corpus import LineDelimitedCorpusParser
from repro.parsing.documents import Document, Posting
from repro.parsing.tokenizer import WhitespaceAnalyzer
from repro.search.regexsearch import RegexSearcher
from repro.search.searcher import AirphantSearcher
from repro.service.config import ServiceConfig
from repro.service.facade import AirphantService
from repro.storage.memory import InMemoryObjectStore
from repro.workloads.logs import generate_log_corpus

CONFIG = SketchConfig(num_bins=256, target_false_positives=1.0, seed=7)
TOKENIZER = WhitespaceAnalyzer()
PATTERN = r"ERROR\s+\S+"


@pytest.fixture(scope="module")
def live():
    """``(store, searcher, reference, condemned)`` over one live index."""
    backend = InMemoryObjectStore()
    corpus = generate_log_corpus(backend, "hdfs", 240, seed=13)
    base = list(LineDelimitedCorpusParser().parse(backend, corpus.blob_names))
    texts = [document.text for document in base]
    store = RecordingStore(backend)
    with AirphantService(store, ServiceConfig(ingest_interval_s=0)) as service:
        service.build_index("live", corpus.blob_names, sketch_config=CONFIG)
        appended: list[Document] = []
        for batch, flush in ((texts[:40], True), (texts[40:70], True), (texts[70:90], False)):
            answer = service.append_documents("live", batch)
            appended += [
                Document(ref=Posting(ref["blob"], ref["offset"], ref["length"]), text=text)
                for ref, text in zip(answer["refs"], batch)
            ]
            if flush:
                assert service.flush_index("live")["delta"]
        condemned = next(d for d in base if "ERROR" in TOKENIZER.distinct_terms(d.text))
        service.delete_documents("live", [condemned.ref])
        searcher = service.searcher("live")
        assert len(searcher.searchers) == 4  # base, two deltas, the memtable
        searcher.search_topk("ERROR", 5)  # statistics resident from here on
        survivors = [d for d in base + appended if d.ref != condemned.ref]
        AirphantBuilder(backend, config=CONFIG).build_from_documents(
            survivors, index_name="rebuilt"
        )
        yield store, searcher, AirphantSearcher.open(backend, "rebuilt"), condemned


def _waves(store: RecordingStore, run):
    """``run()``'s result and the sizes of the batches it waited for, in order."""
    start = len(store.calls)
    result = run()
    return result, [call[3] for call in store.calls[start:] if call[0] == "read_batch"]


def _cold(store: RecordingStore, searcher, run):
    """:func:`_waves` of ``run()`` with the searcher's block cache emptied first."""
    searcher.pipeline.clear_cache()
    return _waves(store, run)


MEMBERSHIP_QUERIES = pytest.mark.parametrize(
    "run",
    [
        lambda s: s.search("ERROR"),
        lambda s: s.search("INFO block", top_k=5),
        lambda s: s.search_boolean("ERROR AND (WRITE_BLOCK OR READ_BLOCK)"),
        lambda s: RegexSearcher(s).search(PATTERN),
    ],
    ids=["keyword", "keyword-top-k", "boolean", "regex"],
)


@MEMBERSHIP_QUERIES
def test_a_membership_query_is_two_waves_and_equals_a_rebuild(live, run):
    store, searcher, reference, _ = live
    result, waves = _cold(store, searcher, lambda: run(searcher))
    assert len(waves) == 2, waves
    assert result.postings and result.latency.round_trips == 2
    assert result.postings == run(reference).postings


@MEMBERSHIP_QUERIES
def test_a_repeated_query_served_from_the_cache_calls_no_store(live, run):
    store, searcher, _, _ = live
    cold, _ = _cold(store, searcher, lambda: run(searcher))
    warm, waves = _waves(store, lambda: run(searcher))
    assert waves == []
    assert warm.latency.round_trips == 0
    assert warm.postings == cold.postings
    assert [d.text for d in warm.documents] == [d.text for d in cold.documents]


def test_a_partly_cached_query_is_at_most_two_waves(live):
    store, searcher, reference, _ = live
    query = "ERROR AND (WRITE_BLOCK OR READ_BLOCK)"
    _cold(store, searcher, lambda: searcher.search("ERROR"))
    result, waves = _waves(store, lambda: searcher.search_boolean(query))
    assert len(waves) <= 2, waves
    assert result.postings == reference.search_boolean(query).postings


def test_a_term_lookup_is_one_wave(live):
    store, searcher, reference, condemned = live
    (postings, latency), waves = _cold(store, searcher, lambda: searcher.lookup_postings("ERROR"))
    assert len(waves) == 1 and latency.round_trips == 1
    assert condemned.ref not in postings
    truth = {d.ref for d in reference.search("ERROR").documents}
    assert set(postings) >= truth


def test_a_warm_ranked_query_is_two_waves_with_rebuild_scores(live):
    store, searcher, reference, _ = live
    for query in ("ERROR", "INFO block"):
        result, waves = _cold(store, searcher, lambda: searcher.search_topk(query, 10))
        assert len(waves) == 2 and waves[1] == len(result.documents) == 10
        expected = reference.search_topk(query, 10)
        assert result.postings == expected.postings
        assert result.scores == expected.scores
        again, waves = _waves(store, lambda: searcher.search_topk(query, 10))
        assert waves == []
        assert (again.postings, again.scores) == (result.postings, result.scores)


def test_a_cold_ranked_query_is_two_waves_with_rebuild_scores(live):
    store, _, reference, _ = live
    with AirphantService(store, ServiceConfig(ingest_interval_s=0)) as service:
        fresh = service.searcher("live")
        assert len(fresh.searchers) == 4
        result, waves = _waves(store, lambda: fresh.search_topk("INFO block", 10))
    assert len(waves) == 2 and waves[1] == len(result.documents) == 10
    expected = reference.search_topk("INFO block", 10)
    assert result.postings == expected.postings
    assert result.scores == expected.scores


def test_the_statistics_alone_are_one_wave_that_warms_the_ranked_query(live):
    store, *_ = live
    with AirphantService(store, ServiceConfig(ingest_interval_s=0)) as service:
        fresh = service.searcher("live")
        statistics, waves = _waves(store, fresh.ranking_statistics)
        assert waves == [3]  # one stats blob per persisted member, none for the memtable
        assert len(statistics) == 4  # one set a member, the memtable's resident
        assert fresh.searchers[0].ranking_stats() is statistics[0]
        start = len(store.calls)
        fresh.search_topk("INFO block", 10)
    assert not any(blob.endswith("/stats.json") for _, blob, _, _ in store.calls[start:])


def test_the_condemned_documents_bytes_are_never_requested(live):
    store, searcher, _, condemned = live
    start = len(store.calls)
    assert condemned.ref not in searcher.search("ERROR").postings
    assert condemned.ref not in searcher.search_topk("ERROR", 500).postings
    assert re.search(PATTERN, condemned.text)
    assert condemned.ref not in RegexSearcher(searcher).search(PATTERN).postings
    ref = condemned.ref
    assert not any(
        blob == ref.blob and offset < ref.offset + ref.length and offset + length > ref.offset
        for method, blob, offset, length in store.calls[start:]
        if method == "batch_read"
    )
