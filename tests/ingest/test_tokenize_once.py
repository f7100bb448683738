"""An appended line is tokenized once: by the memtable, when it arrives.

Keyword queries read the memtable's id lists, ranked queries and the flush
count the tokens it stored, and a reopening node tokenizes each replayed
line once.
"""

from __future__ import annotations

import pytest

from repro.core.config import SketchConfig
from repro.index.builder import AirphantBuilder
from repro.index.updates import AppendOnlyIndexManager
from repro.ingest.live import LiveIndex
from repro.observability import MetricsRegistry
from repro.parsing.corpus import LineDelimitedCorpusParser
from repro.parsing.tokenizer import WhitespaceAnalyzer
from repro.search.searcher import AirphantSearcher
from repro.service.config import ServiceConfig
from repro.storage.memory import InMemoryObjectStore

CORPUS = b"error disk full\ninfo service ok\nwarn slow response\n"


class CountingAnalyzer(WhitespaceAnalyzer):
    """Counts the texts it tokenizes."""

    def __init__(self) -> None:
        self.calls = 0

    def tokenize(self, text: str) -> list[str]:
        self.calls += 1
        return super().tokenize(text)


@pytest.fixture
def analyzer(monkeypatch) -> CountingAnalyzer:
    """The analyzer every live index of the test writes with."""
    analyzer = CountingAnalyzer()
    monkeypatch.setattr(ServiceConfig, "make_tokenizer", lambda self: analyzer)
    return analyzer


def _store() -> InMemoryObjectStore:
    store = InMemoryObjectStore()
    store.put("corpus/base.txt", CORPUS)
    documents = LineDelimitedCorpusParser().parse(store, ["corpus/base.txt"])
    AirphantBuilder(store, config=SketchConfig(num_bins=64, seed=3)).build_from_documents(
        documents, index_name="idx"
    )
    return store


def _live(store) -> LiveIndex:
    config = ServiceConfig(ingest_interval_s=0)
    manager = AppendOnlyIndexManager(store, "idx", tokenizer=config.make_tokenizer())
    return LiveIndex(store, "idx", config, MetricsRegistry(), manager)


def _view(store, live: LiveIndex) -> AirphantSearcher:
    """Base, deltas and memtables, queried with an analyzer of their own."""
    searcher = AirphantSearcher.open(store, live.manager.manifest().all_indexes)
    return searcher.with_members([*searcher.searchers, *live.memtable_members()])


def test_append_query_rank_append_rank_flush_tokenize_each_line_once(analyzer):
    store = _store()
    live = _live(store)
    first = ["error fresh one", "info fresh two", "warn fresh fresh three"]
    live.append(first)
    assert {d.text for d in _view(store, live).search("fresh").documents} == set(first)
    ranked = _view(store, live).search_topk("fresh", k=5)
    assert [d.text for d in ranked.documents][0] == "warn fresh fresh three"
    second = ["error fresh fresh fresh four", "info late five"]
    live.append(second)
    ranked = _view(store, live).search_topk("fresh", k=5)
    assert [d.text for d in ranked.documents][0] == "error fresh fresh fresh four"
    assert live.flush()["flushed"] == len(first) + len(second)
    flushed = _view(store, live).search("fresh").documents
    assert {d.text for d in flushed} == {*first, second[0]}
    assert analyzer.calls == len(first) + len(second)


def test_a_reopen_tokenizes_each_replayed_line_once(analyzer):
    store = _store()
    writer = _live(store)
    writer.append(["error fresh one", "info fresh two"])
    writer.append(["warn fresh three"])
    before = analyzer.calls
    reopened = _live(store)
    assert reopened.replay() == 3
    assert analyzer.calls - before == 3
    ranked = _view(store, reopened).search_topk("fresh", k=5)
    assert len(ranked.documents) == 3
    reopened.flush()
    assert analyzer.calls - before == 3
