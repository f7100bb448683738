"""A rebuild is a generation swap, and a node holding an old manifest keeps working.

A rebuild over an existing name, a compaction and a restore each replace the
index's builds with one manifest PUT and retire what they replaced for one
swap of grace.  The contracts under test:

* a node that opened the index before another node rebuilt it answers the
  old corpus until it reopens, then the new one — never 502, 409 or 500;
* a node whose manifest is two swaps old, whose builds are purged, reopens
  once and answers from the current manifest — also when that manifest is
  the one its own flush committed; a second miss is typed;
* a rebuild or a restore in one process waits for a compaction that has
  already read the manifest, so the index answers the rebuilt or restored
  timeline, not the compaction's;
* a fresh build makes no more store calls than the in-place build always
  made.
"""

from __future__ import annotations

import threading

import pytest
from harness.stores import RecordingStore

from repro.index import updates
from repro.index.updates import AppendOnlyIndexManager
from repro.parsing.corpus import LineDelimitedCorpusParser
from repro.service import AirphantService, SearchRequest, ServiceConfig, ServiceError
from repro.storage.memory import InMemoryObjectStore
from repro.workloads.logs import generate_log_corpus

OLD = b"error disk full\ninfo service ok\nwarn slow response\nerror net down\n"
MORE = b"error disk appended\ninfo more ok\n"
LATER = b"warn disk later\nerror late arrival\n"
NEW = b"error cache miss\nerror disk gone\ninfo batch done\nerror disk slow again\n"
SERVICE = ServiceConfig(ingest_interval_s=0)
QUERIES = (
    SearchRequest(query="error", index="idx"),
    SearchRequest(query="error disk", index="idx", mode="topk_bm25", top_k=3),
)


def _backend() -> InMemoryObjectStore:
    backend = InMemoryObjectStore()
    for name, data in (("old", OLD), ("more", MORE), ("later", LATER), ("new", NEW)):
        backend.put(f"corpus/{name}.txt", data)
    return backend


def _answers(service: AirphantService, queries=QUERIES) -> list:
    """Every query's hits as ``(text, score)`` (the score is ``None`` for keyword)."""
    return [
        [(hit.text, hit.score) for hit in service.search(query).documents] for query in queries
    ]


def _build_history(backend: InMemoryObjectStore, history: str) -> None:
    """``idx`` over the old corpus: plain, 4 shards, or a compacted base
    plus a delta (both built over corpus blobs, as an offline manager does)."""
    with AirphantService(backend, SERVICE) as service:
        service.build_index("idx", ["corpus/old.txt"], num_shards=4 if history == "sharded" else 1)
    if history == "compacted":
        manager = AppendOnlyIndexManager(backend, "idx")
        parser = LineDelimitedCorpusParser()
        manager.append(list(parser.parse(backend, ["corpus/more.txt"])))
        manager.compact()
        manager.append(list(parser.parse(backend, ["corpus/later.txt"])))


@pytest.mark.parametrize("history", ["plain", "sharded", "compacted"])
def test_a_node_that_opened_the_old_build_answers_it_until_it_reopens(history):
    backend = _backend()
    _build_history(backend, history)
    with AirphantService(backend, SERVICE) as fresh:
        old = _answers(fresh)
    node1 = AirphantService(backend, SERVICE)
    node1.searcher("idx")  # opened: headers in memory, nothing else read
    with AirphantService(backend, SERVICE) as node2:
        node2.build_index("idx", ["corpus/new.txt"])
        new = _answers(node2)
    assert new != old
    # Its open searcher reads the old builds: they are retired, not gone.
    assert _answers(node1) == old
    node1.catalog.invalidate("idx")
    assert _answers(node1) == new
    node1.close()


@pytest.mark.parametrize("first", [0, 1], ids=["keyword-first", "ranked-first"])
@pytest.mark.parametrize("last", ["opened", "flushed"])
def test_a_node_past_its_grace_reopens_once_and_answers_the_current_manifest(last, first):
    backend = _backend()
    _build_history(backend, "plain")
    node1 = AirphantService(backend, SERVICE)
    if last == "opened":
        node1.searcher("idx")  # opened: the in-place build, statistics not yet read
    else:
        # Its own flush: the next open would start from the manifest it committed.
        node1.append_documents("idx", ["error flushed by node one"])
        node1.flush_index("idx")
    with AirphantService(backend, SERVICE) as node2:
        for text in ("error disk first append", "error second append"):
            node2.append_documents("idx", [text])
            node2.flush_index("idx")
            assert node2.compact_index("idx")["compacted"]
        expected = _answers(node2)
    # Two swaps later the builds node 1 opened are purged.
    assert not backend.exists("idx/superposts.bin")
    queries = (QUERIES[first], QUERIES[1 - first])
    assert _answers(node1, queries) == [expected[first], expected[1 - first]]
    node1.close()


def test_a_miss_after_the_reopen_is_a_typed_error():
    backend = _backend()
    _build_history(backend, "plain")
    with AirphantService(backend, SERVICE) as service:
        assert _answers(service)
        backend.delete("corpus/old.txt")
        with pytest.raises(ServiceError) as caught:
            # Documents no query read yet (not in the block cache).
            service.search(SearchRequest(query="info", index="idx"))
    assert (caught.value.info.status, caught.value.info.error) == (502, "index_corrupt")
    assert "corpus/old.txt" in caught.value.info.message


class _PausedCompaction:
    """Runs ``compact_index`` on a thread and holds it just after its
    manifest read (on its ``open_headers`` of the members)."""

    def __init__(self, service: AirphantService, monkeypatch) -> None:
        self.paused, self.release = threading.Event(), threading.Event()
        opener = updates.open_headers

        def held(*args, **kwargs):
            self.paused.set()
            assert self.release.wait(10)
            return opener(*args, **kwargs)

        monkeypatch.setattr(updates, "open_headers", held)
        self.outcome: list = []
        self.thread = threading.Thread(
            target=lambda: self.outcome.append(service.compact_index("idx"))
        )
        self.thread.start()
        assert self.paused.wait(10)

    def release_later(self) -> None:
        """Let the compaction go on shortly, from another thread: the
        caller's own swap may be waiting for it."""
        threading.Timer(0.3, self.release.set).start()

    def join(self) -> None:
        self.thread.join(10)
        assert not self.thread.is_alive() and self.outcome[0]["compacted"]


def test_a_restore_waits_for_a_compaction_that_read_the_manifest(monkeypatch):
    backend = _backend()
    _build_history(backend, "plain")
    with AirphantService(backend, SERVICE) as service:
        service.create_snapshot("idx", "before")
        service.append_documents("idx", ["yak appended after the snapshot"])
        service.flush_index("idx")
        compaction = _PausedCompaction(service, monkeypatch)
        compaction.release_later()
        assert service.restore_snapshot("idx", "before")["restored"]
        compaction.join()
        assert service.search(SearchRequest(query="yak", index="idx")).documents == ()
    with AirphantService(backend, SERVICE) as fresh:
        assert fresh.search(SearchRequest(query="yak", index="idx")).documents == ()


def test_a_rebuild_waits_for_a_compaction_that_read_the_manifest(monkeypatch):
    backend = _backend()
    _build_history(backend, "plain")
    with AirphantService(backend, SERVICE) as fresh:
        fresh.build_index("other", ["corpus/new.txt"])
        new = _answers(fresh, [SearchRequest(query="error", index="other")])
    with AirphantService(backend, SERVICE) as service:
        service.append_documents("idx", ["yak appended before the rebuild"])
        service.flush_index("idx")
        compaction = _PausedCompaction(service, monkeypatch)
        compaction.release_later()
        service.build_index("idx", ["corpus/new.txt"])
        compaction.join()
        assert service.search(SearchRequest(query="yak", index="idx")).documents == ()
    with AirphantService(backend, SERVICE) as fresh:
        assert fresh.search(SearchRequest(query="yak", index="idx")).documents == ()
        assert _answers(fresh, [SearchRequest(query="error", index="idx")]) == new


@pytest.mark.parametrize("shards", [1, 4])
def test_a_fresh_build_makes_no_more_store_calls_than_an_in_place_build_did(shards):
    backend = InMemoryObjectStore()
    corpus = generate_log_corpus(backend, "hdfs", 300, seed=3)
    store = RecordingStore(backend)
    with AirphantService(store, SERVICE) as service:
        service.build_index("idx", corpus.blob_names, num_shards=shards)
    # The in-place build with its sweep, the snapshot and WAL clean-up and
    # the description: 14 round trips.
    assert store.round_trips <= 14
    assert not backend.exists("idx/manifest.json")
