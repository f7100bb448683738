"""A flush from the memtable's statistics ≡ a fresh build over the survivors.

A flush whose build raises puts the sealed documents back in the active
memtable, after what arrived meanwhile; an update's segment sorts after the
appends that follow it.  Either breaks arrival order, and the memtable must
still answer in ``(blob, offset, length)`` order, as a fresh memtable over
the same survivors does, and the retried flush must write the very blobs
``build_from_documents(survivors)`` writes — with tombstones pending, and
after a replay.
"""

from __future__ import annotations

import pytest

from repro.core.config import SketchConfig
from repro.index.builder import AirphantBuilder
from repro.index.stats import encode_stats
from repro.index.store_layout import delta_index_name
from repro.index.updates import AppendOnlyIndexManager
from repro.ingest.live import LiveIndex
from repro.ingest.memtable import memtable_from_documents
from repro.observability import MetricsRegistry
from repro.parsing.corpus import LineDelimitedCorpusParser
from repro.parsing.documents import Document, Posting
from repro.service.config import ServiceConfig
from repro.storage.base import TransientStoreError
from repro.storage.memory import InMemoryObjectStore

CORPUS = b"error disk full\ninfo service ok\nwarn slow response\n"
SKETCH = SketchConfig(num_bins=64, seed=3)
WORDS = ["error", "fresh", "info", "warn", "late", "replaced", "absent"]


def _store() -> InMemoryObjectStore:
    store = InMemoryObjectStore()
    store.put("corpus/base.txt", CORPUS)
    documents = LineDelimitedCorpusParser().parse(store, ["corpus/base.txt"])
    AirphantBuilder(store, config=SKETCH).build_from_documents(documents, index_name="idx")
    return store


def _live(store) -> LiveIndex:
    config = ServiceConfig(ingest_interval_s=0)
    manager = AppendOnlyIndexManager(store, "idx", tokenizer=config.make_tokenizer())
    return LiveIndex(store, "idx", config, MetricsRegistry(), manager)


class Survivors:
    """What the memtables should hold: the acknowledged writes, minus deletes."""

    def __init__(self) -> None:
        self.texts: dict[Posting, str] = {}

    def appended(self, answer: dict, texts: list[str]) -> list[Posting]:
        refs = [Posting(ref["blob"], ref["offset"], ref["length"]) for ref in answer["refs"]]
        self.texts.update(zip(refs, texts))
        return refs

    def documents(self) -> list[Document]:
        return [Document(ref, text) for ref, text in sorted(self.texts.items())]


def _assert_memtable_equals_a_fresh_one(live: LiveIndex, survivors: Survivors) -> None:
    (member,) = live.memtable_members()
    held, fresh = member.memtable, memtable_from_documents(survivors.documents())
    # Postings first: the first read after out-of-order arrivals renumbers.
    answers = held.superposts(WORDS)
    for word, expected in fresh.superposts(WORDS).items():
        assert list(answers[word]) == sorted(answers[word]) == list(expected)
    assert held.documents() == fresh.documents() == survivors.documents()
    assert encode_stats(held.statistics()) == encode_stats(fresh.statistics())


def _assert_delta_is_a_fresh_build(store, survivors: Survivors) -> None:
    delta = delta_index_name("idx", 0)
    oracle = InMemoryObjectStore()
    AirphantBuilder(oracle, config=SKETCH).build_from_documents(
        survivors.documents(), index_name=delta, corpus_name="ingest"
    )
    written = store.list_blobs(prefix=f"{delta}/")
    assert written == oracle.list_blobs(prefix=f"{delta}/")
    assert len(written) == 3
    for blob in written:
        assert store.get(blob) == oracle.get(blob), blob


def _failed_flush_update_and_pending_deletes(store, monkeypatch) -> tuple[LiveIndex, Survivors]:
    live = _live(store)
    survivors = Survivors()
    first = ["error fresh one", "info fresh two", "warn fresh three"]
    refs = survivors.appended(live.append(first), first)
    second = ["error fresh four", "info fresh five"]
    survivors.appended(live.append(second), second)
    # One unflushed document deleted (physically), one base document
    # tombstoned: both deletes stay pending.
    live.delete([refs[1], Posting("corpus/base.txt", 0, 15)])
    del survivors.texts[refs[1]]

    late = ["warn late six"]

    def build_fails(*args, **kwargs):
        # An append lands while the delta builds, then the build fails: the
        # sealed documents return after it.
        survivors.appended(live.append(late), late)
        raise TransientStoreError("store down")

    monkeypatch.setattr(live.manager, "append", build_fails)
    with pytest.raises(TransientStoreError):
        live.flush()
    monkeypatch.undo()
    _assert_memtable_equals_a_fresh_one(live, survivors)

    # An update's segment sorts after every append, and the append after it
    # before it.
    answer = live.update(refs[0], "error replaced seven")
    del survivors.texts[refs[0]]
    survivors.texts[Posting(**answer["ref"])] = "error replaced seven"
    more = ["info late eight fresh"]
    survivors.appended(live.append(more), more)
    _assert_memtable_equals_a_fresh_one(live, survivors)
    assert len(live.tombstone_refs()) == 3
    # Out of order again, and nothing reads it before the flush.
    last = ["warn last nine"]
    survivors.appended(live.append(last), last)
    return live, survivors


def test_a_retried_flush_writes_the_blobs_of_a_fresh_build(monkeypatch):
    store = _store()
    live, survivors = _failed_flush_update_and_pending_deletes(store, monkeypatch)
    assert live.flush()["flushed"] == len(survivors.texts)
    _assert_delta_is_a_fresh_build(store, survivors)


def test_a_document_condemned_before_it_arrived_stays_out_of_the_delta():
    store = _store()
    live = _live(store)
    survivors = Survivors()
    survivors.appended(live.append(["error kept one"]), ["error kept one"])
    # A delete that names the next append's line before it exists.
    blob = live.wal.unflushed[0].replace("00000000", "00000001")  # a delete takes no number
    condemned = Posting(blob, 0, len("error condemned"))
    live.delete([condemned])
    answer = live.append(["error condemned"])
    assert Posting(**answer["refs"][0]) == condemned
    assert live.flush()["flushed"] == 1
    _assert_delta_is_a_fresh_build(store, survivors)


def test_a_flush_after_a_replay_writes_the_blobs_of_a_fresh_build(monkeypatch):
    store = _store()
    _, survivors = _failed_flush_update_and_pending_deletes(store, monkeypatch)
    reopened = _live(store)
    assert reopened.replay() == len(survivors.texts)
    _assert_memtable_equals_a_fresh_one(reopened, survivors)
    assert reopened.flush()["flushed"] == len(survivors.texts)
    _assert_delta_is_a_fresh_build(store, survivors)
