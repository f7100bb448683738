"""A delete committed by another process filters this one's queries.

Pending deletes are the manifest's own state, and every commit of a process
first adopts what another one committed.  So once node 1 commits anything
after node 2's delete (here, a flush), node 1 filters the condemned document
too, and its next compaction applies the delete physically: the document
does not come back in the compacted base.  What node 1 counts as stacked
deltas is the manifest it adopted, too: after node 2's compaction its
compaction policy waits for new deltas.
"""

from __future__ import annotations

from repro.core.config import SketchConfig
from repro.index.builder import AirphantBuilder
from repro.index.updates import AppendOnlyIndexManager
from repro.ingest.live import LiveIndex
from repro.observability import MetricsRegistry
from repro.parsing.corpus import LineDelimitedCorpusParser
from repro.parsing.documents import Posting
from repro.search.searcher import AirphantSearcher
from repro.service.config import ServiceConfig
from repro.storage.memory import InMemoryObjectStore

CORPUS = b"error disk full\ninfo service ok\nwarn slow response\n"
CONDEMNED = Posting(blob="corpus/base.txt", offset=0, length=15)


def _store() -> InMemoryObjectStore:
    store = InMemoryObjectStore()
    store.put("corpus/base.txt", CORPUS)
    documents = list(LineDelimitedCorpusParser().parse(store, ["corpus/base.txt"]))
    AirphantBuilder(store, config=SketchConfig(num_bins=64, seed=3)).build_from_documents(
        documents, index_name="idx"
    )
    return store


def _node(store) -> LiveIndex:
    """One process's write path over the shared store."""
    config = ServiceConfig(ingest_interval_s=0)
    manager = AppendOnlyIndexManager(store, "idx", tokenizer=config.make_tokenizer())
    return LiveIndex(store, "idx", config, MetricsRegistry(), manager)


def _answers(live: LiveIndex, query: str) -> set[str]:
    """What ``live``'s node answers: memtables, deltas and base, minus its pending deletes."""
    searcher = live.manager.open_searcher()
    view = searcher.with_members(
        [*live.memtable_members(), *searcher.searchers], live.tombstone_refs()
    )
    texts = {document.text for document in view.search(query).documents}
    searcher.close()
    return texts


def test_a_delete_from_another_process_filters_after_this_ones_next_commit():
    store = _store()
    node1, node2 = _node(store), _node(store)
    node1.append(["error fresh one"])
    node2.delete([CONDEMNED])
    assert node1.flush() is not None
    assert node1.tombstone_refs() == frozenset({CONDEMNED})
    assert _answers(node1, "error") == {"error fresh one"}

    assert node1.compact() is not None
    assert _answers(node1, "error") == {"error fresh one"}
    assert node1.tombstone_refs() == frozenset()  # applied, so no longer pending
    # The compacted base does not hold the document: no filter hides it.
    base = AirphantSearcher.open(store, node1.manager.manifest().active_base)
    assert CONDEMNED not in {document.ref for document in base.search("error").documents}
    base.close()


def test_the_delta_count_is_the_live_manifests_after_another_process_compacts():
    store = _store()
    node1 = _node(store)
    stacked = ServiceConfig().ingest_compact_deltas
    for n in range(stacked):
        node1.append([f"error flushed number{n}"])
        assert node1.flush() is not None
    assert node1.delta_count == stacked and node1.should_compact()
    assert _node(store).compact()["deltas_folded"] == stacked
    # Node 1's delete adopts node 2's compacted manifest: no delta is
    # stacked, so the compaction policy waits for new ones.
    node1.delete([CONDEMNED])
    assert node1.manager.manifest().delta_indexes == ()
    assert node1.delta_count == 0
    assert not node1.should_compact()
    assert node1.summary()["delta_indexes"] == 0
