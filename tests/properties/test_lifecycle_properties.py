"""Property: any mutable-document history ≡ a fresh rebuild over survivors.

The acceptance criterion of the tombstone lifecycle: for any interleaving of
appends, deletes, updates, flushes, compactions, and snapshot/restore pairs,
the live combined view answers every query mode with exactly what a
from-scratch index over the *surviving* documents returns — same references,
same text, and (for ranked retrieval) the same scores in the same order.

The model is a ``{ref: text}`` map mutated alongside the service; restore
rewinds it to the snapshotted copy.  The reference index is built directly
from the model's ``Document`` objects, so its postings are identical to the
live view's by construction and byte-identical comparison is meaningful.
"""

from __future__ import annotations

from harness.crashpoints import FaultPointStore, SimulatedCrash
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.config import SketchConfig
from repro.index.builder import AirphantBuilder
from repro.observability import MetricsRegistry
from repro.parsing.corpus import LineDelimitedCorpusParser
from repro.parsing.documents import Document, Posting
from repro.search.regexsearch import RegexSearcher
from repro.search.searcher import AirphantSearcher
from repro.service import AirphantService, SearchRequest, ServiceConfig
from repro.storage.memory import InMemoryObjectStore

#: Small vocabulary so documents share words (intersections, ranking ties).
WORDS = ["error", "info", "warn", "disk", "net", "cpu", "node1", "node2", "retry"]

QUERIES = [
    ("error", "keyword"),
    ("error disk", "keyword"),
    ("error OR warn", "boolean"),
    ("(error OR info) AND disk", "boolean"),
    ("error .*disk", "regex"),
]

RANKED_QUERIES = ["error", "error disk", "warn retry"]

documents_strategy = st.lists(
    st.lists(st.sampled_from(WORDS), min_size=1, max_size=5).map(" ".join),
    min_size=1,
    max_size=6,
)

#: One lifecycle step: (action, batch for append/update, target selector).
#: Actions: 0 = append, 1 = delete, 2 = update, 3 = flush, 4 = compact,
#: 5 = snapshot, 6 = restore.
steps_strategy = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=6),
        documents_strategy,
        st.integers(min_value=0, max_value=999),
    ),
    min_size=0,
    max_size=6,
)


def _pick(model: dict[Posting, str], selector: int) -> Posting:
    refs = sorted(model)
    return refs[selector % len(refs)]


def _assert_equivalent(service, store, model: dict[Posting, str], sketch) -> None:
    """The live view over ``store`` ≡ a fresh rebuild over ``model``."""
    reference_documents = [
        Document(ref=ref, text=text) for ref, text in sorted(model.items())
    ]
    AirphantBuilder(store, config=sketch).build_from_documents(
        reference_documents, index_name="reference"
    )
    reference = AirphantSearcher.open(store, index_name="reference")

    for query, mode in QUERIES:
        live_result = service.execute(SearchRequest(query=query, index="live", mode=mode))
        if mode == "boolean":
            expected = reference.search_boolean(query)
        elif mode == "regex":
            expected = RegexSearcher(reference).search(query)
        else:
            expected = reference.search(query)
        live_docs = {(d.blob, d.offset, d.length, d.text) for d in live_result.documents}
        expected_docs = {(d.blob, d.offset, d.length, d.text) for d in expected.documents}
        assert live_docs == expected_docs, f"divergence on {mode} query {query!r}"

    # Ranked retrieval must be byte-identical *including order and scores*:
    # the pruned/merged statistics equal the rebuild's, so BM25 agrees
    # exactly, not just set-wise.
    for query in RANKED_QUERIES:
        live_result = service.execute(
            SearchRequest(query=query, index="live", mode="topk_bm25", top_k=5)
        )
        expected = reference.search_topk(query, k=5)
        live_ranked = [
            ((d.blob, d.offset, d.length), round(score, 9))
            for d, score in zip(live_result.documents, live_result.scores or [])
        ]
        expected_ranked = [
            ((d.blob, d.offset, d.length), round(score, 9))
            for d, score in zip(expected.documents, expected.scores or [])
        ]
        assert live_ranked == expected_ranked, f"ranking divergence on {query!r}"

    reference.close()


@settings(
    max_examples=12,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(initial=documents_strategy, steps=steps_strategy)
def test_lifecycle_history_equals_rebuild_over_survivors(initial, steps):
    store = InMemoryObjectStore()
    sketch = SketchConfig(num_bins=64, seed=11)
    service = AirphantService(
        store, ServiceConfig(ingest_interval_s=0), metrics=MetricsRegistry()
    )
    store.put("corpus/base.txt", ("\n".join(initial) + "\n").encode("utf-8"))
    service.build_index("live", ["corpus/base.txt"], sketch_config=sketch)

    model: dict[Posting, str] = {
        document.ref: document.text
        for document in LineDelimitedCorpusParser().parse(store, ["corpus/base.txt"])
    }
    snapshot_model: dict[Posting, str] | None = None

    for action, batch, selector in steps:
        if action == 0:
            outcome = service.append_documents("live", batch)
            for ref_dict, text in zip(outcome["refs"], batch):
                model[Posting(**ref_dict)] = text
        elif action == 1 and model:
            ref = _pick(model, selector)
            service.delete_documents("live", [ref])
            del model[ref]
        elif action == 2 and model:
            ref = _pick(model, selector)
            outcome = service.update_document("live", ref, batch[0])
            del model[ref]
            model[Posting(**outcome["ref"])] = batch[0]
        elif action == 3:
            service.flush_index("live")
        elif action == 4:
            service.compact_index("live")
        elif action == 5:
            service.create_snapshot("live", "checkpoint")
            snapshot_model = dict(model)
        elif action == 6 and snapshot_model is not None:
            service.restore_snapshot("live", "checkpoint")
            model = dict(snapshot_model)

    # The reference: a from-scratch single index over exactly the surviving
    # documents, with their original references preserved as postings.
    _assert_equivalent(service, store, model, sketch)
    service.close()


#: Which lifecycle operation to kill, and on which side of its commit point.
crash_strategy = st.tuples(
    st.integers(min_value=0, max_value=4),  # 0=append 1=delete 2=update 3=flush 4=compact
    st.booleans(),  # True = die after the commit-point PUT (op is acked)
    st.integers(min_value=0, max_value=999),
)


@settings(
    max_examples=12,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(initial=documents_strategy, steps=steps_strategy, crash=crash_strategy)
def test_lifecycle_property_holds_under_crash_injection(initial, steps, crash):
    """Kill one final operation at its commit point; recovery ≡ rebuild.

    An operation killed *before* its commit-point PUT must leave no trace; one
    killed *after* must survive in full.  Either way the restarted service's
    answers equal a fresh rebuild over the surviving documents the model
    predicts — at every kill point the WAL matrix covers.
    """
    backend = InMemoryObjectStore()
    store = FaultPointStore(backend)
    sketch = SketchConfig(num_bins=64, seed=11)
    service = AirphantService(
        store, ServiceConfig(ingest_interval_s=0), metrics=MetricsRegistry()
    )
    store.put("corpus/base.txt", ("\n".join(initial) + "\n").encode("utf-8"))
    service.build_index("live", ["corpus/base.txt"], sketch_config=sketch)

    model: dict[Posting, str] = {
        document.ref: document.text
        for document in LineDelimitedCorpusParser().parse(store, ["corpus/base.txt"])
    }
    for action, batch, selector in steps:
        if action == 0:
            outcome = service.append_documents("live", batch)
            for ref_dict, text in zip(outcome["refs"], batch):
                model[Posting(**ref_dict)] = text
        elif action == 1 and model:
            ref = _pick(model, selector)
            service.delete_documents("live", [ref])
            del model[ref]
        elif action == 2 and model:
            ref = _pick(model, selector)
            outcome = service.update_document("live", ref, batch[0])
            del model[ref]
            model[Posting(**outcome["ref"])] = batch[0]
        elif action == 3:
            service.flush_index("live")
        elif action == 4:
            service.compact_index("live")

    operation, acked, selector = crash
    when = "after" if acked else "before"
    crashed = False
    if operation == 0:
        # An append commits at its segment PUT.
        store.arm("put", "ingest/seg-", when=when)
        try:
            service.append_documents("live", ["error crash probe"])
        except SimulatedCrash as killed:
            crashed = True
            if acked:
                model[Posting(blob=killed.blob, offset=0, length=17)] = "error crash probe"
    elif operation == 1 and model:
        ref = _pick(model, selector)
        store.arm("put", "live/manifest.json", when=when)
        try:
            service.delete_documents("live", [ref])
        except SimulatedCrash:
            crashed = True
        if acked and crashed:
            del model[ref]
    elif operation == 2 and model:
        ref = _pick(model, selector)
        store.arm("put", "live/manifest.json", when=when)
        try:
            service.update_document("live", ref, "warn crash probe")
        except SimulatedCrash:
            crashed = True
        if acked and crashed:
            del model[ref]
            segments = store.backend.list_blobs(prefix="live/ingest/upd-")
            last = sorted(segments)[-1]
            model[Posting(blob=last, offset=0, length=16)] = "warn crash probe"
    elif operation == 3:
        # Kill the flush at the delta build: queries never see half a flush.
        store.arm("put", "live/delta-")
        try:
            service.flush_index("live")
        except SimulatedCrash:
            crashed = True
    elif operation == 4:
        # Kill the compaction at the generation swap; the model is untouched
        # either way (compaction only reorganizes surviving documents).
        store.arm("put", "live/manifest.json", when=when)
        try:
            service.compact_index("live")
        except SimulatedCrash:
            crashed = True

    store.disarm()
    service.close()
    # "Restart": a fresh service over the same bytes replays the WAL.
    recovered = AirphantService(
        store, ServiceConfig(ingest_interval_s=0), metrics=MetricsRegistry()
    )
    _assert_equivalent(recovered, store, model, sketch)
    recovered.close()
