"""Property: the live combined view ≡ a fresh full rebuild (byte-identical),
and each memtable ≡ a brute-force map of its documents.

The acceptance criterion of the ingestion subsystem: for any split of a
corpus into an initial build plus a sequence of ingested batches — with any
interleaving of flushes and compactions — the memtable ∪ deltas ∪ base view
answers every query mode with exactly the documents a from-scratch index
over the same document set returns, text and ``(blob, offset, length)``
references alike.
"""

from __future__ import annotations

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.config import SketchConfig
from repro.service import AirphantService, SearchRequest, ServiceConfig
from repro.index.builder import AirphantBuilder
from repro.index.stats import build_stats, encode_stats
from repro.ingest.memtable import Memtable
from repro.observability import MetricsRegistry
from repro.parsing.corpus import LineDelimitedCorpusParser
from repro.parsing.documents import Document, Posting
from repro.parsing.tokenizer import WhitespaceAnalyzer
from repro.search.searcher import AirphantSearcher
from repro.storage.memory import InMemoryObjectStore

#: Small vocabulary so documents share words (intersections, false positives).
WORDS = ["error", "info", "warn", "disk", "net", "cpu", "node1", "node2", "retry"]

#: Queries spanning every mode, chosen to hit single words, ANDs, ORs, and a
#: regex whose literal filter goes through the Boolean path.
QUERIES = [
    ("error", "keyword"),
    ("error disk", "keyword"),
    ("error OR warn", "boolean"),
    ("(error OR info) AND disk", "boolean"),
    ("error .*disk", "regex"),
]

documents_strategy = st.lists(
    st.lists(st.sampled_from(WORDS), min_size=1, max_size=5).map(" ".join),
    min_size=1,
    max_size=12,
)

#: Per-batch action after appending: 0 = nothing, 1 = flush, 2 = compact.
actions_strategy = st.lists(st.integers(min_value=0, max_value=2), min_size=0, max_size=3)


@settings(
    max_examples=20,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    initial=documents_strategy,
    batches=st.lists(documents_strategy, min_size=0, max_size=3),
    actions=actions_strategy,
    data=st.data(),
)
def test_combined_view_equals_full_rebuild(initial, batches, actions, data):
    store = InMemoryObjectStore()
    config = ServiceConfig(ingest_interval_s=0)
    service = AirphantService(store, config, metrics=MetricsRegistry())
    sketch = SketchConfig(num_bins=64, seed=11)

    store.put("corpus/base.txt", ("\n".join(initial) + "\n").encode("utf-8"))
    service.build_index("live", ["corpus/base.txt"], sketch_config=sketch)

    for position, batch in enumerate(batches):
        service.append_documents("live", batch)
        action = actions[position] if position < len(actions) else 0
        if action == 1:
            service.flush_index("live")
        elif action == 2:
            service.compact_index("live")

    # The reference: a from-scratch single index over the *same* documents —
    # the initial corpus blob plus every WAL segment blob, which is exactly
    # where the ingested documents' bytes live.
    parser = LineDelimitedCorpusParser()
    blobs = ["corpus/base.txt"] + sorted(store.list_blobs(prefix="live/ingest/seg-"))
    reference_documents = list(parser.parse(store, blobs))
    AirphantBuilder(store, config=sketch).build_from_documents(
        reference_documents, index_name="reference"
    )
    reference = AirphantSearcher.open(store, index_name="reference")

    for query, mode in QUERIES:
        live_result = service.execute(
            SearchRequest(query=query, index="live", mode=mode)
        )
        if mode == "boolean":
            expected = reference.search_boolean(query)
        elif mode == "regex":
            from repro.search.regexsearch import RegexSearcher

            expected = RegexSearcher(reference).search(query)
        else:
            expected = reference.search(query)
        live_docs = {(d.blob, d.offset, d.length, d.text) for d in live_result.documents}
        expected_docs = {
            (d.blob, d.offset, d.length, d.text) for d in expected.documents
        }
        assert live_docs == expected_docs, f"divergence on {mode} query {query!r}"

    reference.close()
    service.close()


#: Blob names whose order differs from arrival order: an update's ``upd-``
#: segment sorts after later ``seg-`` ones.
BLOBS = ["idx/ingest/seg-00000003.log", "idx/ingest/upd-00000001.log", "idx/ingest/seg-00000007.log"]
text_strategy = st.lists(st.sampled_from(WORDS), min_size=1, max_size=4).map(" ".join)

memtable_operations = st.lists(
    st.one_of(
        st.tuples(
            st.just("add"),
            st.sampled_from(BLOBS),
            st.lists(st.tuples(st.integers(0, 6), text_strategy), max_size=4),
        ),
        st.tuples(st.just("remove"), st.lists(st.integers(0, 40), max_size=3)),
        st.tuples(st.just("seal")),
        st.tuples(st.just("undo")),
    ),
    max_size=12,
)


@settings(max_examples=60, deadline=None)
@given(operations=memtable_operations)
def test_memtable_equals_a_brute_force_map_under_add_remove_seal_and_undo(operations):
    """Each memtable answers, lists and counts like a plain dict of its
    documents: in ``(blob, offset, length)`` order, whatever order they came in."""
    active, sealed = Memtable(), []
    model: dict[Posting, str] = {}
    models: list[dict[Posting, str]] = []
    for operation in operations:
        if operation[0] == "add":
            _, blob, lines = operation
            # Few offsets, so a line often arrives again at a key held
            # already (same offset and length): the first text stays.
            texts = [text for _, text in lines]
            offsets = [10 * slot for slot, _ in lines]
            lengths = [len(text.encode("utf-8")) for text in texts]
            added = active.add(blob, offsets, lengths, texts)
            fresh = 0
            for offset, length, text in zip(offsets, lengths, texts):
                ref = Posting(blob, offset, length)
                fresh += ref not in model
                model.setdefault(ref, text)
            assert added == fresh
        elif operation[0] == "remove":
            held = sorted({ref for table in (model, *models) for ref in table})
            refs = [held[at] for at in operation[1] if at < len(held)]
            refs.append(Posting("absent", 0, 1))
            for table, table_model in ((active, model), *zip(sealed, models)):
                assert table.remove(refs) == sum(ref in table_model for ref in set(refs))
                for ref in refs:
                    table_model.pop(ref, None)
        elif operation[0] == "seal":
            sealed.append(active)
            models.append(model)
            active, model = Memtable(), {}
        elif sealed:  # undo the last seal
            active.absorb(sealed.pop())
            for ref, text in models.pop().items():
                model.setdefault(ref, text)
        for table, table_model in ((active, model), *zip(sealed, models)):
            _assert_memtable_is(table, table_model)


def _assert_memtable_is(table: Memtable, model: dict[Posting, str]) -> None:
    documents = [Document(ref, text) for ref, text in sorted(model.items())]
    # Statistics first: the first read after out-of-order arrivals renumbers.
    expected = build_stats(documents, WhitespaceAnalyzer())
    assert encode_stats(table.statistics()) == encode_stats(expected)
    answers = table.superposts(WORDS + ["absent"])
    for word, answer in answers.items():
        assert list(answer) == [d.ref for d in documents if word in d.text.split()]
    assert table.documents() == documents
    assert len(table) == len(model)
    assert table.approximate_bytes == sum(ref.length for ref in model)
    for document in documents:
        assert table.document(document.ref) == document
