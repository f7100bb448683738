"""Property: the lifecycle ≡ a rebuild over survivors, tokenless documents included.

Under the simple analyzer a line of punctuation is a document with no
indexable token: no superpost holds it, but it counts in BM25's N and
average length.  Appends, deletes, flushes and compactions must keep it
there, so ranked scores of the live view equal a fresh rebuild's at every
point — the case the whitespace-analyzer lifecycle properties never draw.
"""

from __future__ import annotations

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.config import SketchConfig
from repro.index.builder import AirphantBuilder
from repro.observability import MetricsRegistry
from repro.parsing.corpus import LineDelimitedCorpusParser
from repro.parsing.documents import Document, Posting
from repro.parsing.tokenizer import SimpleAnalyzer
from repro.search.searcher import AirphantSearcher
from repro.service import AirphantService, SearchRequest, ServiceConfig
from repro.storage.memory import InMemoryObjectStore

#: Words, and punctuation that the simple analyzer drops entirely.
TOKENS = ["error", "Disk", "net", "retry", "!!!", "---", "..."]
QUERIES = ["error", "disk net", "retry"]

documents_strategy = st.lists(
    st.lists(st.sampled_from(TOKENS), min_size=1, max_size=4).map(" ".join),
    min_size=1,
    max_size=6,
)
#: (action, batch, target): 0 = append, 1 = delete, 2 = flush, 3 = compact.
steps_strategy = st.lists(
    st.tuples(st.integers(0, 3), documents_strategy, st.integers(0, 999)), max_size=6
)


def _ranked(result) -> list[tuple[tuple[str, int, int], float]]:
    return [
        ((d.blob, d.offset, d.length), round(score, 9))
        for d, score in zip(result.documents, result.scores or [])
    ]


@settings(
    max_examples=15,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(initial=documents_strategy, steps=steps_strategy)
def test_tokenless_documents_survive_every_step(initial, steps):
    store = InMemoryObjectStore()
    sketch = SketchConfig(num_bins=64, seed=11)
    service = AirphantService(
        store, ServiceConfig(tokenizer="simple", ingest_interval_s=0), metrics=MetricsRegistry()
    )
    store.put("corpus/base.txt", ("\n".join(initial) + "\n").encode("utf-8"))
    service.build_index("live", ["corpus/base.txt"], sketch_config=sketch)
    model = {
        document.ref: document.text
        for document in LineDelimitedCorpusParser().parse(store, ["corpus/base.txt"])
    }
    for action, batch, selector in steps:
        if action == 0:
            outcome = service.append_documents("live", batch)
            for ref, text in zip(outcome["refs"], batch):
                model[Posting(**ref)] = text
        elif action == 1 and model:
            ref = sorted(model)[selector % len(model)]
            service.delete_documents("live", [ref])
            del model[ref]
        elif action == 2:
            service.flush_index("live")
        elif action == 3:
            service.compact_index("live")

    AirphantBuilder(store, config=sketch, tokenizer=SimpleAnalyzer()).build_from_documents(
        [Document(ref, text) for ref, text in sorted(model.items())], index_name="reference"
    )
    reference = AirphantSearcher.open(store, "reference", tokenizer=SimpleAnalyzer())
    for query in QUERIES:
        live = service.execute(SearchRequest(query=query, index="live"))
        expected = reference.search(query)
        assert {d.ref for d in live.documents} == {d.ref for d in expected.documents}, query
        ranked = service.execute(
            SearchRequest(query=query, index="live", mode="topk_bm25", top_k=5)
        )
        assert _ranked(ranked) == _ranked(reference.search_topk(query, k=5)), query
    reference.close()
    service.close()
