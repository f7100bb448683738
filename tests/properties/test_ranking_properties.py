"""Property-based tests (hypothesis) for BM25 ranked retrieval.

The contract ``mode="topk_bm25"`` must uphold for *any* corpus:

* scores always land in ``[0, 1]`` and come back in descending order;
* the BM25 scoring function is monotone in term frequency;
* rankings are deterministic — identical across repeated runs and across
  independently rebuilt indexes;
* the top-k set is a subset of the conjunctive membership result;
* over members that overlap and documents pending deletion, the column
  scorer's scores ``==`` the per-posting dict loop it replaced, run over the
  surviving documents.
"""

from __future__ import annotations

from collections import Counter

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.core.config import SketchConfig
from repro.index.builder import AirphantBuilder
from repro.index.stats import idf
from repro.ingest.memtable import MemtableMember, memtable_from_documents
from repro.parsing.documents import Document, Posting
from repro.parsing.tokenizer import WhitespaceAnalyzer
from repro.search.ranking import BM25Params, bm25
from repro.search.searcher import AirphantSearcher
from repro.storage.memory import InMemoryObjectStore


# -- strategies ---------------------------------------------------------------------

# A tiny closed vocabulary keeps the corpora dense enough that conjunctive
# queries actually match while still exercising varied tf/df/length shapes.
_VOCAB = ["alpha", "beta", "gamma", "delta", "omega"]

documents_strategy = st.lists(
    st.lists(st.sampled_from(_VOCAB), min_size=1, max_size=12).map(" ".join),
    min_size=1,
    max_size=15,
)

query_strategy = st.lists(st.sampled_from(_VOCAB), min_size=1, max_size=3, unique=True).map(
    " ".join
)


# An explicit layer count skips the (slow) optimizer — hypothesis runs
# hundreds of builds, and the ranking contract is independent of the layout.
_CONFIG = SketchConfig(num_bins=32, num_layers=2, seed=3)


def _build_searcher(lines: list[str]) -> AirphantSearcher:
    store = InMemoryObjectStore()
    store.put("corpus/p.txt", "\n".join(lines).encode())
    offset = 0
    documents = []
    for line in lines:
        ref = Posting(blob="corpus/p.txt", offset=offset, length=len(line))
        documents.append(Document(ref=ref, text=line))
        offset += len(line) + 1
    AirphantBuilder(store, config=_CONFIG).build_from_documents(documents, index_name="prop")
    return AirphantSearcher.open(store, index_name="prop")


class TestScoreRangeProperty:
    @given(lines=documents_strategy, query=query_strategy, k=st.integers(1, 20))
    @settings(max_examples=40, deadline=None)
    def test_scores_in_unit_interval_and_descending(self, lines, query, k):
        searcher = _build_searcher(lines)
        result = searcher.search_topk(query, k=k)
        assert len(result.scores) == result.num_results <= k
        assert all(0.0 <= score <= 1.0 for score in result.scores)
        assert result.scores == sorted(result.scores, reverse=True)

    @given(lines=documents_strategy, query=query_strategy)
    @settings(max_examples=40, deadline=None)
    def test_topk_set_is_subset_of_membership(self, lines, query):
        searcher = _build_searcher(lines)
        ranked = searcher.search_topk(query, k=50)
        membership = searcher.search(query)
        ranked_refs = {document.ref for document in ranked.documents}
        member_refs = {document.ref for document in membership.documents}
        assert ranked_refs <= member_refs


class TestDeterminismProperty:
    @given(lines=documents_strategy, query=query_strategy)
    @settings(max_examples=25, deadline=None)
    def test_identical_across_runs_and_rebuilds(self, lines, query):
        first = _build_searcher(lines)
        second = _build_searcher(lines)
        a1 = first.search_topk(query, k=20)
        a2 = first.search_topk(query, k=20)
        b = second.search_topk(query, k=20)
        ranking_a1 = [(d.ref, s) for d, s in zip(a1.documents, a1.scores)]
        ranking_a2 = [(d.ref, s) for d, s in zip(a2.documents, a2.scores)]
        ranking_b = [(d.ref, s) for d, s in zip(b.documents, b.scores)]
        assert ranking_a1 == ranking_a2 == ranking_b


class TestMonotonicityProperty:
    @given(
        tf_low=st.integers(min_value=1, max_value=30),
        tf_delta=st.integers(min_value=1, max_value=30),
        doc_length=st.integers(min_value=30, max_value=200),
        avg_doc_length=st.floats(min_value=5.0, max_value=200.0),
        idf_value=st.floats(min_value=0.01, max_value=10.0),
        k1=st.floats(min_value=0.0, max_value=3.0),
        b=st.floats(min_value=0.0, max_value=1.0),
    )
    @settings(max_examples=100, deadline=None)
    def test_score_is_monotone_in_tf(
        self, tf_low, tf_delta, doc_length, avg_doc_length, idf_value, k1, b
    ):
        # Two documents identical in every respect except the query term's
        # frequency: the one with more occurrences never scores lower.
        params = BM25Params(k1=k1, b=b)
        score_low, score_high = bm25(
            np.array([[tf_low, tf_low + tf_delta]]),
            np.array([doc_length, doc_length]),
            [idf_value],
            [1.0],
            params,
            avg_doc_length,
            idf_value * (params.k1 + 1.0),
        ).tolist()
        # At k1 = 0 the saturation term is exactly 1 for any tf, so the two
        # scores are mathematically equal and may differ by float rounding;
        # allow an ulp-scale slack on the comparison.
        assert score_high >= score_low - 1e-12
        assert 0.0 <= score_low <= 1.0
        assert 0.0 <= score_high <= 1.0

    @given(
        tf=st.integers(min_value=1, max_value=30),
        short_length=st.integers(min_value=10, max_value=100),
        extra_length=st.integers(min_value=1, max_value=100),
    )
    @settings(max_examples=60, deadline=None)
    def test_longer_document_never_outscores_shorter_at_equal_tf(
        self, tf, short_length, extra_length
    ):
        params = BM25Params()
        short, longer = bm25(
            np.array([[tf, tf]]),
            np.array([short_length, short_length + extra_length]),
            [1.0],
            [1.0],
            params,
            50.0,
            params.k1 + 1.0,
        ).tolist()
        assert short >= longer


# -- the column scorer against the dict-loop maths it replaced ----------------------


def reference_ranking(
    documents: list[Document],
    words: list[str],
    k: int,
    weights: dict[str, float],
    params: BM25Params,
) -> list[tuple[Posting, float]]:
    """BM25 over ``documents`` the way nested dicts scored it, posting by posting."""
    tokenizer = WhitespaceAnalyzer()
    doc_lengths: dict[Posting, int] = {}
    term_frequencies: dict[str, dict[Posting, int]] = {}
    for document in documents:
        tokens = tokenizer.tokenize(document.text)
        doc_lengths[document.ref] = len(tokens)
        for term, count in Counter(tokens).items():
            term_frequencies.setdefault(term, {})[document.ref] = count
    num_documents = len(doc_lengths)
    avg_doc_length = sum(doc_lengths.values()) / num_documents if num_documents else 0.0
    idf_by_word = {
        word: idf(num_documents, len(term_frequencies.get(word, ()))) for word in words
    }
    weights = {word: weights.get(word, 1.0) for word in words}
    max_score = sum(weights[word] * idf_by_word[word] * (params.k1 + 1.0) for word in words)
    scored = []
    for posting, doc_length in doc_lengths.items():
        if avg_doc_length > 0:
            norm = 1.0 - params.b + params.b * (doc_length / avg_doc_length)
        else:
            norm = 1.0
        score = 0.0
        for word in words:
            tf = term_frequencies.get(word, {}).get(posting, 0)
            if tf == 0:
                break
            score += (
                weights[word] * idf_by_word[word] * (tf * (params.k1 + 1.0))
                / (tf + params.k1 * norm)
            )
        else:
            scored.append((posting, min(score / max_score, 1.0)))
    scored.sort(key=lambda item: (-item[1], item[0]))
    return scored[:k]


#: Which run of the corpus's documents each member holds: ``(start, count)``
#: (overlaps included).
_MEMBER_SLICES = st.lists(
    st.tuples(st.integers(0, 10), st.integers(1, 15)), min_size=1, max_size=4
)


class TestColumnScoresEqualTheDictLoop:
    @given(
        lines=documents_strategy,
        slices=_MEMBER_SLICES,
        kinds=st.lists(st.booleans(), min_size=4, max_size=4),
        condemned=st.sets(st.integers(0, 14), max_size=5),
        query=query_strategy,
        k=st.integers(1, 20),
        weights=st.dictionaries(st.sampled_from(_VOCAB), st.floats(0.1, 5.0), max_size=3),
        k1=st.sampled_from([0.0, 0.9, 1.2, 2.5]),
        b=st.sampled_from([0.0, 0.4, 0.75, 1.0]),
    )
    @settings(max_examples=80, deadline=None)
    def test_overlapping_members_and_tombstones(
        self, lines, slices, kinds, condemned, query, k, weights, k1, b
    ):
        """Members overlap (a document mid-flush), some documents are pending
        deletes: the scores must ``==`` the dict-loop over the survivors."""
        store = InMemoryObjectStore()
        documents = _put_corpus(store, lines)
        members: list = []
        visible: set[Posting] = set()
        for number, ((start, count), persisted) in enumerate(zip(slices, kinds)):
            held = documents[start : start + count]
            if not held:
                continue
            visible.update(d.ref for d in held)
            if persisted:
                name = f"member-{number}"
                AirphantBuilder(store, config=_CONFIG).build_from_documents(held, index_name=name)
                members += AirphantSearcher.open(store, name).opened
            else:
                members.append(MemtableMember(memtable_from_documents(held)))
        assume(members)
        exclude = frozenset(documents[i].ref for i in condemned if i < len(documents))
        survivors = [d for d in documents if d.ref in visible and d.ref not in exclude]
        params = BM25Params(k1=k1, b=b)
        result = AirphantSearcher(members=members, exclude=exclude).search_topk(
            query, k, weights=weights, params=params
        )
        assert list(zip(result.postings, result.scores)) == reference_ranking(
            survivors, query.split(), k, weights, params
        )


def _put_corpus(store: InMemoryObjectStore, lines: list[str]) -> list[Document]:
    store.put("corpus/p.txt", "\n".join(lines).encode())
    documents, offset = [], 0
    for line in lines:
        documents.append(Document(ref=Posting("corpus/p.txt", offset, len(line)), text=line))
        offset += len(line) + 1
    return documents
