"""Property: merging statistics ≡ computing them over the survivors.

Compaction builds a new generation from :func:`union_stats` over its
members' statistics instead of re-reading and re-analysing the documents.
That is exact only if the merge equals :func:`build_stats` over the
surviving documents column for column — overlapping members (a document in
two members counts once, as its first member has it), a member decoded from
a v1 JSON blob, documents with no indexable token, and tombstones on any
member included.  The splitting half (a row mask) must equal the statistics
of the documents it keeps, and the profile the builder reads off the
columns must equal the profile of the text.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from harness.legacy_stats import encode_legacy_stats
from repro.index.stats import COLUMNS, build_stats, decode_stats, encode_stats, union_stats
from repro.parsing.documents import Document, Posting
from repro.parsing.tokenizer import SimpleAnalyzer, WhitespaceAnalyzer
from repro.profiling.profiler import profile_documents

#: Words and punctuation: under the simple analyzer "!!" and "--" lines have no token.
TOKENS = ["error", "Disk", "net", "é", "x1", "!!", "--", "retry"]

documents_strategy = st.lists(
    st.builds(
        Document,
        ref=st.builds(
            Posting,
            blob=st.sampled_from(["corpus/a.txt", "corpus/b.txt", "seg-1.log"]),
            offset=st.integers(0, 40),
            length=st.integers(1, 3),
        ),
        text=st.lists(st.sampled_from(TOKENS), max_size=5).map(" ".join),
    ),
    max_size=24,
)


def _same_columns(left, right) -> None:
    assert (left.num_documents, left.total_words, left.blobs) == (
        right.num_documents,
        right.total_words,
        right.blobs,
    )
    for name in COLUMNS:
        assert getattr(left, name).dtype == getattr(right, name).dtype, name
        assert np.array_equal(getattr(left, name), getattr(right, name)), name
    assert encode_stats(left) == encode_stats(right)


@settings(max_examples=150, deadline=None)
@given(
    documents=documents_strategy,
    cuts=st.lists(st.integers(0, 24), max_size=3),
    doomed=st.sets(st.integers(0, 23), max_size=6),
    legacy=st.integers(0, 3),
    simple=st.booleans(),
)
def test_merge_equals_statistics_over_survivors(documents, cuts, doomed, legacy, simple):
    tokenizer = SimpleAnalyzer() if simple else WhitespaceAnalyzer()
    bounds = sorted({0, len(documents), *(min(cut, len(documents)) for cut in cuts)})
    members = [build_stats(documents[a:b], tokenizer) for a, b in zip(bounds, bounds[1:])]
    if legacy < len(members):
        # One member as an older build left it: a v1 JSON blob.
        members[legacy] = decode_stats(encode_legacy_stats(members[legacy]))
    exclude = {documents[at].ref for at in doomed if at < len(documents)}
    exclude.add(Posting("corpus/never-indexed.txt", 0, 1))

    merged = union_stats(members, exclude)

    first: dict[Posting, Document] = {}
    for document in documents:
        first.setdefault(document.ref, document)
    survivors = [document for ref, document in first.items() if ref not in exclude]
    _same_columns(merged, build_stats(survivors, tokenizer))


@settings(max_examples=100, deadline=None)
@given(documents=documents_strategy, simple=st.booleans())
def test_the_profile_of_the_columns_is_the_profile_of_the_text(documents, simple):
    """The builder profiles its statistics, not the text: the two must agree
    (tokenless documents and repeated references included)."""
    tokenizer = SimpleAnalyzer() if simple else WhitespaceAnalyzer()
    first: dict[Posting, Document] = {}
    for document in documents:
        first.setdefault(document.ref, document)
    expected = profile_documents([first[ref] for ref in sorted(first)], tokenizer)
    assert build_stats(documents, tokenizer).profile() == expected


@settings(max_examples=80, deadline=None)
@given(documents=documents_strategy, shards=st.integers(1, 4))
def test_a_row_mask_splits_like_the_documents(documents, shards):
    tokenizer = SimpleAnalyzer()
    stats = build_stats(documents, tokenizer)
    unique = sorted({document.ref: document for document in reversed(documents)}.items())
    for shard in range(shards):
        keep = np.arange(stats.num_documents) % shards == shard
        kept = [document for at, (_, document) in enumerate(unique) if at % shards == shard]
        _same_columns(union_stats([stats], keep=keep), build_stats(kept, tokenizer))
