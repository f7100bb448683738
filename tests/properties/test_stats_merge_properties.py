"""Property: merging statistics ≡ computing them over the survivors.

Compaction builds a new generation from :func:`union_stats` over its
members' statistics instead of re-reading and re-analysing the documents.
That is exact only if the merge equals :func:`build_stats` over the
surviving documents column for column — overlapping members (a document in
two members counts once, as its first member has it), a member decoded from
its stored blob, documents with no indexable token, and tombstones on any
member included.  The profile the builder reads off the columns must equal
the profile of the text, and a shard's profile, cut from them by a row
mask, that of the documents the mask keeps.  Every set of statistics —
built or merged — survives the stats blob: decoded, a word at a time or as
whole columns, it is the set that was encoded.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.index.stats import (
    COLUMNS,
    TERMS_PER_BLOCK,
    build_stats,
    decode_stats,
    encode_stats,
    shard_profiles,
    union_stats,
)
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


#: Words sharing long prefixes, more than a vocabulary block of them, and
#: Unicode and lone-surrogate words (the analyzer keeps them as they are).
VOCABULARY = [
    *(f"prefix{n:02d}" for n in range(TERMS_PER_BLOCK + 5)),
    "é", "éé", "\u4e2d\u6587", "\ud800", "x\udfff", "\U0001f600",
]

#: Documents over several blobs whose words repeat (tf > 1), possibly none.
vocabulary_documents = st.lists(
    st.builds(
        Document,
        ref=st.builds(
            Posting,
            blob=st.sampled_from(["corpus/a.txt", "corpus/b.txt", "seg-1.log"]),
            offset=st.integers(0, 10_000),
            length=st.integers(1, 300),
        ),
        text=st.lists(st.sampled_from(VOCABULARY), max_size=12).map(" ".join),
    ),
    max_size=30,
)


def _round_trips(stats) -> None:
    """``stats`` decodes from its blob word by word, then as whole columns,
    to exactly what went in."""
    decoded = decode_stats(encode_stats(stats))
    rows = np.arange(stats.num_documents + 2)
    for word in [*stats.words(), "absent", "prefix", "prefix99"]:
        docs, tfs = decoded.entries(word)
        expected_docs, expected_tfs = stats.entries(word)
        assert docs.tolist() == expected_docs.tolist(), word
        assert tfs.tolist() == expected_tfs.tolist(), word
        assert decoded.frequencies(word, rows).tolist() == stats.frequencies(word, rows).tolist()
    _same_columns(decoded, stats)


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
    stored=st.integers(0, 3),
    simple=st.booleans(),
)
def test_merge_equals_statistics_over_survivors(documents, cuts, doomed, stored, simple):
    tokenizer = SimpleAnalyzer() if simple else WhitespaceAnalyzer()
    bounds = sorted({0, len(documents), *(min(cut, len(documents)) for cut in cuts)})
    members = [build_stats(documents[a:b], tokenizer) for a, b in zip(bounds, bounds[1:])]
    if stored < len(members):
        # One member as compaction reads it: decoded from its stats blob.
        members[stored] = decode_stats(encode_stats(members[stored]))
    exclude = {documents[at].ref for at in doomed if at < len(documents)}
    exclude.add(Posting("corpus/never-indexed.txt", 0, 1))

    merged = union_stats(members, exclude)

    first: dict[Posting, Document] = {}
    for document in documents:
        first.setdefault(document.ref, document)
    survivors = [document for ref, document in first.items() if ref not in exclude]
    _same_columns(merged, build_stats(survivors, tokenizer))
    _round_trips(merged)


@settings(max_examples=100, deadline=None)
@given(documents=documents_strategy, simple=st.booleans())
def test_the_profile_of_the_columns_is_the_profile_of_the_text(documents, simple):
    """The builder profiles its statistics, not the text: the two must agree
    (tokenless documents and repeated references included).  The columns'
    profile leaves the per-word maps empty; the columns hold them."""
    tokenizer = SimpleAnalyzer() if simple else WhitespaceAnalyzer()
    first: dict[Posting, Document] = {}
    for document in documents:
        first.setdefault(document.ref, document)
    expected = profile_documents([first[ref] for ref in sorted(first)], tokenizer)
    stats = build_stats(documents, tokenizer)
    assert stats.profile() == replace(expected, document_frequencies={}, word_counts={})
    terms = stats.words()
    starts = stats.term_starts.astype(np.int64)
    assert dict(zip(terms, np.diff(starts).tolist())) == expected.document_frequencies
    tfs = np.add.reduceat(stats.entry_tf.astype(np.int64), starts[:-1]) if terms else []
    assert dict(zip(terms, list(map(int, tfs)))) == expected.word_counts


@settings(max_examples=80, deadline=None)
@given(documents=documents_strategy, shards=st.integers(1, 5), seed=st.integers(0, 2**16))
def test_a_row_mask_splits_like_the_documents(documents, shards, seed):
    """A shard's header metadata reads its documents, terms, words and each
    document's distinct words: cut from the build's columns, they are those
    of the shard's documents."""
    tokenizer = SimpleAnalyzer()
    stats = build_stats(documents, tokenizer)
    shard_of_row = np.random.default_rng(seed).integers(0, shards, stats.num_documents)
    unique = sorted({document.ref: document for document in reversed(documents)}.items())
    for shard, part in enumerate(shard_profiles(stats, shard_of_row, shards)):
        kept = [document for at, (_, document) in enumerate(unique) if shard_of_row[at] == shard]
        expected = profile_documents(kept, tokenizer)
        assert (part.num_documents, part.num_terms, part.num_words) == (
            expected.num_documents, expected.num_terms, expected.num_words
        )
        assert part.distinct_words_per_document == expected.distinct_words_per_document


@settings(max_examples=150, deadline=None)
@given(documents=vocabulary_documents)
def test_the_stats_blob_round_trips(documents):
    """Front-coded blocks, delta runs, tf exceptions and offset gaps lose
    nothing: shared prefixes across block boundaries, Unicode and lone
    surrogates, tf > 1, documents of several blobs (overlapping ones too)
    and empty statistics included."""
    _round_trips(build_stats(documents, WhitespaceAnalyzer()))
