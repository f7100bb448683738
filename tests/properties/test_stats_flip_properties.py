"""Property: a flipped byte of a stats blob never changes a ranked answer.

Ranked answers are scored from the stats blob alone — document lengths,
dfs and tfs — so a byte the store garbles there could reorder or rescore an
answer without any error.  Container v3 ends in a CRC-32 of every byte
before it, checked each time the blob is read: whatever single byte of a
100-document Cranfield build's blob is flipped, the first ranked query
either raises :class:`~repro.index.store_layout.CorruptIndexError` (the
service's ``502 index_corrupt``) or answers exactly as over the intact
blob, scores included.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import SketchConfig
from repro.index.builder import AirphantBuilder
from repro.index.store_layout import CorruptIndexError, stats_blob_name
from repro.parsing.corpus import LineDelimitedCorpusParser
from repro.search.searcher import AirphantSearcher
from repro.storage.memory import InMemoryObjectStore
from repro.workloads import generate_cranfield

INDEX = "cranfield"
STORE = InMemoryObjectStore()
_corpus = generate_cranfield(STORE, 100, seed=5)
_documents = list(LineDelimitedCorpusParser().parse(STORE, _corpus.blob_names))
_config = SketchConfig(num_bins=256, num_layers=2, seed=3)
AirphantBuilder(STORE, config=_config).build_from_documents(_documents, index_name=INDEX)
BLOB = STORE.get(stats_blob_name(INDEX))
#: Two to four words of some documents, as ranked queries.
QUERIES = [
    " ".join(_documents[at].text.split()[: 2 + at % 3]) for at in range(0, len(_documents), 9)
]


def _answers() -> list[list[tuple]]:
    searcher = AirphantSearcher.open(STORE, index_name=INDEX)
    answers = []
    for query in QUERIES:
        result = searcher.search_topk(query, k=10)
        answers.append([(d.ref, score) for d, score in zip(result.documents, result.scores)])
    return answers


ORACLE = _answers()


def test_the_oracle_ranks_something():
    assert sum(map(len, ORACLE)) >= len(QUERIES)


@given(position=st.integers(0, len(BLOB) - 1), flip=st.integers(1, 255))
@settings(max_examples=300, deadline=None)
def test_a_flipped_byte_is_corrupt_or_changes_no_ranked_answer(position, flip):
    flipped = bytearray(BLOB)
    flipped[position] ^= flip
    STORE.put(stats_blob_name(INDEX), bytes(flipped))
    try:
        answers = _answers()
    except CorruptIndexError as error:
        assert error.blob == stats_blob_name(INDEX)
        return
    finally:
        STORE.put(stats_blob_name(INDEX), BLOB)
    assert answers == ORACLE


@pytest.mark.parametrize("position", [0, 8, len(BLOB) // 2, len(BLOB) - 1])
def test_a_flip_anywhere_is_caught_before_scoring(position):
    """Where a flip lands — magic, version, a column, the trailer — it is
    corrupt, not another format and not a silently different score."""
    flipped = bytearray(BLOB)
    flipped[position] ^= 0x01
    STORE.put(stats_blob_name(INDEX), bytes(flipped))
    try:
        with pytest.raises(CorruptIndexError, match=stats_blob_name(INDEX)):
            _answers()
    finally:
        STORE.put(stats_blob_name(INDEX), BLOB)
