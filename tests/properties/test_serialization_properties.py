"""Property-based tests for serialization codecs and the storage substrate."""

from __future__ import annotations

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.superpost import POSTING_ORDER, Superpost
from repro.index import serialization
from repro.index.serialization import (
    FORMAT_V1,
    FORMAT_V2,
    PostingColumns,
    StringTable,
    decode_superpost,
    decode_superpost_columns,
    decode_superpost_scalar,
    decode_varint,
    decode_varints,
    encode_superpost,
    encode_superposts,
    encode_varint,
    encode_varints,
    uncompressed_superpost_bytes,
    varint_widths,
)
from repro.parsing.corpus import LineDelimitedCorpusParser
from repro.parsing.documents import Posting
from repro.storage.memory import InMemoryObjectStore


class TestVarintProperties:
    @given(value=st.integers(min_value=0, max_value=2**63 - 1))
    @settings(max_examples=200, deadline=None)
    def test_round_trip(self, value):
        decoded, consumed = decode_varint(encode_varint(value))
        assert decoded == value
        assert consumed == len(encode_varint(value))

    @given(values=st.lists(st.integers(min_value=0, max_value=2**40), max_size=20))
    @settings(max_examples=100, deadline=None)
    def test_concatenated_stream_decodes_in_order(self, values):
        data = b"".join(encode_varint(value) for value in values)
        position = 0
        decoded = []
        for _ in values:
            value, position = decode_varint(data, position)
            decoded.append(value)
        assert decoded == values
        assert position == len(data)

    @given(values=st.lists(st.integers(min_value=0, max_value=2**63 - 1), max_size=40))
    @settings(max_examples=150, deadline=None)
    def test_vectorised_stream_decode_matches_scalar(self, values):
        # 1- to 9-byte varints, any mix: one column, the same values.
        data = b"".join(encode_varint(value) for value in values)
        assert decode_varints(data).tolist() == values

    @given(values=st.lists(st.integers(min_value=0, max_value=2**64 - 1), max_size=40))
    @settings(max_examples=150, deadline=None)
    def test_vectorised_stream_encode_matches_scalar(self, values):
        column = np.array(values, np.uint64)
        assert encode_varints(column) == b"".join(encode_varint(value) for value in values)
        assert varint_widths(column).tolist() == [len(encode_varint(value)) for value in values]

    @given(smaller=st.integers(0, 2**30), larger=st.integers(0, 2**30))
    @settings(max_examples=100, deadline=None)
    def test_encoding_length_is_monotone_in_magnitude(self, smaller, larger):
        low, high = sorted((smaller, larger))
        assert len(encode_varint(low)) <= len(encode_varint(high))


postings_strategy = st.sets(
    st.builds(
        Posting,
        blob=st.sampled_from(["a", "b", "corpus/with/long/name.txt"]),
        offset=st.integers(min_value=0, max_value=2**32),
        length=st.integers(min_value=0, max_value=2**20),
    ),
    max_size=30,
)


class TestSuperpostCodecProperties:
    @given(postings=postings_strategy)
    @settings(max_examples=100, deadline=None)
    def test_round_trip_preserves_postings(self, postings):
        table = StringTable()
        encoded = encode_superpost(Superpost(postings), table)
        assert set(decode_superpost(encoded, table)) == postings

    @given(postings=postings_strategy)
    @settings(max_examples=50, deadline=None)
    def test_encoding_deterministic(self, postings):
        assert encode_superpost(Superpost(postings), StringTable()) == encode_superpost(
            Superpost(postings), StringTable()
        )

    @given(batches=st.lists(postings_strategy, min_size=1, max_size=6))
    @settings(max_examples=50, deadline=None)
    def test_shared_string_table_round_trips_many_superposts(self, batches):
        table = StringTable()
        encoded = [encode_superpost(Superpost(postings), table) for postings in batches]
        for data, postings in zip(encoded, batches):
            assert set(decode_superpost(data, table)) == postings


#: Offsets up to 2**62 (pathological for delta coding: enormous gaps, equal
#: offsets with different lengths, zero-length postings).
pathological_postings_strategy = st.sets(
    st.builds(
        Posting,
        blob=st.sampled_from(["a", "b", "corpus/with/long/name.txt"]),
        offset=st.one_of(
            st.integers(min_value=0, max_value=8),
            st.integers(min_value=0, max_value=2**62),
        ),
        length=st.integers(min_value=0, max_value=2**20),
    ),
    max_size=30,
)


class TestV2CodecProperties:
    """The delta codec must be a pure re-encoding of v1's semantics."""

    @given(postings=postings_strategy | pathological_postings_strategy)
    @settings(max_examples=150, deadline=None)
    def test_v2_round_trip_preserves_postings(self, postings):
        table = StringTable()
        encoded = encode_superpost(Superpost(postings), table, FORMAT_V2)
        assert set(decode_superpost(encoded, table, FORMAT_V2)) == postings

    @given(postings=postings_strategy | pathological_postings_strategy)
    @settings(max_examples=150, deadline=None)
    def test_v2_decodes_identically_to_v1(self, postings):
        superpost = Superpost(postings)
        table_v1, table_v2 = StringTable(), StringTable()
        from_v1 = decode_superpost(
            encode_superpost(superpost, table_v1, FORMAT_V1), table_v1, FORMAT_V1
        )
        from_v2 = decode_superpost(
            encode_superpost(superpost, table_v2, FORMAT_V2), table_v2, FORMAT_V2
        )
        assert set(from_v1) == set(from_v2) == postings
        assert list(from_v1) == list(from_v2)

    @given(postings=postings_strategy)
    @settings(max_examples=50, deadline=None)
    def test_v2_encoding_deterministic(self, postings):
        assert encode_superpost(
            Superpost(postings), StringTable(), FORMAT_V2
        ) == encode_superpost(Superpost(postings), StringTable(), FORMAT_V2)

    @given(postings=postings_strategy)
    @settings(max_examples=100, deadline=None)
    def test_v2_never_larger_than_v1_plus_group_overhead(self, postings):
        # Per blob group v2 spends one count varint v1 doesn't, but saves the
        # per-posting blob key and shortens every offset varint; with < 128
        # postings per group the count costs 1 byte, so the worst case is
        # exactly one byte per distinct blob.
        superpost = Superpost(postings)
        v1 = encode_superpost(superpost, StringTable(), FORMAT_V1)
        v2 = encode_superpost(superpost, StringTable(), FORMAT_V2)
        num_groups = len({posting.blob for posting in postings})
        assert len(v2) <= len(v1) + num_groups

    @given(postings=postings_strategy)
    @settings(max_examples=50, deadline=None)
    def test_decode_yields_presorted_superpost(self, postings):
        # The decode hot path adopts the payload's order as the list's;
        # it must match a from-scratch sort.
        table = StringTable()
        for version in (FORMAT_V1, FORMAT_V2):
            encoded = encode_superpost(Superpost(postings), table, version)
            decoded = decode_superpost(encoded, table, version)
            assert list(decoded) == sorted(postings)

    @given(
        postings=postings_strategy | pathological_postings_strategy,
        preinterned=st.lists(st.sampled_from(["zz", "b", "a", "m"]), unique=True),
    )
    @settings(max_examples=150, deadline=None)
    def test_vectorised_decode_matches_scalar_decode(self, postings, preinterned):
        # The scalar loop is the short-payload path *and* the reference: the
        # vectorised decoder must agree with it on every payload, whatever
        # its size, group count, varint widths (up to 9 bytes) or the order
        # the table interned the names in.
        for version in (FORMAT_V1, FORMAT_V2):
            table = StringTable(list(preinterned))
            encoded = encode_superpost(postings, table, version)
            scalar = decode_superpost_scalar(encoded, table, version)
            assert list(decode_superpost_columns(encoded, table, version)) == scalar
            assert scalar == sorted(postings)

    def test_empty_superpost_round_trips_in_both_formats(self):
        table = StringTable()
        for version in (FORMAT_V1, FORMAT_V2):
            encoded = encode_superpost(Superpost(), table, version)
            assert set(decode_superpost(encoded, table, version)) == set()

    def test_unknown_version_rejected(self):
        with pytest.raises(ValueError):
            encode_superpost(Superpost(), StringTable(), 99)
        with pytest.raises(ValueError):
            decode_superpost(b"\x00", StringTable(), 99)


class TestCorpusParsingProperties:
    lines_strategy = st.lists(
        st.text(
            alphabet=st.characters(blacklist_characters="\n", blacklist_categories=("Cs",)),
            min_size=1,
            max_size=40,
        ).filter(lambda line: line.strip() != ""),
        min_size=1,
        max_size=20,
    )

    @given(lines=lines_strategy)
    @settings(max_examples=100, deadline=None)
    def test_every_document_range_read_returns_its_text(self, lines):
        store = InMemoryObjectStore()
        data = "\n".join(lines).encode("utf-8")
        store.put("c.txt", data)
        parser = LineDelimitedCorpusParser()
        documents = list(parser.parse(store, ["c.txt"]))
        assert [document.text for document in documents] == lines
        for document in documents:
            fetched = store.get_range(document.blob, document.offset, document.length)
            assert fetched.decode("utf-8") == document.text


#: Offsets either side of the 32-bit pointer width and the 44-bit packed key.
_WIDE_OFFSETS = st.one_of(
    st.integers(0, 300),
    st.integers(2**32 - 2, 2**32 + 2),
    st.integers(2**44 - 2, 2**44 + 2),
    st.integers(0, 2**63 - 1),
)
#: Runs of superposts over up to nine blobs: many-blob groups, single
#: postings, empty lists (which the blob writer skips).
superpost_runs = st.lists(
    st.sets(
        st.builds(
            Posting,
            blob=st.sampled_from([f"blob-{n}" for n in range(9)] + ["corpus/é.txt"]),
            offset=_WIDE_OFFSETS,
            length=st.integers(0, 2**40),
        ),
        max_size=12,
    ),
    max_size=8,
)


class TestColumnarEncoderProperties:
    """``encode_superposts`` ≡ ``encode_superpost`` over each list, in one table."""

    @given(
        run=superpost_runs,
        version=st.sampled_from([FORMAT_V1, FORMAT_V2]),
        block=st.sampled_from([1, 4, serialization.ENCODE_BLOCK]),
    )
    @settings(max_examples=200, deadline=None)
    def test_blob_matches_the_scalar_encoder(self, run, version, block):
        names = sorted({posting.blob for postings in run for posting in postings})
        ordered = [sorted(postings, key=POSTING_ORDER) for postings in run]
        # One document table (sorted, distinct), each list a run of its rows.
        table = sorted({posting for postings in run for posting in postings}, key=POSTING_ORDER)
        row = {posting: at for at, posting in enumerate(table)}
        counts = np.array([len(postings) for postings in run], np.int64)
        columns = PostingColumns(
            names,
            np.array([names.index(posting.blob) for posting in table], np.int64),
            np.array([posting.offset for posting in table], np.uint64),
            np.array([posting.length for posting in table], np.uint64),
            np.array([row[posting] for postings in ordered for posting in postings], np.int64),
            np.cumsum(counts) - counts,
            counts,
        )
        scalar_table, columnar_table = StringTable(), StringTable()
        expected = [
            encode_superpost(postings, scalar_table, version) if postings else b""
            for postings in run
        ]
        # Small passes: lists spread over many vectorised passes (or one each).
        with mock.patch.object(serialization, "ENCODE_BLOCK", block):
            blob, sizes = encode_superposts(columns, columnar_table, version)
            raw_bytes = uncompressed_superpost_bytes(columns)
        assert blob == b"".join(expected)
        assert sizes.tolist() == [len(payload) for payload in expected]
        assert columnar_table.to_list() == scalar_table.to_list()
        raw = sum(
            len(encode_varint(len(postings)))
            + sum(
                len(encode_varint(len(p.blob.encode()))) + len(p.blob.encode())
                + len(encode_varint(p.offset)) + len(encode_varint(p.length))
                for p in postings
            )
            for postings in run
            if postings
        )
        assert raw_bytes == raw
