"""Unit tests for varint / superpost serialization and the string table."""

import pytest

from repro.core.superpost import CROSSOVER, OFFSET_LIMIT, Superpost
from repro.index.serialization import (
    StringTable,
    decode_superpost,
    decode_superpost_columns,
    decode_superpost_scalar,
    decode_varint,
    decode_varints,
    encode_superpost,
    encode_varint,
)
from repro.parsing.documents import Posting


class TestVarint:
    @pytest.mark.parametrize("value", [0, 1, 127, 128, 255, 300, 16_383, 16_384, 2**32, 2**63 - 1])
    def test_roundtrip(self, value):
        encoded = encode_varint(value)
        decoded, consumed = decode_varint(encoded)
        assert decoded == value
        assert consumed == len(encoded)

    def test_small_values_are_single_bytes(self):
        assert len(encode_varint(0)) == 1
        assert len(encode_varint(127)) == 1
        assert len(encode_varint(128)) == 2

    def test_negative_value_rejected(self):
        with pytest.raises(ValueError):
            encode_varint(-1)

    def test_decoding_truncated_varint_fails(self):
        with pytest.raises(ValueError):
            decode_varint(b"\x80")

    def test_decoding_respects_start_position(self):
        data = encode_varint(7) + encode_varint(300)
        first, pos = decode_varint(data, 0)
        second, _ = decode_varint(data, pos)
        assert (first, second) == (7, 300)

    def test_overlong_varint_rejected(self):
        with pytest.raises(ValueError):
            decode_varint(b"\xff" * 11)


class TestStringTable:
    def test_intern_assigns_sequential_keys(self):
        table = StringTable()
        assert table.intern("a") == 0
        assert table.intern("b") == 1
        assert table.intern("a") == 0

    def test_lookup_round_trip(self):
        table = StringTable()
        key = table.intern("corpus/blob.txt")
        assert table.lookup(key) == "corpus/blob.txt"

    def test_lookup_unknown_key_fails(self):
        with pytest.raises(KeyError):
            StringTable().lookup(3)

    def test_to_list_from_list_round_trip(self):
        table = StringTable()
        table.intern("x")
        table.intern("y")
        rebuilt = StringTable.from_list(table.to_list())
        assert rebuilt.lookup(0) == "x"
        assert rebuilt.intern("y") == 1
        assert rebuilt.intern("z") == 2

    def test_len(self):
        table = StringTable()
        table.intern("one")
        table.intern("two")
        assert len(table) == 2


class TestSuperpostCodec:
    def _superpost(self) -> Superpost:
        return Superpost(
            {
                Posting("corpus/a.txt", 0, 40),
                Posting("corpus/a.txt", 41, 17),
                Posting("corpus/b.txt", 1000, 250),
            }
        )

    def test_round_trip(self):
        table = StringTable()
        encoded = encode_superpost(self._superpost(), table)
        decoded = decode_superpost(encoded, table)
        assert list(decoded) == list(self._superpost())

    def test_empty_superpost_round_trip(self):
        table = StringTable()
        encoded = encode_superpost(Superpost(), table)
        assert set(decode_superpost(encoded, table)) == set()

    def test_encoding_is_deterministic(self):
        first = encode_superpost(self._superpost(), StringTable())
        second = encode_superpost(self._superpost(), StringTable())
        assert first == second

    def test_repeated_blob_names_are_compressed(self):
        # Many postings in the same blob: the blob name must not be repeated
        # in the encoding (that is the point of the string table).
        postings = {Posting("a-very-long-blob-name-shared-by-all-postings", i * 10, 5) for i in range(100)}
        table = StringTable()
        encoded = encode_superpost(Superpost(postings), table)
        assert len(encoded) < 100 * 10
        assert len(table) == 1

    def test_shared_table_across_superposts(self):
        table = StringTable()
        first = encode_superpost(Superpost({Posting("blob1", 0, 1)}), table)
        second = encode_superpost(Superpost({Posting("blob1", 5, 1), Posting("blob2", 0, 1)}), table)
        assert set(decode_superpost(first, table)) == {Posting("blob1", 0, 1)}
        assert set(decode_superpost(second, table)) == {
            Posting("blob1", 5, 1),
            Posting("blob2", 0, 1),
        }


class TestVectorisedVarints:
    def test_every_width_matches_the_scalar_decoder(self):
        # One value at the bottom and one at the top of every width, 1 to 9 bytes.
        values = [0]
        for width in range(1, 10):
            values += [1 << (7 * (width - 1)), (1 << (7 * width)) - 1]
        data = b"".join(encode_varint(value) for value in values)
        assert decode_varints(data).tolist() == values
        assert sorted({len(encode_varint(value)) for value in values}) == list(range(1, 10))

    def test_empty_and_incomplete_tails(self):
        assert decode_varints(b"").tolist() == []
        assert decode_varints(b"\x80\x80").tolist() == []
        assert decode_varints(b"\x05\x80").tolist() == [5]  # the cut-off tail is no varint

    def test_ten_byte_varints_are_rejected(self):
        # 2**63 needs ten bytes: the scalar loop (Python ints) takes it, an
        # int64 column cannot.
        assert decode_varint(encode_varint(2**63))[0] == 2**63
        with pytest.raises(ValueError):
            decode_varints(encode_varint(2**63))
        with pytest.raises(ValueError):
            decode_varints(b"\xff" * 11 + b"\x01")


def _decoders(data, table):
    """``data`` through the scalar (reference) and the vectorised decoder."""
    scalar = decode_superpost_scalar(data, table)
    columns = decode_superpost_columns(data, table)
    return scalar, list(columns)


class TestVectorisedDecoder:
    """Vectorised decode ≡ scalar decode ≡ the round trip of ``encode_superpost``."""

    def _cases(self):
        one_blob = {Posting("corpus/a.txt", 7 * at * at, 1 + at % 5) for at in range(300)}
        three_blobs = one_blob | {Posting("b", at, 3) for at in range(40)} | {Posting("a", 0, 0)}
        wide = {Posting("w", (1 << (7 * width)) - 1, 1 << (7 * (width - 1))) for width in range(1, 7)}
        twins = {Posting("corpus/a.txt", 10, length) for length in (1, 2, 3)}
        return {
            "empty": set(),
            "single posting": {Posting("corpus/a.txt", 5, 9)},
            "single group": one_blob,
            "multi group": three_blobs,
            "1- to 6-byte offsets": wide,
            "same offset": twins | one_blob,
        }

    def test_matches_scalar_and_round_trips(self):
        for label, postings in self._cases().items():
            table = StringTable(["zz", "corpus/a.txt"])  # interned out of name order
            data = encode_superpost(postings, table)
            scalar, columns = _decoders(data, table)
            assert scalar == columns == sorted(postings), label
            assert list(decode_superpost(data, table)) == sorted(postings), label

    def test_payload_size_picks_the_decoder(self):
        table = StringTable()
        few = {Posting("b", 3 * at, 2) for at in range(20)}
        many = {Posting("b", 3 * at, 2) for at in range(2 * CROSSOVER + 1)}
        assert "tuple" in repr(decode_superpost(encode_superpost(few, table), table))
        assert "columns" in repr(decode_superpost(encode_superpost(many, table), table))

    def test_a_long_list_owns_its_columns_and_reads_from_a_view(self):
        # A read cache charges the columns' nbytes: they may keep no larger
        # decoder array alive, nor the payload they were decoded from.
        table = StringTable()
        many = {Posting("b", 3 * at, 2) for at in range(2 * CROSSOVER + 1)}
        data = encode_superpost(many, table)
        decoded = decode_superpost(memoryview(b"pad" + data)[3:], table)
        assert list(decoded) == sorted(many)
        assert decoded._key.base is None and decoded._length.base is None
        assert decoded.nbytes == decoded._key.nbytes + decoded._length.nbytes

    def test_offsets_beyond_the_packed_key_still_round_trip(self):
        # 63-bit offsets (9-byte varints; deltas of that size too) are
        # legal on the wire: such a list decodes exactly, as a tuple.
        postings = {Posting("b", 3 * at, 2) for at in range(2 * CROSSOVER)}
        postings |= {Posting("b", OFFSET_LIMIT, 1), Posting("b", 2**62, 1), Posting("c", 2**63 - 1, 5)}
        table = StringTable()
        data = encode_superpost(postings, table)
        scalar, columns = _decoders(data, table)
        assert scalar == columns == sorted(postings)
        decoded = decode_superpost(data, table)
        assert "tuple" in repr(decoded) and list(decoded) == sorted(postings)

    def test_truncated_payloads_fail_in_both_decoders(self):
        postings = {Posting("corpus/a.txt", 1000 * at, 300) for at in range(200)}
        table = StringTable()
        data = encode_superpost(postings, table)
        for cut in (0, 1, 2, 3, len(data) // 2, len(data) - 2, len(data) - 1):
            for decode in (decode_superpost_scalar, decode_superpost_columns):
                with pytest.raises(ValueError):
                    decode(data[:cut], table)

    def test_overlong_varints_fail_in_both_decoders(self):
        postings = {Posting("corpus/a.txt", 1000 * at, 300) for at in range(200)}
        table = StringTable()
        data = encode_superpost(postings, table)
        poisoned = data[:40] + b"\xff" * 11 + data[40:]
        for decode in (decode_superpost_scalar, decode_superpost_columns):
            with pytest.raises(ValueError):
                decode(poisoned, table)

    def test_unknown_blob_key_fails_in_both_decoders(self):
        postings = {Posting("corpus/a.txt", at, 1) for at in range(300)}
        data = encode_superpost(postings, StringTable(["x", "y"]))
        for decode in (decode_superpost_scalar, decode_superpost_columns):
            with pytest.raises(KeyError):
                decode(data, StringTable(["x", "y"]))

    def test_ranks_follow_the_table_as_it_grows(self):
        table = StringTable(["m"])
        first = encode_superpost({Posting("m", at, 1) for at in range(300)}, table)
        assert table.ranks()[0] == ("m",)
        second = encode_superpost(
            {Posting("a", at, 1) for at in range(300)} | {Posting("m", 1, 1)}, table
        )
        assert table.ranks()[0] == ("a", "m") and table.ranks()[1].tolist() == [1, 0]
        merged = Superpost.intersect_all(
            [decode_superpost(first, table), decode_superpost(second, table)]
        )
        assert list(merged) == [Posting("m", 1, 1)]
