"""Unit tests for the in-memory object store."""

import pytest

from repro.storage.base import BlobNotFoundError, RangeRead
from repro.storage.memory import InMemoryObjectStore


class TestPutGet:
    def test_put_then_get_returns_same_bytes(self):
        store = InMemoryObjectStore()
        store.put("a", b"hello")
        assert store.get("a") == b"hello"

    def test_put_overwrites_existing_blob(self):
        store = InMemoryObjectStore()
        store.put("a", b"old")
        store.put("a", b"new")
        assert store.get("a") == b"new"

    def test_put_copies_bytearray_input(self):
        store = InMemoryObjectStore()
        data = bytearray(b"mutable")
        store.put("a", data)
        data[0] = 0
        assert store.get("a") == b"mutable"

    def test_put_rejects_non_bytes(self):
        store = InMemoryObjectStore()
        with pytest.raises(TypeError):
            store.put("a", "not bytes")  # type: ignore[arg-type]

    def test_get_missing_blob_raises(self):
        store = InMemoryObjectStore()
        with pytest.raises(BlobNotFoundError):
            store.get("missing")


class TestRangeReads:
    def test_get_range_middle(self):
        store = InMemoryObjectStore()
        store.put("a", b"0123456789")
        assert store.get_range("a", 2, 4) == b"2345"

    def test_get_range_without_length_reads_to_end(self):
        store = InMemoryObjectStore()
        store.put("a", b"0123456789")
        assert store.get_range("a", 7) == b"789"

    def test_get_range_past_end_truncates(self):
        store = InMemoryObjectStore()
        store.put("a", b"0123")
        assert store.get_range("a", 2, 100) == b"23"

    def test_get_range_zero_length(self):
        store = InMemoryObjectStore()
        store.put("a", b"0123")
        assert store.get_range("a", 1, 0) == b""

    def test_read_executes_range_read(self):
        store = InMemoryObjectStore()
        store.put("a", b"abcdef")
        assert store.read(RangeRead(blob="a", offset=1, length=3)) == b"bcd"

    def test_read_batch_preserves_order(self):
        store = InMemoryObjectStore()
        store.put("a", b"abcdef")
        requests = [RangeRead("a", 0, 2), RangeRead("a", 4, 2), RangeRead("a", 2, 2)]
        assert store.read_batch(requests).payloads == [b"ab", b"ef", b"cd"]


class TestMetadataOperations:
    def test_size(self):
        store = InMemoryObjectStore()
        store.put("a", b"12345")
        assert store.size("a") == 5

    def test_exists(self):
        store = InMemoryObjectStore()
        store.put("a", b"x")
        assert store.exists("a")
        assert not store.exists("b")

    def test_delete_removes_blob(self):
        store = InMemoryObjectStore()
        store.put("a", b"x")
        store.delete("a")
        assert not store.exists("a")

    def test_delete_is_idempotent(self):
        store = InMemoryObjectStore()
        store.delete("never-existed")

    def test_list_blobs_sorted_and_filtered_by_prefix(self):
        store = InMemoryObjectStore()
        store.put("b/two", b"2")
        store.put("a/one", b"1")
        store.put("b/one", b"1")
        assert store.list_blobs() == ["a/one", "b/one", "b/two"]
        assert store.list_blobs("b/") == ["b/one", "b/two"]

    def test_total_bytes_sums_sizes_under_prefix(self):
        store = InMemoryObjectStore()
        store.put("x/a", b"123")
        store.put("x/b", b"4567")
        store.put("y/c", b"89")
        assert store.total_bytes("x/") == 7
        assert store.total_bytes() == 9


class TestRangeReadValidation:
    def test_negative_offset_rejected(self):
        with pytest.raises(ValueError):
            RangeRead(blob="a", offset=-1)

    def test_negative_length_rejected(self):
        with pytest.raises(ValueError):
            RangeRead(blob="a", offset=0, length=-5)
