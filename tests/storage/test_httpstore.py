"""Tests for HTTPRangeStore against real stdlib HTTP servers.

Two server flavours cover both protocol paths:

* ``SimpleHTTPRequestHandler`` ignores ``Range`` and answers ``200`` with the
  full body — the store must slice client-side;
* a minimal range-aware handler answers ``206``/``416`` — the store must use
  the partial body as-is.
"""

import functools
import http.server
import threading

import pytest

from repro.storage.base import (
    BlobNotFoundError,
    ReadOnlyStoreError,
    TransientStoreError,
)
from repro.storage.httpstore import HTTPRangeStore

BLOB = bytes(range(256)) * 4


class _RangeHandler(http.server.BaseHTTPRequestHandler):
    """Static handler with real ``Range`` support (what nginx/S3 would do)."""

    blobs = {"data/blob.bin": BLOB, "plain.txt": b"hello world"}

    def log_message(self, *args):  # noqa: A002 - quiet test output
        pass

    def _lookup(self):
        return self.blobs.get(self.path.lstrip("/"))

    def _serve(self, include_body):
        if self.path.lstrip("/").startswith("private/"):
            self.send_error(403)
            return
        data = self._lookup()
        if data is None:
            self.send_error(404)
            return
        header = self.headers.get("Range")
        status, window = 200, data
        if header and header.startswith("bytes=") and include_body:
            spec = header[len("bytes="):]
            start_s, _, end_s = spec.partition("-")
            start = int(start_s)
            if start >= len(data):
                self.send_response(416)
                self.send_header("Content-Length", "0")
                self.end_headers()
                return
            end = int(end_s) if end_s else len(data) - 1
            window = data[start : end + 1]
            status = 206
        self.send_response(status)
        self.send_header("Content-Length", str(len(window)))
        self.end_headers()
        if include_body:
            self.wfile.write(window)

    def do_GET(self):  # noqa: N802 - http.server API
        self._serve(include_body=True)

    def do_HEAD(self):  # noqa: N802 - http.server API
        self._serve(include_body=False)


@pytest.fixture
def range_server():
    server = http.server.ThreadingHTTPServer(("127.0.0.1", 0), _RangeHandler)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        yield f"http://127.0.0.1:{server.server_address[1]}"
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=5)


@pytest.fixture
def static_server(tmp_path):
    """A plain `python -m http.server` style directory server (no Range)."""
    (tmp_path / "data").mkdir()
    (tmp_path / "data" / "blob.bin").write_bytes(BLOB)
    (tmp_path / "plain.txt").write_bytes(b"hello world")
    handler = functools.partial(
        http.server.SimpleHTTPRequestHandler, directory=str(tmp_path)
    )
    server = http.server.ThreadingHTTPServer(("127.0.0.1", 0), handler)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        yield f"http://127.0.0.1:{server.server_address[1]}"
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=5)


@pytest.fixture(params=["range", "static"])
def store(request, range_server, static_server):
    """The same assertions must hold with and without server Range support."""
    url = range_server if request.param == "range" else static_server
    return HTTPRangeStore(url, timeout_s=5.0)


class TestReads:
    def test_get_whole_blob(self, store):
        assert store.get("data/blob.bin") == BLOB
        assert store.get("plain.txt") == b"hello world"

    def test_get_range_matches_slicing(self, store):
        assert store.get_range("data/blob.bin", 10, 20) == BLOB[10:30]
        assert store.get_range("data/blob.bin", 0, 1) == BLOB[:1]

    def test_open_ended_range_reads_to_end(self, store):
        assert store.get_range("data/blob.bin", len(BLOB) - 16) == BLOB[-16:]

    def test_range_past_end_truncates(self, store):
        assert store.get_range("data/blob.bin", len(BLOB) - 4, 100) == BLOB[-4:]
        assert store.get_range("data/blob.bin", len(BLOB) + 10, 4) == b""

    def test_zero_length_range_is_empty_without_a_request(self, store):
        assert store.get_range("data/blob.bin", 5, 0) == b""

    def test_size_via_head(self, store):
        assert store.size("data/blob.bin") == len(BLOB)
        assert store.size("plain.txt") == len(b"hello world")

    def test_exists(self, store):
        assert store.exists("plain.txt")
        assert not store.exists("no/such/blob")

    def test_missing_blob_raises_not_found(self, store):
        with pytest.raises(BlobNotFoundError):
            store.get("missing.bin")
        with pytest.raises(BlobNotFoundError):
            store.size("missing.bin")

    def test_read_batch_over_http(self, store):
        from repro.storage.base import RangeRead

        payloads = store.read_batch(
            [RangeRead("data/blob.bin", 0, 8), RangeRead("data/blob.bin", 8, 8)]
        ).payloads
        assert payloads == [BLOB[:8], BLOB[8:16]]
        store.close()

    def test_list_blobs_is_empty_not_an_error(self, store):
        assert store.list_blobs() == []
        assert store.total_bytes() == 0


class TestWritesAndFailures:
    def test_put_against_static_server_raises_read_only(self, static_server):
        store = HTTPRangeStore(static_server)
        with pytest.raises(ReadOnlyStoreError):
            store.put("new.bin", b"data")

    def test_access_denied_is_definitive_not_transient(self, range_server):
        """Regression: 403 on reads used to be retried as 'transient'."""
        from repro.storage.base import StoreAccessError
        from repro.storage.resilient import ResilientStore

        store = HTTPRangeStore(range_server)
        with pytest.raises(StoreAccessError):
            store.get("private/secret.bin")
        # ...and the resilience layer must NOT retry it.
        resilient = ResilientStore(store, retries=5, backoff_ms=0.0)
        with pytest.raises(StoreAccessError):
            resilient.get("private/secret.bin")
        assert resilient.stats.attempts == 1
        assert resilient.stats.retries == 0

    def test_unreachable_host_raises_transient(self):
        # Port 9 (discard) on localhost is refused immediately.
        store = HTTPRangeStore("http://127.0.0.1:9", timeout_s=0.5)
        with pytest.raises(TransientStoreError):
            store.get("anything")

    def test_invalid_base_url_rejected(self):
        with pytest.raises(ValueError):
            HTTPRangeStore("ftp://host/dir")
        with pytest.raises(ValueError):
            HTTPRangeStore("http://host", timeout_s=0)

    def test_invalid_blob_names_rejected(self, static_server):
        store = HTTPRangeStore(static_server)
        for name in ("", "/absolute", "up/../escape"):
            with pytest.raises(ValueError):
                store.blob_url(name)
