"""Tests for HTTPRangeStore against real stdlib HTTP servers.

Two server flavours cover both protocol paths:

* ``SimpleHTTPRequestHandler`` ignores ``Range`` and answers ``200`` with the
  full body — the store must slice client-side;
* a minimal range-aware handler answers ``206``/``416`` — the store must use
  the partial body as-is.
"""

import contextlib
import functools
import gc
import http.server
import socket
import threading
import time
import warnings

import pytest
from harness.connections import ConnectionCounter

from repro.observability import MetricsRegistry
from repro.storage.base import (
    BlobNotFoundError,
    RangeRead,
    ReadOnlyStoreError,
    StoreAccessError,
    TransientStoreError,
)
from repro.storage.connections import ConnectionPool
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


class _KeepAliveHandler(http.server.BaseHTTPRequestHandler):
    """An HTTP/1.1 server that keeps its connections open, errors included.

    ``/blob`` is ``BLOB`` with ``Range`` support (``416`` with a body past
    the end); ``/status/<code>`` answers ``<code>`` with a body; ``/stall``
    announces 100 body bytes, sends 10 and stalls.  The server's
    ``idle_timeout_s`` (``None``: never) closes connections left idle that
    long between requests.
    """

    protocol_version = "HTTP/1.1"

    def setup(self):
        self.timeout = self.server.idle_timeout_s
        super().setup()

    def log_message(self, *args):  # noqa: A002 - quiet test output
        pass

    def _answer(self, status, body):
        self.send_response(status)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        if self.command != "HEAD":
            self.wfile.write(body)

    def do_GET(self):  # noqa: N802 - http.server API
        path = self.path.lstrip("/")
        if path.startswith("status/"):
            code = int(path[len("status/"):])
            self._answer(code, f"answered {code}".encode())
        elif path == "stall":
            self.send_response(200)
            self.send_header("Content-Length", "100")
            self.end_headers()
            self.wfile.write(b"x" * 10)
            time.sleep(1.0)
            self.close_connection = True
        elif path != "blob":
            self._answer(404, b"no such blob")
        elif (header := self.headers.get("Range")) is None:
            self._answer(200, BLOB)
        else:
            start_s, _, end_s = header[len("bytes="):].partition("-")
            start = int(start_s)
            if start >= len(BLOB):
                self._answer(416, b"range not satisfiable")
            else:
                self._answer(206, BLOB[start : int(end_s) + 1 if end_s else len(BLOB)])

    def do_HEAD(self):  # noqa: N802 - http.server API
        self._answer(200 if self.path == "/blob" else 404, BLOB)


@contextlib.contextmanager
def _serving(handler, idle_timeout_s=None):
    """``(url, connection counter)`` of a threading server running ``handler``."""
    server = http.server.ThreadingHTTPServer(("127.0.0.1", 0), handler)
    server.idle_timeout_s = idle_timeout_s
    connections = ConnectionCounter(server)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        yield f"http://127.0.0.1:{server.server_address[1]}", connections
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=5)


def _opened(registry):
    return registry.get("airphant_backend_connections_total").value(backend="http")


class TestConnectionReuse:
    """Every request rides a pooled keep-alive connection; the server counts them."""

    def test_sequential_requests_share_one_connection(self):
        registry = MetricsRegistry()
        with _serving(_KeepAliveHandler) as (url, connections):
            store = HTTPRangeStore(url, timeout_s=5.0, metrics=registry)
            for offset in range(0, 200, 20):
                assert store.get_range("blob", offset, 20) == BLOB[offset : offset + 20]
            assert store.size("blob") == len(BLOB)
            assert store.exists("blob") and store.get("blob") == BLOB
            assert connections.count == 1
            assert _opened(registry) == 1

    def test_idle_connection_closed_by_the_server_costs_one_reconnect(self):
        registry = MetricsRegistry()
        with _serving(_KeepAliveHandler, idle_timeout_s=0.2) as (url, connections):
            store = HTTPRangeStore(url, timeout_s=5.0, metrics=registry)
            assert store.get_range("blob", 0, 8) == BLOB[:8]
            time.sleep(0.6)  # the server hangs up on the idle connection
            assert store.get_range("blob", 8, 8) == BLOB[8:16]
            assert connections.count == _opened(registry) == 2

    def test_fresh_connection_failure_is_not_retried(self):
        class HangUp(http.server.BaseHTTPRequestHandler):
            def handle(self):
                pass  # accept, then close without an answer

        with _serving(HangUp) as (url, connections):
            store = HTTPRangeStore(url, timeout_s=5.0)
            with pytest.raises(TransientStoreError):
                store.get("blob")
            assert connections.count == 1

    def test_refused_connection_raises_transient_after_one_attempt(self, monkeypatch):
        attempts = []
        connect = socket.create_connection

        def counted(*args, **kwargs):
            attempts.append(args[0])
            return connect(*args, **kwargs)

        monkeypatch.setattr(socket, "create_connection", counted)
        with socket.socket() as bound:  # bound, never listening: refused
            bound.bind(("127.0.0.1", 0))
            store = HTTPRangeStore(f"http://127.0.0.1:{bound.getsockname()[1]}", timeout_s=2.0)
            with pytest.raises(TransientStoreError):
                store.get("blob")
        assert len(attempts) == 1

    def test_error_answers_with_bodies_keep_the_connection(self):
        with _serving(_KeepAliveHandler) as (url, connections):
            store = HTTPRangeStore(url, timeout_s=5.0)
            with pytest.raises(BlobNotFoundError):
                store.get("status/404")
            with pytest.raises(StoreAccessError):
                store.get("status/403")
            assert store.get_range("blob", len(BLOB) + 4, 4) == b""  # 416 with a body
            with pytest.raises(TransientStoreError):
                store.get("status/503")
            assert store.get_range("blob", 0, 8) == BLOB[:8]
            assert connections.count == 1

    def test_timeout_mid_body_discards_the_connection(self):
        registry = MetricsRegistry()
        with _serving(_KeepAliveHandler) as (url, connections):
            store = HTTPRangeStore(url, timeout_s=0.3, metrics=registry)
            assert store.get_range("blob", 0, 8) == BLOB[:8]
            with pytest.raises(TransientStoreError):
                store.get("stall")
            assert store.get_range("blob", 8, 8) == BLOB[8:16]
            assert connections.count == _opened(registry) == 2

    def test_http_1_0_server_closes_every_connection(self, tmp_path):
        (tmp_path / "blob").write_bytes(BLOB)
        handler = functools.partial(
            http.server.SimpleHTTPRequestHandler, directory=str(tmp_path)
        )
        with _serving(handler) as (url, connections):
            store = HTTPRangeStore(url, timeout_s=5.0)
            for offset in (0, 100, 200):
                assert store.get_range("blob", offset, 10) == BLOB[offset : offset + 10]
            assert store.size("blob") == len(BLOB)
            assert connections.count == 4  # will_close: never pooled

    def test_forked_child_opens_its_own_connection(self):
        from harness.stores import passes_in_forked_child

        with _serving(_KeepAliveHandler) as (url, connections):
            store = HTTPRangeStore(url, timeout_s=5.0)
            assert store.get_range("blob", 0, 8) == BLOB[:8]  # pooled in the parent
            assert passes_in_forked_child(
                lambda: store.get_range("blob", 8, 8) == BLOB[8:16]
                and store.read_batch([RangeRead("blob", 16, 8)]).payloads == [BLOB[16:24]]
            )
            # The child read over a connection of its own, and the parent's
            # pooled one was neither used nor closed by it: it still serves
            # the parent, and nothing new is opened.
            assert connections.count == 2
            assert store.get_range("blob", 24, 8) == BLOB[24:32]
            assert connections.count == 2

    def test_store_close_keeps_connections_until_the_store_is_collected(self):
        with _serving(_KeepAliveHandler) as (url, connections):
            store = HTTPRangeStore(url, timeout_s=5.0)
            assert store.read_batch([RangeRead("blob", 0, 8)]).payloads == [BLOB[:8]]
            store.close()  # the read pool's threads go, the connection stays
            store.close()
            assert store.read_batch([RangeRead("blob", 8, 8)]).payloads == [BLOB[8:16]]
            assert connections.count == connections.open == 1
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always", ResourceWarning)
                del store
                gc.collect()
            assert not caught, "an idle socket was left to the garbage collector"
            deadline = time.monotonic() + 5.0
            while connections.open and time.monotonic() < deadline:
                time.sleep(0.01)
            assert connections.open == 0

    def test_pool_close_then_request_reconnects(self):
        with _serving(_KeepAliveHandler) as (url, connections):
            pool = ConnectionPool(url)
            assert pool.request("GET", f"{url}/blob", 5.0)[::2] == (200, BLOB)
            pool.close()
            pool.close()
            assert pool.request("GET", f"{url}/blob", 5.0)[::2] == (200, BLOB)
            assert connections.count == 2
            pool.close()
