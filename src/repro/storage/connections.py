"""Keep-alive HTTP connections, pooled per origin.

Every HTTP request the program makes — a store's range reads, HEADs, PUTs,
DELETEs and LISTs, the router's node requests, the health probes — goes
through one :class:`ConnectionPool` per origin.  A request checks a
connection out, and a connection whose response was read to the end goes
back in, so a wave of reads costs one TCP handshake per connection that is
*new to the pool*, not one per read.

The rules that keep a pooled connection honest:

* A *reused* connection that fails before the status line arrived
  (``RemoteDisconnected``, ``ConnectionResetError``, ``BrokenPipeError``) was
  closed by the server while it sat idle: the request is sent once more on a
  fresh connection.  A fresh connection's failure is never retried.
* A connection goes back to the pool only when its response was read in
  full and the server did not announce it would close it (``will_close``:
  HTTP/1.0 servers such as ``SimpleHTTPRequestHandler``).  Any error closes
  it.
* ``TCP_QUICKACK`` is set before each response is read, where ``socket``
  has it.  A server that writes its headers and its body in two segments
  (``http.server`` does) meets Nagle's algorithm and the client's delayed
  ACK on a long-lived connection: measured on loopback against a server
  that answers after 10 ms, a GET took 51.8 ms without it and 10.6 ms with
  it.
* The pool only grows: it holds at most as many connections as were ever
  in use at once, i.e. the widest batch.  After ``os.fork()`` the child
  closes its copies of the parent's descriptors (no ``shutdown()``, so the
  parent's connections are untouched) and opens its own.  :meth:`close`
  closes the idle connections and leaves the pool usable; a pool that is
  garbage-collected closes them too.

Redirects are not followed and proxy variables are not consulted: the
answer of the addressed server is the answer.
"""

from __future__ import annotations

import http.client
import os
import socket
import threading
import weakref
from email.message import Message
from typing import Callable
from urllib.parse import urlsplit

#: How a reused connection fails when the server closed it while idle.
_STALE = (http.client.RemoteDisconnected, ConnectionResetError, BrokenPipeError)
_QUICKACK = getattr(socket, "TCP_QUICKACK", None)


def _close_all(connections: list[http.client.HTTPConnection]) -> None:
    """Close and forget ``connections`` (a pool's idle list, emptied in place)."""
    closing = connections[:]
    connections.clear()
    for connection in closing:
        connection.close()


class ConnectionPool:
    """Keep-alive ``http.client`` connections to one ``scheme://host:port``.

    Parameters
    ----------
    url:
        Any ``http(s)://`` URL of the origin; only scheme and host count.
    on_connect:
        Called once for every connection the pool opens (a metrics hook).
    """

    def __init__(
        self, url: str, on_connect: Callable[[], None] | None = None
    ) -> None:
        parts = urlsplit(url)
        if parts.scheme not in ("http", "https") or not parts.hostname:
            raise ValueError(f"not an http(s):// URL: {url!r}")
        self.origin = f"{parts.scheme}://{parts.netloc}"
        self._host = parts.netloc
        self._address = (parts.hostname, parts.port)
        self._factory = (
            http.client.HTTPSConnection if parts.scheme == "https" else http.client.HTTPConnection
        )
        self._on_connect = on_connect
        self._idle: list[http.client.HTTPConnection] = []
        self._pid = os.getpid()
        self._lock = threading.Lock()
        # An owner that never calls close() must not leave its idle sockets
        # to the garbage collector: close them when the pool is collected.
        # The callback holds only the idle list, never the pool.
        weakref.finalize(self, _close_all, self._idle)

    def request(
        self,
        method: str,
        url: str,
        timeout_s: float,
        headers: dict[str, str] | None = None,
        body: bytes | None = None,
    ) -> tuple[int, Message, bytes]:
        """Send one request and read its whole answer, whatever the status.

        ``timeout_s`` bounds every socket operation of this request.
        Returns ``(status, response_headers, body)``; raises ``OSError``
        (timeouts, refused or reset connections) or
        ``http.client.HTTPException`` (a malformed or truncated answer).
        """
        if not url.startswith(self.origin):
            raise ValueError(f"{url!r} is not under {self.origin}")
        target = url[len(self.origin) :] or "/"
        # The Host header urllib sent (the URL's netloc, port included), so
        # a SigV4 signature over "host" matches what is on the wire.
        headers = {"Host": self._host, **(headers or {})}
        connection, reused = self._checkout(timeout_s)
        try:
            try:
                response = self._exchange(connection, method, target, headers, body)
            except _STALE:
                if not reused:
                    raise
                connection.close()
                connection = self._connect(timeout_s)
                response = self._exchange(connection, method, target, headers, body)
            payload = response.read()
        except BaseException:
            connection.close()
            raise
        if response.will_close:
            connection.close()
        else:
            with self._lock:
                self._idle.append(connection)
        return response.status, response.headers, payload

    @staticmethod
    def _exchange(
        connection: http.client.HTTPConnection,
        method: str,
        target: str,
        headers: dict[str, str],
        body: bytes | None,
    ) -> http.client.HTTPResponse:
        connection.request(method, target, body=body, headers=headers)
        if _QUICKACK is not None:
            connection.sock.setsockopt(socket.IPPROTO_TCP, _QUICKACK, 1)
        return connection.getresponse()

    def _connect(self, timeout: float) -> http.client.HTTPConnection:
        connection = self._factory(*self._address, timeout=timeout)
        connection.connect()
        if self._on_connect is not None:
            self._on_connect()
        return connection

    def _checkout(self, timeout: float) -> tuple[http.client.HTTPConnection, bool]:
        """An idle connection (``reused=True``) or a newly opened one."""
        with self._lock:
            if self._pid != os.getpid():
                # Inherited across fork: close this process's descriptors
                # only (no shutdown()), so the parent's connections live on.
                _close_all(self._idle)
                self._pid = os.getpid()
            connection = self._idle.pop() if self._idle else None
        if connection is None:
            return self._connect(timeout), False
        connection.timeout = timeout
        connection.sock.settimeout(timeout)
        return connection, True

    def close(self) -> None:
        """Close the idle connections; the pool stays usable (idempotent)."""
        with self._lock:
            _close_all(self._idle)


def send(
    pool: ConnectionPool | None,
    method: str,
    url: str,
    timeout_s: float,
    headers: dict[str, str] | None = None,
    body: bytes | None = None,
) -> tuple[int, Message, bytes]:
    """:meth:`ConnectionPool.request` on ``pool``, or on a one-shot connection."""
    if pool is not None:
        return pool.request(method, url, timeout_s, headers, body)
    one_shot = ConnectionPool(url)
    try:
        return one_shot.request(method, url, timeout_s, headers, body)
    finally:
        one_shot.close()
