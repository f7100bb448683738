"""Server-side connection counting for tests of the pooled HTTP client.

A client-side counter can only say how many connections the client *thinks*
it opened; :class:`ConnectionCounter` counts what the server accepted, which
is the number that keep-alive reuse is supposed to keep small.
"""

from __future__ import annotations

import socketserver
import threading


class ConnectionCounter:
    """Counts the TCP connections a running ``socketserver`` server accepts.

    ``count`` is every connection accepted, ``open`` those the server has
    not hung up yet.  Wraps the server's ``process_request`` (called once per
    accepted connection, before a handler thread takes it over) and
    ``shutdown_request`` (called once the handler is done, before the
    server's FIN goes out), so it can be attached to any
    ``http.server``-based server, started or not.
    """

    def __init__(self, server: socketserver.BaseServer) -> None:
        self._lock = threading.Lock()
        self.count = 0
        self.open = 0
        process_request = server.process_request
        shutdown_request = server.shutdown_request

        def accepting(request, client_address) -> None:
            with self._lock:
                self.count += 1
                self.open += 1
            process_request(request, client_address)

        def hanging_up(request) -> None:
            with self._lock:
                self.open -= 1
            shutdown_request(request)

        server.process_request = accepting  # type: ignore[method-assign]
        server.shutdown_request = hanging_up  # type: ignore[method-assign]
