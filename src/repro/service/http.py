"""JSON HTTP front-end for :class:`~repro.service.facade.AirphantService`.

A deliberately dependency-free server (stdlib ``http.server`` only) so a
query node can be started anywhere the bucket is reachable:

* ``GET  /healthz`` — liveness plus catalog/config/metrics summary (and, on
  clustered nodes, the ``cluster`` peer-health block);
* ``GET  /metrics`` — the node's metrics registry in Prometheus text
  exposition format (404 when ``metrics_enabled`` is off);
* ``GET  /traces`` — newest-first summaries of the retained query traces
  (404 when ``tracing_enabled`` is off; ``?limit=N`` caps the list);
* ``GET  /traces/{id}`` — one retained trace as its full span tree plus
  the per-wave fetch summary;
* ``GET  /cluster`` — the peers, their health and the router's settings
  on a clustered node (404 when no peers are configured);
* ``GET  /indexes`` — every servable index as an ``IndexInfo`` list;
* ``GET  /indexes/{name}`` — one index's ``IndexInfo``;
* ``POST /search`` — a ``SearchRequest`` JSON body, answered with a
  ``SearchResponse``.  On a clustered node a request goes whole to one
  peer; one carrying the ``X-Airphant-Routed`` header (a router sent it)
  is answered locally;
* ``POST /indexes/{name}/build`` — build/rebuild an index from corpus blobs
  already present in the bucket (body: ``{"blobs": [...], "num_bins": ...,
  "target_false_positives": ..., "num_layers": ..., "seed": ...,
  "num_shards": ...}``; any other field is a 400 ``bad_build_request``).
  The index's later deltas and compactions keep its ``num_bins``,
  ``target_false_positives`` and ``seed``;
* ``POST /indexes/{name}/docs`` — append documents to a live index (body:
  ``{"documents": ["one doc per entry", ...]}``); WAL-durable and
  searchable in every query mode when the call returns;
* ``POST /indexes/{name}/docs/delete`` — tombstone documents by reference
  (body: ``{"refs": [{"blob": ..., "offset": ..., "length": ...}, ...]}``):
  one ``manifest.json`` PUT adds the refs to the index's pending deletes,
  durable and invisible in every tier when the call returns;
* ``POST /indexes/{name}/docs/update`` — atomically replace one document
  (body: ``{"ref": {...}, "document": "new text"}``): the replacement's
  ``upd-`` segment PUT, then one ``manifest.json`` PUT that lists it and
  condemns the old ref;
* ``POST /indexes/{name}/flush`` — fold the memtable into a delta index now;
* ``POST /indexes/{name}/compact`` — flush, then fold all deltas into a new
  base generation now (this is also what physically purges tombstones);
* ``GET  /indexes/{name}/snapshots`` — list the index's snapshots;
* ``POST /indexes/{name}/snapshots`` — create a point-in-time snapshot
  (body: ``{"snapshot": "nightly-01"}``);
* ``POST /indexes/{name}/snapshots/{snap}/restore`` — roll the index back;
* ``POST /indexes/{name}/snapshots/{snap}/delete`` — drop a snapshot.

Errors come back as ``ErrorInfo`` JSON bodies with matching HTTP status
codes.  Requests are served by a thread pool (``ThreadingHTTPServer``);
the facade's catalog is lock-protected, and searchers are safe for
concurrent reads.
"""

from __future__ import annotations

import json
import socket
import sys
import time
from contextlib import suppress
from dataclasses import dataclass
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Iterable, Mapping
from urllib.parse import parse_qs, urlsplit

from repro.cluster.router import ROUTED_HEADER
from repro.core.config import SketchConfig
from repro.observability import PROMETHEUS_CONTENT_TYPE
from repro.observability.tracing import (
    PARENT_SPAN_HEADER,
    TRACE_ID_HEADER,
    explain_payload,
    new_id,
)
from repro.service.api import ErrorInfo, SearchRequest, ServiceError
from repro.service.facade import AirphantService

#: Request-log formats ``serve --log-format`` may choose from.
LOG_FORMATS = ("text", "json")


@dataclass(frozen=True)
class _TextResponse:
    """A route result served verbatim instead of being JSON-encoded."""

    text: str
    content_type: str = "text/plain; charset=utf-8"

#: SketchConfig fields a build request body may set.
_BUILD_CONFIG_FIELDS = (
    "num_bins",
    "target_false_positives",
    "num_layers",
    "seed",
)



def _reject_unknown_fields(
    body: Mapping[str, Any], allowed: Iterable[str], error: str, kind: str
) -> None:
    """400 ``error`` naming every field of ``body`` outside ``allowed``."""
    unknown = set(body) - set(allowed)
    if unknown:
        raise ServiceError(
            400, error, f"unknown {kind} field(s): {', '.join(sorted(unknown))}"
        )


def _parse_ref(entry: Any) -> "Posting":
    """Validate one ``{blob, offset, length}`` document reference (400 on junk)."""
    from repro.parsing.documents import Posting

    if not isinstance(entry, Mapping):
        raise ServiceError(
            400, "bad_ingest_request", "a document reference must be a "
            "{blob, offset, length} object"
        )
    _reject_unknown_fields(entry, {"blob", "offset", "length"}, "bad_ingest_request", "reference")
    blob = entry.get("blob")
    offset = entry.get("offset")
    length = entry.get("length")
    if (
        not isinstance(blob, str)
        or not blob
        or not isinstance(offset, int)
        or isinstance(offset, bool)
        or offset < 0
        or not isinstance(length, int)
        or isinstance(length, bool)
        or length <= 0
    ):
        raise ServiceError(
            400,
            "bad_ingest_request",
            "a document reference needs a non-empty 'blob' string, a "
            "non-negative 'offset' integer, and a positive 'length' integer",
        )
    return Posting(blob=blob, offset=offset, length=length)


def _split_snapshot_path(path: str, action: str) -> tuple[str, str]:
    """Split ``/indexes/{name}/snapshots/{snap}{action}`` into its two names."""
    middle = path[len("/indexes/") : -len(action)]
    marker = "/snapshots/"
    position = middle.rfind(marker)
    if position <= 0 or not middle[position + len(marker) :]:
        raise ServiceError(404, "not_found", f"no route for POST {path}")
    return middle[:position], middle[position + len(marker) :]


class AirphantHTTPServer(ThreadingHTTPServer):
    """A threading HTTP server bound to one :class:`AirphantService`; closing
    it also shuts down the connections its handler threads still serve."""

    daemon_threads = True

    def __init__(
        self,
        service: AirphantService,
        host: str = "127.0.0.1",
        port: int = 0,
        quiet: bool = True,
        log_format: str = "text",
    ) -> None:
        if log_format not in LOG_FORMATS:
            raise ValueError(
                f"unknown log_format {log_format!r}; expected one of {', '.join(LOG_FORMATS)}"
            )
        super().__init__((host, port), AirphantRequestHandler)
        self.service = service
        self.quiet = quiet
        self.log_format = log_format
        #: Open connections (a set's add, discard and copy are atomic).
        self._connections: set[socket.socket] = set()

    def process_request(self, request: socket.socket, client_address: Any) -> None:
        self._connections.add(request)
        super().process_request(request, client_address)

    def shutdown_request(self, request: socket.socket) -> None:
        self._connections.discard(request)
        super().shutdown_request(request)

    def handle_error(self, request: socket.socket, client_address: Any) -> None:
        # A reset (the client went away, or server_close cut it) is no error.
        if not isinstance(sys.exc_info()[1], ConnectionError):
            super().handle_error(request, client_address)

    def server_close(self) -> None:
        """Close the listening socket, then every open connection: a handler
        waiting for a kept-alive client's next request reads end of file."""
        super().server_close()
        for connection in list(self._connections):
            with suppress(OSError):  # closed by its client meanwhile
                connection.shutdown(socket.SHUT_RDWR)

    @property
    def port(self) -> int:
        """The bound port (useful with ``port=0`` for an ephemeral port)."""
        return self.server_address[1]

    @property
    def url(self) -> str:
        """Base URL of the running server."""
        host = self.server_address[0]
        return f"http://{host}:{self.port}"


class AirphantRequestHandler(BaseHTTPRequestHandler):
    """Routes HTTP requests to the service facade."""

    server: AirphantHTTPServer
    protocol_version = "HTTP/1.1"

    # -- routing ---------------------------------------------------------------------

    def do_GET(self) -> None:  # noqa: N802 - http.server API
        self._handle(self._route_get)

    def do_POST(self) -> None:  # noqa: N802 - http.server API
        self._handle(self._route_post)

    def _route_get(self) -> tuple[int, Any]:
        service = self.server.service
        path = self._route_path() or "/"
        if path == "/healthz":
            return 200, service.health()
        if path == "/metrics":
            if not service.metrics.enabled:
                raise ServiceError(
                    404, "metrics_disabled", "metrics are disabled on this node"
                )
            return 200, _TextResponse(
                service.metrics.to_prometheus(), content_type=PROMETHEUS_CONTENT_TYPE
            )
        if path == "/cluster":
            if service.router is None:
                raise ServiceError(
                    404, "not_clustered", "this node has no peers configured"
                )
            return 200, service.router.describe()
        if path == "/traces":
            self._require_tracing()
            return 200, {"traces": service.tracer.store.list(limit=self._limit(50))}
        if path.startswith("/traces/"):
            self._require_tracing()
            trace_id = path[len("/traces/") :]
            root = service.tracer.store.get(trace_id)
            if root is None:
                raise ServiceError(
                    404, "trace_not_found", f"no retained trace {trace_id!r}"
                )
            return 200, explain_payload(root)
        if path == "/indexes":
            return 200, {"indexes": [info.to_dict() for info in service.list_indexes()]}
        if path.startswith("/indexes/") and path.endswith("/snapshots"):
            name = path[len("/indexes/") : -len("/snapshots")]
            return 200, {"snapshots": service.list_snapshots(name)}
        if path.startswith("/indexes/"):
            name = path[len("/indexes/") :]
            return 200, service.index_info(name).to_dict()
        raise ServiceError(404, "not_found", f"no route for GET {self.path}")

    def _route_post(self) -> tuple[int, Any]:
        service = self.server.service
        path = self._route_path()
        if path == "/search":
            body = self._read_json_body()
            try:
                request = SearchRequest.from_dict(body)
            except (ValueError, TypeError) as error:
                raise ServiceError(400, "bad_request", str(error)) from error
            # A router upstream marks its requests, which this node answers
            # itself, and may send its trace context on the two trace
            # headers; without them a trace id is pre-generated so this
            # request's access-log line still correlates.
            trace_id = self.headers.get(TRACE_ID_HEADER)
            parent_span_id = self.headers.get(PARENT_SPAN_HEADER)
            if trace_id is None and service.tracer.enabled:
                trace_id = new_id()
            self._trace_id = trace_id
            return 200, service.search(
                request,
                trace_id=trace_id,
                parent_span_id=parent_span_id,
                routed=ROUTED_HEADER in self.headers,
            ).to_dict()
        if path.startswith("/indexes/") and path.endswith("/build"):
            name = path[len("/indexes/") : -len("/build")]
            body = self._read_json_body()
            return 200, self._build(name, body).to_dict()
        if path.startswith("/indexes/") and path.endswith("/docs/delete"):
            name = path[len("/indexes/") : -len("/docs/delete")]
            body = self._read_json_body()
            refs = body.get("refs")
            if not isinstance(refs, list) or not refs:
                raise ServiceError(
                    400,
                    "bad_ingest_request",
                    "delete body needs a non-empty 'refs' list of "
                    "{blob, offset, length} objects",
                )
            _reject_unknown_fields(body, {"refs"}, "bad_ingest_request", "delete")
            return 200, service.delete_documents(
                name, [_parse_ref(entry) for entry in refs]
            )
        if path.startswith("/indexes/") and path.endswith("/docs/update"):
            name = path[len("/indexes/") : -len("/docs/update")]
            body = self._read_json_body()
            text = body.get("document")
            if not isinstance(text, str):
                raise ServiceError(
                    400, "bad_ingest_request", "update body needs a 'document' string"
                )
            _reject_unknown_fields(body, {"ref", "document"}, "bad_ingest_request", "update")
            return 200, service.update_document(name, _parse_ref(body.get("ref")), text)
        if path.startswith("/indexes/") and path.endswith("/docs"):
            name = path[len("/indexes/") : -len("/docs")]
            body = self._read_json_body()
            documents = body.get("documents")
            if (
                not isinstance(documents, list)
                or not documents
                or not all(isinstance(text, str) for text in documents)
            ):
                raise ServiceError(
                    400,
                    "bad_ingest_request",
                    "ingest body needs a non-empty 'documents' list of strings",
                )
            _reject_unknown_fields(body, {"documents"}, "bad_ingest_request", "ingest")
            return 200, service.append_documents(name, documents)
        if path.startswith("/indexes/") and path.endswith("/flush"):
            name = path[len("/indexes/") : -len("/flush")]
            return 200, service.flush_index(name)
        if path.startswith("/indexes/") and path.endswith("/compact"):
            name = path[len("/indexes/") : -len("/compact")]
            return 200, service.compact_index(name)
        if path.startswith("/indexes/") and path.endswith("/snapshots"):
            name = path[len("/indexes/") : -len("/snapshots")]
            body = self._read_json_body()
            snapshot = body.get("snapshot")
            if not isinstance(snapshot, str) or not snapshot:
                raise ServiceError(
                    400, "bad_snapshot_name", "snapshot body needs a 'snapshot' name"
                )
            _reject_unknown_fields(body, {"snapshot"}, "bad_snapshot_name", "snapshot")
            return 200, service.create_snapshot(name, snapshot)
        if path.startswith("/indexes/") and path.endswith("/restore"):
            name, snapshot = _split_snapshot_path(path, "/restore")
            return 200, service.restore_snapshot(name, snapshot)
        if path.startswith("/indexes/") and path.endswith("/delete"):
            name, snapshot = _split_snapshot_path(path, "/delete")
            return 200, service.delete_snapshot(name, snapshot)
        raise ServiceError(404, "not_found", f"no route for POST {self.path}")

    def _build(self, name: str, body: Mapping[str, Any]):
        blobs = body.get("blobs")
        if not isinstance(blobs, list) or not all(isinstance(blob, str) for blob in blobs):
            raise ServiceError(
                400, "bad_build_request", "build body needs a 'blobs' list of blob names"
            )
        overrides = {
            key: body[key] for key in _BUILD_CONFIG_FIELDS if body.get(key) is not None
        }
        _reject_unknown_fields(
            body,
            {"blobs", "num_shards", *_BUILD_CONFIG_FIELDS},
            "bad_build_request",
            "build",
        )
        # Explicit nulls mean "unset", matching the sketch-config fields.
        num_shards = body.get("num_shards")
        if num_shards is None:
            num_shards = 1
        if not isinstance(num_shards, int) or isinstance(num_shards, bool):
            raise ServiceError(400, "bad_build_request", "num_shards must be an integer")
        try:
            config = SketchConfig(**overrides) if overrides else None
        except (ValueError, TypeError) as error:
            raise ServiceError(400, "bad_build_request", str(error)) from error
        return self.server.service.build_index(
            name, blobs, sketch_config=config, num_shards=num_shards
        )

    # -- plumbing --------------------------------------------------------------------

    def _route_path(self) -> str:
        """The request path without query string or trailing slash."""
        return urlsplit(self.path).path.rstrip("/")

    def _require_tracing(self) -> None:
        if not self.server.service.tracer.enabled:
            raise ServiceError(
                404, "tracing_disabled", "tracing is disabled on this node"
            )

    def _limit(self, default: int) -> int:
        """The ``?limit=N`` query parameter (400 on junk)."""
        values = parse_qs(urlsplit(self.path).query).get("limit")
        if not values:
            return default
        try:
            limit = int(values[-1])
        except ValueError as error:
            raise ServiceError(400, "bad_request", f"invalid limit: {values[-1]!r}") from error
        if limit <= 0:
            raise ServiceError(400, "bad_request", "limit must be positive")
        return limit

    def _handle(self, route) -> None:
        self._body_length = self._body_consumed = 0
        self._trace_id: str | None = None
        self._last_status = 0
        started = time.perf_counter()
        try:
            self._body_length = self._declared_body_length()
            status, payload = route()
        except ServiceError as error:
            self._send_json(error.status, error.info.to_dict())
        except Exception as error:  # pragma: no cover - defensive last resort
            info = ErrorInfo(status=500, error="internal_error", message=str(error))
            self._send_json(500, info.to_dict())
        else:
            if isinstance(payload, _TextResponse):
                self._send_bytes(
                    status, payload.text.encode("utf-8"), payload.content_type
                )
            else:
                self._send_json(status, payload)
        if self.server.log_format == "json" and not self.server.quiet:
            # One structured line per request, replacing the stdlib's
            # free-text log_message output (suppressed below).
            line: dict[str, Any] = {
                "event": "request",
                "method": self.command,
                "path": self.path,
                "status": self._last_status,
                "duration_ms": round((time.perf_counter() - started) * 1000.0, 3),
            }
            if self._trace_id is not None:
                line["trace_id"] = self._trace_id
            sys.stderr.write(json.dumps(line) + "\n")

    def _declared_body_length(self) -> int:
        """The request's ``Content-Length`` (0 when absent).

        Anything but a non-negative decimal integer is a 400 that closes the
        connection: where the body ends, hence the next request starts, is
        unknown.
        """
        value = self.headers.get("Content-Length") or "0"
        if not (value.isascii() and value.isdigit()):
            self.close_connection = True
            raise ServiceError(400, "bad_request", f"invalid Content-Length: {value!r}")
        return int(value)

    def _read_json_body(self) -> dict[str, Any]:
        length = self._body_length
        raw = self.rfile.read(length) if length > 0 else b""
        self._body_consumed += len(raw)
        if not raw:
            raise ServiceError(400, "bad_request", "request body must be a JSON object")
        try:
            body = json.loads(raw)
        except json.JSONDecodeError as error:
            raise ServiceError(400, "bad_request", f"invalid JSON body: {error}") from error
        if not isinstance(body, dict):
            raise ServiceError(400, "bad_request", "request body must be a JSON object")
        return body

    def _send_json(self, status: int, payload: Any) -> None:
        self._send_bytes(status, json.dumps(payload).encode("utf-8"), "application/json")

    def _send_bytes(self, status: int, data: bytes, content_type: str) -> None:
        # Drain any unread request body first: HTTP/1.1 keep-alive would
        # otherwise parse the leftover bytes as the next request line.
        remaining = self._body_length - self._body_consumed
        while remaining > 0:
            chunk = self.rfile.read(min(remaining, 65536))
            if not chunk:
                break
            remaining -= len(chunk)
        self._last_status = status
        try:
            self.send_response(status)
            self.send_header("Content-Type", content_type)
            self.send_header("Content-Length", str(len(data)))
            if self.close_connection:
                self.send_header("Connection", "close")
            # Status line, headers and body in one write: as two segments on
            # a keep-alive connection the body waits for the client's delayed
            # ACK of the headers (Nagle), ~40 ms per response.
            self._headers_buffer.append(b"\r\n" + data)
            self.flush_headers()
        except ConnectionError:
            # The client hung up (e.g. a router abandoned us after its
            # per-node timeout and failed over to the next node).  There is
            # nobody left to answer; don't let the threading server spam
            # a traceback for a normal disconnect.
            self.close_connection = True

    def log_message(self, format: str, *args: Any) -> None:  # noqa: A002
        # The JSON access line from _handle replaces these free-text lines.
        if not self.server.quiet and self.server.log_format != "json":
            sys.stderr.write(
                f"{self.address_string()} - {format % args}\n"
            )


def create_server(
    service: AirphantService,
    host: str = "127.0.0.1",
    port: int = 0,
    quiet: bool = True,
    log_format: str = "text",
) -> AirphantHTTPServer:
    """Bind (but do not start) an HTTP server for ``service``."""
    return AirphantHTTPServer(
        service, host=host, port=port, quiet=quiet, log_format=log_format
    )


def serve_forever(
    service: AirphantService,
    host: str = "127.0.0.1",
    port: int = 8080,
    log_format: str = "text",
) -> None:
    """Run the HTTP server until interrupted (the ``airphant serve`` loop)."""
    server = create_server(
        service, host=host, port=port, quiet=False, log_format=log_format
    )
    try:
        server.serve_forever()
    except KeyboardInterrupt:  # pragma: no cover - interactive shutdown
        pass
    finally:
        server.server_close()
