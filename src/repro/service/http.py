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
* ``GET  /cluster`` — topology, per-index shard assignments, and peer
  health of a clustered node (404 when no peers are configured);
* ``GET  /indexes`` — every servable index as an ``IndexInfo`` list;
* ``GET  /indexes/{name}`` — one index's ``IndexInfo``;
* ``POST /search`` — a ``SearchRequest`` JSON body, answered with a
  ``SearchResponse``.  On a clustered node a request without ``shards``
  is scatter-gathered over the peers; with ``shards`` it is answered
  locally over just those ordinals (the router's sub-request form);
* ``POST /indexes/{name}/build`` — build/rebuild an index from corpus blobs
  already present in the bucket (body: ``{"blobs": [...], "num_bins": ...,
  "num_shards": ..., "partitioner": ...}``);
* ``POST /indexes/{name}/docs`` — append documents to a live index (body:
  ``{"documents": ["one doc per entry", ...]}``); WAL-durable and
  searchable in every query mode when the call returns;
* ``POST /indexes/{name}/docs/delete`` — tombstone documents by reference
  (body: ``{"refs": [{"blob": ..., "offset": ..., "length": ...}, ...]}``);
  WAL-durable and invisible in every tier when the call returns;
* ``POST /indexes/{name}/docs/update`` — atomically replace one document
  (body: ``{"ref": {...}, "document": "new text"}``);
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
import sys
import time
from dataclasses import dataclass
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Mapping
from urllib.parse import parse_qs, urlsplit

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

#: Sharding fields a build request body may set (passed to the builder, not
#: the sketch configuration).
_BUILD_SHARD_FIELDS = ("num_shards", "partitioner")

#: Superpost codec names a build request's ``format`` field may use.
_BUILD_FORMATS = {"v1": 1, "v2": 2}


def _parse_ref(entry: Any) -> "Posting":
    """Validate one ``{blob, offset, length}`` document reference (400 on junk)."""
    from repro.parsing.documents import Posting

    if not isinstance(entry, Mapping):
        raise ServiceError(
            400, "bad_ingest_request", "a document reference must be a "
            "{blob, offset, length} object"
        )
    unknown = set(entry) - {"blob", "offset", "length"}
    if unknown:
        raise ServiceError(
            400,
            "bad_ingest_request",
            f"unknown reference field(s): {', '.join(sorted(unknown))}",
        )
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
    """A threading HTTP server bound to one :class:`AirphantService`."""

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
            # Propagated trace context (a router upstream) rides in on the
            # two trace headers; without them a trace id is pre-generated
            # so this request's access-log line still correlates.
            trace_id = self.headers.get(TRACE_ID_HEADER)
            parent_span_id = self.headers.get(PARENT_SPAN_HEADER)
            if trace_id is None and service.tracer.enabled:
                trace_id = new_id()
            self._trace_id = trace_id
            return 200, service.search(
                request, trace_id=trace_id, parent_span_id=parent_span_id
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
            unknown = set(body) - {"refs"}
            if unknown:
                raise ServiceError(
                    400,
                    "bad_ingest_request",
                    f"unknown delete field(s): {', '.join(sorted(unknown))}",
                )
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
            unknown = set(body) - {"ref", "document"}
            if unknown:
                raise ServiceError(
                    400,
                    "bad_ingest_request",
                    f"unknown update field(s): {', '.join(sorted(unknown))}",
                )
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
            unknown = set(body) - {"documents"}
            if unknown:
                raise ServiceError(
                    400,
                    "bad_ingest_request",
                    f"unknown ingest field(s): {', '.join(sorted(unknown))}",
                )
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
            unknown = set(body) - {"snapshot"}
            if unknown:
                raise ServiceError(
                    400,
                    "bad_snapshot_name",
                    f"unknown snapshot field(s): {', '.join(sorted(unknown))}",
                )
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
        unknown = (
            set(body)
            - set(_BUILD_CONFIG_FIELDS)
            - set(_BUILD_SHARD_FIELDS)
            - {"blobs", "format"}
        )
        if unknown:
            raise ServiceError(
                400, "bad_build_request", f"unknown build field(s): {', '.join(sorted(unknown))}"
            )
        # Explicit nulls mean "unset", matching the sketch-config fields.
        num_shards = body.get("num_shards")
        if num_shards is None:
            num_shards = 1
        if not isinstance(num_shards, int) or isinstance(num_shards, bool):
            raise ServiceError(400, "bad_build_request", "num_shards must be an integer")
        partitioner = body.get("partitioner")
        if partitioner is None:
            partitioner = "hash"
        if not isinstance(partitioner, str):
            raise ServiceError(400, "bad_build_request", "partitioner must be a string")
        format_name = body.get("format")
        format_version = None
        if format_name is not None:
            if format_name not in _BUILD_FORMATS:
                raise ServiceError(
                    400,
                    "bad_build_request",
                    f"unknown format {format_name!r}; expected one of "
                    f"{', '.join(sorted(_BUILD_FORMATS))}",
                )
            format_version = _BUILD_FORMATS[format_name]
        try:
            config = SketchConfig(**overrides) if overrides else None
        except (ValueError, TypeError) as error:
            raise ServiceError(400, "bad_build_request", str(error)) from error
        return self.server.service.build_index(
            name,
            blobs,
            sketch_config=config,
            num_shards=num_shards,
            partitioner=partitioner,
            format_version=format_version,
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
        self._body_consumed = 0
        self._trace_id: str | None = None
        self._last_status = 0
        started = time.perf_counter()
        try:
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

    def _read_json_body(self) -> dict[str, Any]:
        length = int(self.headers.get("Content-Length") or 0)
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
        remaining = int(self.headers.get("Content-Length") or 0) - getattr(
            self, "_body_consumed", 0
        )
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
            # Status line, headers and body in one write: as two segments on
            # a keep-alive connection the body waits for the client's delayed
            # ACK of the headers (Nagle), ~40 ms per response.
            self._headers_buffer.append(b"\r\n" + data)
            self.flush_headers()
        except ConnectionError:
            # The client hung up (e.g. a router abandoned us after its
            # per-shard timeout and failed over to a replica).  There is
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
