"""HTTP(S) object-store backend speaking standard byte-range requests.

Airphant's whole read path needs nothing beyond whole-blob GET and byte-range
GET, which *any* HTTP server provides: blob names map to URL paths under a
base URL, ranges travel in the standard ``Range: bytes=start-end`` header.
:class:`HTTPRangeStore` implements the :class:`~repro.storage.base.ObjectStore`
interface over exactly that protocol with the stdlib only, so an index
exported to any static file server (``python -m http.server``, nginx, a CDN
bucket website endpoint) is directly searchable with
``airphant search --store http://host:port``.  Every request — reads,
``HEAD``, ``PUT``, ``DELETE``, listings — rides a keep-alive connection of
the store's one :class:`~repro.storage.connections.ConnectionPool`, so a
wave of reads reuses its sockets instead of opening one per read.
:meth:`close` releases the read pool's threads and keeps the idle
connections for the store's next user: where short-lived reader nodes share
one store and close it as they go, closing ~100 idle sockets each time cost
the next node's first query 2.7 ms and a reconnect per read in flight.
They close when the store is garbage-collected.

Semantics notes:

* Servers that ignore ``Range`` (Python's own ``http.server`` among them)
  answer ``200`` with the full body; the store slices the requested window
  out client-side, so callers observe byte-identical results either way.
* Reads past end-of-blob truncate (HTTP ``416`` maps to ``b""``), matching
  the local and in-memory backends.
* The protocol has no portable listing operation.  :meth:`list_blobs` first
  tries the optional *listing manifest* (a well-known ``manifest.json``
  blob written at build time with ``airphant build --listing``; see
  :mod:`repro.storage.listing`) and answers from it — which makes catalog
  discovery work against any static file server.  Without the manifest it
  returns ``[]``; point queries (``exists``/``size``/``get``) always work,
  which is what opening and searching a *named* index needs.  Use the
  S3-compatible adapter (:mod:`repro.storage.s3`) when live discovery
  matters.
* Network failures and ``5xx`` answers raise
  :class:`~repro.storage.base.TransientStoreError`, so wrapping in a
  :class:`~repro.storage.resilient.ResilientStore` makes them retryable.
"""

from __future__ import annotations

import http.client
import time
from email.message import Message
from urllib.parse import quote

from repro.observability import MetricsRegistry, get_registry
from repro.storage.base import (
    BlobNotFoundError,
    ObjectStore,
    ReadOnlyStoreError,
    StoreAccessError,
    TransientStoreError,
)
from repro.storage.connections import ConnectionPool

#: HTTP status codes that mean "this server will not accept writes".
_READ_ONLY_STATUSES = frozenset({405, 501})
#: HTTP status codes that mean "you are not allowed" — definitive, never
#: retried, and (on writes) distinct from "this server has no write support".
_ACCESS_DENIED_STATUSES = frozenset({401, 403})


class HTTPRangeStore(ObjectStore):
    """Read-oriented :class:`ObjectStore` over plain HTTP range requests.

    Parameters
    ----------
    base_url:
        URL prefix blob names are appended to (``http://host:port`` or
        ``https://host/prefix``); a trailing slash is optional.
    timeout_s:
        Socket timeout applied to every request, in seconds.
    metrics:
        Registry request counts (by method and status) and wall-clock
        request latency are recorded into; defaults to the process-wide
        registry (:func:`repro.observability.get_registry`).

    Writes (``put``/``delete``) are attempted as HTTP ``PUT``/``DELETE`` —
    WebDAV-style servers accept them — and raise
    :class:`~repro.storage.base.ReadOnlyStoreError` when the server refuses.
    """

    #: ``backend`` label value of this store's registry metrics (the S3
    #: adapter overrides it so its traffic is distinguishable).
    _METRICS_BACKEND = "http"

    def __init__(
        self,
        base_url: str,
        timeout_s: float = 10.0,
        metrics: MetricsRegistry | None = None,
    ) -> None:
        if not base_url.startswith(("http://", "https://")):
            raise ValueError(f"base_url must be http(s)://, got {base_url!r}")
        if timeout_s <= 0:
            raise ValueError("timeout_s must be positive")
        self._base_url = base_url.rstrip("/")
        self._timeout_s = timeout_s
        #: ``(fetched_at, decoded listing or None)`` — see :meth:`_listing`.
        self._listing_cache: tuple[float, dict[str, int] | None] | None = None
        registry = metrics if metrics is not None else get_registry()
        self._requests_metric = registry.counter(
            "airphant_backend_requests_total",
            "HTTP requests issued to real storage backends",
            label_names=("backend", "method", "status"),
        )
        self._latency_metric = registry.histogram(
            "airphant_backend_request_seconds",
            "Wall-clock latency of backend HTTP requests",
            label_names=("backend", "method"),
        )
        connections_metric = registry.counter(
            "airphant_backend_connections_total",
            "TCP connections opened to real storage backends",
            label_names=("backend",),
        )
        backend = self._METRICS_BACKEND
        self._connections = ConnectionPool(
            self._base_url, on_connect=lambda: connections_metric.inc(backend=backend)
        )

    @property
    def base_url(self) -> str:
        """URL prefix every blob name is resolved against."""
        return self._base_url

    @property
    def timeout_s(self) -> float:
        """Per-request socket timeout in seconds."""
        return self._timeout_s

    # -- request plumbing --------------------------------------------------------

    def blob_url(self, name: str) -> str:
        """Return the full URL of blob ``name`` (slashes kept as path separators)."""
        if not name or name.startswith("/") or ".." in name.split("/"):
            raise ValueError(f"invalid blob name: {name!r}")
        return f"{self._base_url}/{quote(name, safe='/')}"

    def _headers(self, method: str, url: str, body: bytes | None) -> dict[str, str]:
        """Extra request headers; subclasses add auth (e.g. AWS SigV4) here."""
        return {}

    def _request(
        self,
        method: str,
        url: str,
        name: str,
        headers: dict[str, str] | None = None,
        body: bytes | None = None,
    ) -> tuple[int, Message, bytes]:
        """Issue one HTTP request, translating failures to store errors.

        Returns
        -------
        ``(status, response_headers, response_body)``.  ``404`` raises
        :class:`BlobNotFoundError` and ``401``/``403`` raise
        :class:`StoreAccessError` (both definitive, never retried);
        ``405``/``501`` on writes raise :class:`ReadOnlyStoreError`;
        ``416`` is returned to the caller (range handling); everything else
        — ``5xx``, timeouts, connection errors — raises
        :class:`TransientStoreError`.
        """
        merged = dict(headers or {})
        merged.update(self._headers(method, url, body))
        started = time.perf_counter()
        try:
            status, response_headers, payload = self._connections.request(
                method, url, self._timeout_s, merged, body
            )
        except (OSError, http.client.HTTPException) as error:
            self._record(method, "error", started)
            raise TransientStoreError(f"{method} {url} failed: {error}") from error
        self._record(method, str(status), started)
        if 200 <= status < 300 or status == 416:
            return status, response_headers, payload
        if status == 404:
            raise BlobNotFoundError(name)
        if status in _ACCESS_DENIED_STATUSES:
            raise StoreAccessError(
                f"{method} {url} denied with HTTP {status} "
                "(check credentials / bucket policy)"
            )
        if method in ("PUT", "DELETE") and status in _READ_ONLY_STATUSES:
            # Checked before the 5xx rule: a 501 "Unsupported method" on a
            # write is a definitive "this server is read-only", not a
            # transient failure worth retrying.
            raise ReadOnlyStoreError(
                f"server rejected {method} {url} with HTTP {status}; "
                "this backend is read-only"
            )
        raise TransientStoreError(f"{method} {url} failed with HTTP {status}")

    def _record(self, method: str, status: str, started: float) -> None:
        """Account one backend request (count by status + wall-clock latency)."""
        backend = self._METRICS_BACKEND
        self._requests_metric.inc(backend=backend, method=method, status=status)
        self._latency_metric.observe(
            time.perf_counter() - started, backend=backend, method=method
        )

    # -- ObjectStore interface ---------------------------------------------------

    def put(self, name: str, data: bytes) -> None:
        """Upload ``data`` as blob ``name`` via HTTP ``PUT``.

        Raises :class:`ReadOnlyStoreError` when the server does not accept
        uploads (the common case for static file servers).
        """
        self._request("PUT", self.blob_url(name), name, body=bytes(data))

    def get(self, name: str) -> bytes:
        """Return the full body of blob ``name`` (GET)."""
        _, _, body = self._request("GET", self.blob_url(name), name)
        return body

    def get_range(self, name: str, offset: int, length: int | None = None) -> bytes:
        """Return ``length`` bytes of ``name`` from ``offset`` via a Range GET.

        Sends ``Range: bytes=offset-`` (or ``offset-(offset+length-1)``);
        a ``206`` answer is used as-is, a ``200`` answer (server ignored the
        header) is sliced client-side, and a ``416`` (range entirely past the
        end) truncates to ``b""`` — matching local-store semantics exactly.
        """
        if length == 0:
            return b""
        if length is None:
            range_header = f"bytes={offset}-"
        else:
            range_header = f"bytes={offset}-{offset + length - 1}"
        status, _, body = self._request(
            "GET", self.blob_url(name), name, headers={"Range": range_header}
        )
        if status == 206:
            return body
        if status == 416:
            return b""
        # Full-content answer from a server without range support.
        if length is None:
            return body[offset:]
        return body[offset : offset + length]

    def size(self, name: str) -> int:
        """Return the blob's ``Content-Length``, probed with a ``HEAD`` request."""
        _, headers, _ = self._request("HEAD", self.blob_url(name), name)
        content_length = headers.get("Content-Length")
        if content_length is None:
            # Fall back to downloading the body (rare: chunked-only servers).
            return len(self.get(name))
        return int(content_length)

    def exists(self, name: str) -> bool:
        """Whether blob ``name`` answers a ``HEAD`` request (404 → ``False``)."""
        try:
            self._request("HEAD", self.blob_url(name), name)
        except BlobNotFoundError:
            return False
        return True

    def delete(self, name: str) -> None:
        """Delete blob ``name`` via HTTP ``DELETE`` (missing blobs are a no-op).

        Raises :class:`ReadOnlyStoreError` when the server refuses deletes.
        """
        try:
            self._request("DELETE", self.blob_url(name), name)
        except BlobNotFoundError:
            pass

    #: How long a fetched listing manifest is reused before re-downloading.
    #: One catalog operation (GET /indexes = one list_blobs + one
    #: total_bytes per index) issues many listing reads back to back; the
    #: short TTL collapses them into one download while keeping staleness
    #: bounded for refreshed exports.
    _LISTING_TTL_S = 5.0

    def _listing(self) -> dict[str, int] | None:
        """The export's listing manifest as ``{blob: size}``, if published.

        Cached for :attr:`_LISTING_TTL_S` seconds (absence included);
        absent or unparsable manifests degrade to ``None``.
        """
        from repro.storage.listing import LISTING_BLOB, decode_listing

        cached = self._listing_cache
        now = time.monotonic()
        if cached is not None and now - cached[0] < self._LISTING_TTL_S:
            return cached[1]
        try:
            listing: dict[str, int] | None = decode_listing(self.get(LISTING_BLOB))
        except BlobNotFoundError:
            listing = None
        except ValueError:
            # Some unrelated manifest.json answered; treat as "no listing".
            listing = None
        self._listing_cache = (now, listing)
        return listing

    def list_blobs(self, prefix: str = "") -> list[str]:
        """Blob names from the listing manifest (``[]`` when not published).

        Plain HTTP has no portable listing operation; exports that publish
        the optional manifest (``airphant build --listing``) get full
        catalog discovery (``GET /indexes``), everything else degrades to
        the old behaviour: no entries, but opening and searching an index
        by name works fully (it only needs ``exists``/``get``/``get_range``).
        Backends with real listings (local, memory, S3) are unaffected.
        """
        listing = self._listing()
        if listing is None:
            return []
        return sorted(name for name in listing if name.startswith(prefix))

    def total_bytes(self, prefix: str = "") -> int:
        """Summed blob sizes under ``prefix``, from the listing manifest.

        The manifest records sizes, so this needs one GET instead of one
        HEAD per blob.  Reports 0 when no manifest is published.
        """
        listing = self._listing()
        if listing is None:
            return 0
        return sum(size for name, size in listing.items() if name.startswith(prefix))
